package cluster

import (
	"slices"
	"testing"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// repTrajectory returns the representative sets a centralized run passes
// through: the reps after 1, 2, … iterations of the same seeded run (the
// deterministic seed makes every prefix identical), with the final set
// repeated once — the converged round where nothing changes.
func repTrajectory(cx *sim.Context, s []*txn.Transaction, k int, iters int) [][]*txn.Transaction {
	var sets [][]*txn.Transaction
	for it := 1; it <= iters; it++ {
		cl := xkmeans(cx, s, runCfg{K: k, MaxIter: it, Seed: 31, Workers: 1})
		sets = append(sets, cl.Reps)
	}
	return append(sets, sets[len(sets)-1])
}

// TestDeltaRelocateEquivalence replays a run's representative trajectory
// through one fast Rounds engine and requires every round's assignment to be
// byte-identical to a fresh flat scan against the same representatives, at
// workers 1 and 4.
func TestDeltaRelocateEquivalence(t *testing.T) {
	corpus := tieHeavyCorpus(t, 60, 17)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	sets := repTrajectory(cx, s, 6, 5)
	for _, workers := range []int{1, 4} {
		d := NewRounds(RepConfig{Ctx: cx, Workers: workers}, s, true)
		for round, reps := range sets {
			got, err := d.Assign(nil, reps)
			if err != nil {
				t.Fatal(err)
			}
			if want := flatRelocate(t, cx, s, reps, 1); !slices.Equal(got, want) {
				t.Fatalf("workers %d round %d: the engine's assignment diverges from the flat scan", workers, round)
			}
		}
	}
}

// TestDeltaRelocateResetAndResize pins the k-change reset: a representative
// set of a different size gets a memo of its own size instead of one indexed
// past its end, and the assignment stays correct.
func TestDeltaRelocateResetAndResize(t *testing.T) {
	corpus := tieHeavyCorpus(t, 40, 3)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	sets := repTrajectory(cx, s, 5, 3)

	d := NewRounds(RepConfig{Ctx: cx, Workers: 1}, s, true)
	for _, reps := range sets[:2] {
		if _, err := d.Assign(nil, reps); err != nil {
			t.Fatal(err)
		}
	}
	// The second and third targets are a shrunken and a regrown
	// representative set: d's memo was sized for 5 clusters.
	for _, reps := range [][]*txn.Transaction{sets[2], sets[2][:3], sets[2]} {
		got, err := d.Assign(nil, reps)
		if err != nil {
			t.Fatal(err)
		}
		if want := flatRelocate(t, cx, s, reps, 1); !slices.Equal(got, want) {
			t.Fatalf("assignment against %d representatives after a reset diverges from the flat scan", len(reps))
		}
		if locals, sizes := d.LocalReps(got); len(locals) != len(reps) || len(sizes) != len(reps) {
			t.Fatalf("LocalReps returned %d representatives for k = %d", len(locals), len(reps))
		}
	}
}

// TestDeltaRepMemo pins the local-representative memo: an unchanged
// membership returns the cached representative object (no recomputation,
// counter moves), a changed one recomputes.
func TestDeltaRepMemo(t *testing.T) {
	corpus := twoTopicDocs(t, 6)
	s := corpus.Transactions
	cx := ctxFor(corpus, 0.5, 0.6)
	d := NewRounds(RepConfig{Ctx: cx, Workers: 1}, s, true)
	if _, err := d.Assign(nil, []*txn.Transaction{s[0], s[6]}); err != nil {
		t.Fatal(err) // sizes the engine for two clusters
	}

	// Cluster 0 holds the first six transactions (A) or the rest (B);
	// everything else sits in the trash, so only cluster 0 is refined.
	assignA, assignB := make([]int, len(s)), make([]int, len(s))
	for i := range s {
		assignA[i], assignB[i] = TrashCluster, TrashCluster
		if i < 6 {
			assignA[i] = 0
		} else {
			assignB[i] = 0
		}
	}

	reused0 := cx.Counters.RepsReused.Load()
	localsA, _ := d.LocalReps(assignA)
	repA := localsA[0]
	if repA == nil {
		t.Fatal("nil representative for non-empty cluster")
	}
	if got, _ := d.LocalReps(assignA); got[0] != repA {
		t.Error("unchanged membership did not return the memoized representative object")
	}
	if reused := cx.Counters.RepsReused.Load() - reused0; reused != 1 {
		t.Errorf("RepsReused moved by %d, want 1", reused)
	}
	if got, _ := d.LocalReps(assignB); got[0] == repA {
		t.Error("changed membership returned the stale memoized representative")
	}
}

// TestDeltaRepMemoChecksSize: the memo reuses a representative on a matching
// 64-bit membership fingerprint, so a collision would hand a cluster another
// cluster's representative without a trace. The member count is compared
// beside it: an entry with the right fingerprint and the wrong size —
// injected, collisions do not come on demand — is recomputed.
func TestDeltaRepMemoChecksSize(t *testing.T) {
	corpus := twoTopicDocs(t, 6)
	s := corpus.Transactions
	cx := ctxFor(corpus, 0.5, 0.6)
	d := NewRounds(RepConfig{Ctx: cx, Workers: 1}, s, true)
	if _, err := d.Assign(nil, []*txn.Transaction{s[0], s[6]}); err != nil {
		t.Fatal(err)
	}
	assign := make([]int, len(s))
	for i := range s {
		assign[i] = TrashCluster
		if i < 6 {
			assign[i] = 0
		}
	}
	locals, _ := d.LocalReps(assign)
	want := locals[0]

	imposter := txn.NewTransaction(s[7].Items, -1, -1, -1)
	d.local[0].rep, d.local[0].size = imposter, d.local[0].size+1
	reused0 := cx.Counters.RepsReused.Load()
	got, _ := d.LocalReps(assign)
	if got[0] == imposter {
		t.Fatal("an entry of another size was reused on its fingerprint alone")
	}
	if !got[0].Equal(want) || cx.Counters.RepsReused.Load() != reused0 {
		t.Errorf("the cluster was not recomputed: got %v, want %v", got[0].Items, want.Items)
	}
	// The recomputation repaired the entry.
	if again, _ := d.LocalReps(assign); again[0] != got[0] {
		t.Error("the recomputed representative was not memoized")
	}
}
