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
// workers 1 and 4, while the skip counter proves the cross-round cache is
// actually firing on the repeated (converged) set.
func TestDeltaRelocateEquivalence(t *testing.T) {
	corpus := tieHeavyCorpus(t, 60, 17)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	sets := repTrajectory(cx, s, 6, 5)
	for _, workers := range []int{1, 4} {
		d := NewRounds(RepConfig{Ctx: cx, Workers: workers}, s, true)
		skip0 := cx.Counters.DocsSkipped.Load()
		for round, reps := range sets {
			got, err := d.Assign(nil, reps)
			if err != nil {
				t.Fatal(err)
			}
			if want := flatRelocate(t, cx, s, reps, 1); !slices.Equal(got, want) {
				t.Fatalf("workers %d round %d: the engine's assignment diverges from the flat scan", workers, round)
			}
		}
		if skipped := cx.Counters.DocsSkipped.Load() - skip0; skipped < int64(len(s)) {
			t.Errorf("workers %d: only %d docs skipped across the trajectory; the repeated final set alone should skip all %d",
				workers, skipped, len(s))
		}
	}
}

// TestDeltaRelocateResetAndResize pins the invalidation paths: Invalidate
// drops the anchors (the next call runs a full pass and stays correct), and
// a representative set of a different size triggers the defensive reset
// instead of folding against stale anchors.
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
	d.Invalidate()
	// The second target is a shrunken representative set: d's caches are
	// sized for 5 clusters.
	for _, reps := range [][]*txn.Transaction{sets[2], sets[2][:3]} {
		got, err := d.Assign(nil, reps)
		if err != nil {
			t.Fatal(err)
		}
		if want := flatRelocate(t, cx, s, reps, 1); !slices.Equal(got, want) {
			t.Fatalf("assignment against %d representatives after a reset diverges from the flat scan", len(reps))
		}
	}
}

// TestDeltaRepMemo pins caches 1 and 3: an unchanged membership returns the
// cached representative object (no recomputation, counter moves), a changed
// one recomputes; same for the weighted global merge.
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

	// Global-representative memo: identical (weight, items) inputs reuse.
	reps := []WeightedRep{{Rep: repA, Weight: 6}}
	g := d.GlobalRep(0, reps)
	if got := d.GlobalRep(0, reps); got != g {
		t.Error("unchanged weighted inputs did not return the memoized global representative")
	}
	if got := d.GlobalRep(0, []WeightedRep{{Rep: repA, Weight: 7}}); got == g && g != nil {
		// A weight change re-ranks: the memo must not serve the old object.
		t.Error("changed weight returned the stale memoized global representative")
	}
}

// TestRoundsUnchangedRepsShortcut pins the whole-pass shortcut and extends
// the CI allocation guards to it: an Assign against the representative set of
// the previous pass — the same slice or an equal-content copy — returns that
// pass's assignment without scoring a single document and without a heap
// allocation, and a changed representative ends it.
func TestRoundsUnchangedRepsShortcut(t *testing.T) {
	corpus := twoTopicDocs(t, 12)
	s := corpus.Transactions
	cx := ctxFor(corpus, 0.5, 0.6)
	reps := xkmeans(cx, s, runCfg{K: 4, MaxIter: 3, Seed: 3, Workers: 1}).Reps
	r := NewRounds(RepConfig{Ctx: cx, Workers: 1}, s, true)
	first, err := r.Assign(nil, reps)
	if err != nil {
		t.Fatal(err)
	}
	copied := slices.Clone(reps)
	copied[0] = txn.NewTransaction(reps[0].Items, -1, -1, -1)
	before := cx.Counters.Snapshot()
	txnSims, itemSims := cx.Counters.TxnSims.Load(), cx.Counters.ItemSims.Load()
	if avg := testing.AllocsPerRun(50, func() {
		if got, _ := r.Assign(nil, copied); !slices.Equal(got, first) {
			t.Fatal("shortcut assignment differs from the pass it repeats")
		}
	}); avg != 0 {
		t.Errorf("unchanged-representatives Assign allocates %.2f/op, want 0", avg)
	}
	d := cx.Counters.Snapshot().Sub(before)
	if d.DocsSkipped == 0 || d.DocsSkipped%int64(len(s)) != 0 {
		t.Errorf("DocsSkipped moved by %d, want a multiple of %d", d.DocsSkipped, len(s))
	}
	if d.IndexCandidates != 0 || d.IndexSkipped != 0 ||
		cx.Counters.TxnSims.Load() != txnSims || cx.Counters.ItemSims.Load() != itemSims {
		t.Errorf("the shortcut scored documents: %+v", d)
	}
	changed := slices.Clone(reps)
	changed[1] = s[0]
	before = cx.Counters.Snapshot()
	got, err := r.Assign(nil, changed)
	if err != nil {
		t.Fatal(err)
	}
	if d := cx.Counters.Snapshot().Sub(before); d.DocsSkipped != 0 {
		t.Errorf("a changed representative skipped %d documents", d.DocsSkipped)
	}
	if want := flatRelocate(t, cx, s, changed, 1); !slices.Equal(got, want) {
		t.Error("assignment after a changed representative differs from the flat scan")
	}
}
