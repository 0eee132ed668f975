package cluster

import (
	"fmt"
	"slices"
	"testing"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// TestXKMeansDeltaEquivalence pins the full clustering loop byte-identical
// with the delta-round engine on and off — assignments, sizes, iteration
// counts AND representative item sequences — across similarity regimes,
// worker counts and both relocation paths (flat and index-guided).
func TestXKMeansDeltaEquivalence(t *testing.T) {
	corpus := tieHeavyCorpus(t, 50, 23)
	s := corpus.Transactions
	for _, p := range []sim.Params{{F: 0.5, Gamma: 0.6}, {F: 0.5, Gamma: 0.3}, {F: 1, Gamma: 0.7}} {
		cx := sim.NewContext(corpus, p)
		plain := XKMeans(cx, s, Config{K: 5, MaxIter: 8, Seed: 11, Workers: 1})
		for _, workers := range []int{1, 4} {
			for _, indexed := range []bool{false, true} {
				got := XKMeans(cx, s, Config{
					K: 5, MaxIter: 8, Seed: 11, Workers: workers,
					Tiers: Tiers{Index: indexed, Delta: true},
				})
				label := fmt.Sprintf("params %+v workers %d indexed %v", p, workers, indexed)
				assertClusteringsEqual(t, label, plain, got)
			}
		}
	}
}

// repTrajectory returns the representative sets an XKMeans run passes
// through: the reps after 1, 2, … iterations of the same seeded run (the
// deterministic seed makes every prefix identical), with the final set
// repeated once — the converged round where nothing changes.
func repTrajectory(cx *sim.Context, s []*txn.Transaction, k int, iters int) [][]*txn.Transaction {
	var sets [][]*txn.Transaction
	for it := 1; it <= iters; it++ {
		cl := XKMeans(cx, s, Config{K: k, MaxIter: it, Seed: 31, Workers: 1})
		sets = append(sets, cl.Reps)
	}
	return append(sets, sets[len(sets)-1])
}

// TestDeltaRelocateEquivalence replays a run's representative trajectory
// through one Rounds engine and requires every round's assignment to be
// byte-identical to a fresh full scan against the same representatives —
// flat and indexed, workers 1 and 4 — while the skip counter proves the
// cross-round cache is actually firing on the repeated (converged) set.
func TestDeltaRelocateEquivalence(t *testing.T) {
	corpus := tieHeavyCorpus(t, 60, 17)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	sets := repTrajectory(cx, s, 6, 5)
	for _, indexed := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			d := NewRounds(RepConfig{Ctx: cx, Workers: workers}, s, Tiers{Index: indexed, Delta: true})
			skip0 := cx.Counters.DocsSkipped.Load()
			for round, reps := range sets {
				var ix *sim.RepIndex
				if indexed {
					ix = sim.NewRepIndex()
					ix.Build(cx, reps)
				}
				want, err := RelocateCtxIndexed(nil, cx, s, reps, 1, ix)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.Assign(nil, reps)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("indexed %v workers %d round %d: delta assignment diverges at %d: %d != %d",
							indexed, workers, round, i, got[i], want[i])
					}
				}
			}
			if skipped := cx.Counters.DocsSkipped.Load() - skip0; skipped < int64(len(s)) {
				t.Errorf("indexed %v workers %d: only %d docs skipped across the trajectory; the repeated final set alone should skip all %d",
					indexed, workers, skipped, len(s))
			}
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

	d := NewRounds(RepConfig{Ctx: cx, Workers: 1}, s, Tiers{Delta: true})
	for _, reps := range sets[:2] {
		if _, err := d.Assign(nil, reps); err != nil {
			t.Fatal(err)
		}
	}
	d.Invalidate()
	reps := sets[2]
	want, err := RelocateCtxIndexed(nil, cx, s, reps, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Assign(nil, reps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-Reset assignment diverges at %d: %d != %d", i, got[i], want[i])
		}
	}

	// Shrunken representative set: d's caches are sized for 5 clusters.
	small := reps[:3]
	want, err = RelocateCtxIndexed(nil, cx, s, small, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err = d.Assign(nil, small)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-resize assignment diverges at %d: %d != %d", i, got[i], want[i])
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
	d := NewRounds(RepConfig{Ctx: cx, Workers: 1}, s, Tiers{Delta: true})
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
	reps := XKMeans(cx, s, Config{K: 4, MaxIter: 3, Seed: 3, Workers: 1}).Reps
	for _, tiers := range []Tiers{{Delta: true}, {Index: true, Delta: true}} {
		r := NewRounds(RepConfig{Ctx: cx, Workers: 1}, s, tiers)
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
				t.Fatalf("tiers %+v: shortcut assignment differs from the pass it repeats", tiers)
			}
		}); avg != 0 {
			t.Errorf("tiers %+v: unchanged-representatives Assign allocates %.2f/op, want 0", tiers, avg)
		}
		d := cx.Counters.Snapshot().Sub(before)
		if d.DocsSkipped == 0 || d.DocsSkipped%int64(len(s)) != 0 {
			t.Errorf("tiers %+v: DocsSkipped moved by %d, want a multiple of %d", tiers, d.DocsSkipped, len(s))
		}
		if d.IndexCandidates != 0 || d.IndexSkipped != 0 || d.PrunedRows != 0 ||
			cx.Counters.TxnSims.Load() != txnSims || cx.Counters.ItemSims.Load() != itemSims {
			t.Errorf("tiers %+v: the shortcut scored documents: %+v", tiers, d)
		}
		changed := slices.Clone(reps)
		changed[1] = s[0]
		before = cx.Counters.Snapshot()
		got, err := r.Assign(nil, changed)
		if err != nil {
			t.Fatal(err)
		}
		if d := cx.Counters.Snapshot().Sub(before); d.DocsSkipped != 0 {
			t.Errorf("tiers %+v: a changed representative skipped %d documents", tiers, d.DocsSkipped)
		}
		if want := flatRelocate(t, cx, s, changed, 1); !slices.Equal(got, want) {
			t.Errorf("tiers %+v: assignment after a changed representative differs from the flat scan", tiers)
		}
	}
}
