package cluster

import (
	"math"
	"slices"
	"testing"

	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
)

// TestContentRankSumsDeterminism is the regression guard for the rank
// pipeline's determinism: contentRankSums accumulates float weights into a
// map and materializes it through vector.FromMap, and the delta-round
// representative memo (and every cross-run equivalence guarantee) depends
// on repeated runs over the same items producing bit-identical vectors.
// The tie-heavy corpus maximizes equal-weight collisions, the adversarial
// shape for any ordering slip.
func TestContentRankSumsDeterminism(t *testing.T) {
	corpus := tieHeavyCorpus(t, 80, 41)
	items := distinctItems(corpus.Transactions, corpus.Items)
	if len(items) == 0 {
		t.Fatal("no items")
	}
	base := contentRankSums(items)
	baseEntries := base.Entries()
	for run := 0; run < 10; run++ {
		got := contentRankSums(items)
		entries := got.Entries()
		if len(entries) != len(baseEntries) {
			t.Fatalf("run %d: %d entries, want %d", run, len(entries), len(baseEntries))
		}
		for i := range entries {
			if entries[i].Term != baseEntries[i].Term {
				t.Fatalf("run %d entry %d: term %d, want %d", run, i, entries[i].Term, baseEntries[i].Term)
			}
			if math.Float64bits(entries[i].Weight) != math.Float64bits(baseEntries[i].Weight) {
				t.Fatalf("run %d entry %d (term %d): weight bits %x, want %x",
					run, i, entries[i].Term,
					math.Float64bits(entries[i].Weight), math.Float64bits(baseEntries[i].Weight))
			}
		}
		if math.Float64bits(got.Norm()) != math.Float64bits(base.Norm()) {
			t.Fatalf("run %d: norm bits differ", run)
		}
	}
}

// TestVectorFromMapDeterminism pins vector.FromMap itself: identical maps
// (including zero weights, which must be dropped) materialize to identical
// sorted entry sequences regardless of Go's randomized map iteration.
func TestVectorFromMapDeterminism(t *testing.T) {
	m := map[int32]float64{7: 0.25, 3: 1.5, 12: 0, 5: -2.25, 9: 0.25}
	base := vector.FromMap(m).Entries()
	wantTerms := []int32{3, 5, 7, 9}
	if len(base) != len(wantTerms) {
		t.Fatalf("%d entries, want %d (zero weight must be dropped)", len(base), len(wantTerms))
	}
	for i, term := range wantTerms {
		if base[i].Term != term {
			t.Fatalf("entry %d: term %d, want %d (entries must sort by term)", i, base[i].Term, term)
		}
	}
	for run := 0; run < 20; run++ {
		got := vector.FromMap(m).Entries()
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("run %d entry %d: %+v, want %+v", run, i, got[i], base[i])
			}
		}
	}
}

// TestRepresentativeDeterminism pins the end product: repeated
// ComputeLocalRepresentative calls over the same tie-heavy cluster, at
// every worker count, produce the exact same item id sequence.
func TestRepresentativeDeterminism(t *testing.T) {
	corpus := tieHeavyCorpus(t, 80, 41)
	cx := ctxFor(corpus, 0.5, 0.6)
	ref := ComputeLocalRepresentative(RepConfig{Ctx: cx, Workers: 1}, corpus.Transactions)
	if ref == nil || ref.Len() == 0 {
		t.Fatal("empty reference representative")
	}
	for run := 0; run < 5; run++ {
		for _, workers := range []int{1, 4} {
			rep := ComputeLocalRepresentative(RepConfig{Ctx: cx, Workers: workers}, corpus.Transactions)
			if rep == nil || len(rep.Items) != len(ref.Items) {
				t.Fatalf("run %d workers %d: length differs from reference", run, workers)
			}
			for i := range ref.Items {
				if rep.Items[i] != ref.Items[i] {
					t.Fatalf("run %d workers %d item %d: %d != %d",
						run, workers, i, rep.Items[i], ref.Items[i])
				}
			}
		}
	}
}

// rankedWith builds a ranked slice over the given items with ranks supplied
// per index (callers engineer ties and boundaries explicitly). The slice is
// NOT re-sorted: tests hand it over pre-ordered, exactly as
// generateTreeTuple requires.
func rankedWith(items []*txn.Item, rank func(i int) float64) []rankedItem {
	out := make([]rankedItem, len(items))
	for i, it := range items {
		out[i] = rankedItem{id: it.ID, rank: rank(i)}
	}
	return out
}

// TestSortRankedOrder: rank descending, then item id ascending — a total
// order over a ranking's distinct ids, so whichever sort implements it, the
// sequence is one; in particular ties must not come out in input order.
func TestSortRankedOrder(t *testing.T) {
	r := []rankedItem{{7, 0.5}, {3, 2}, {9, 0.5}, {1, 0.5}, {4, 2}, {8, 0}, {2, 3}}
	want := []rankedItem{{2, 3}, {3, 2}, {4, 2}, {1, 0.5}, {7, 0.5}, {9, 0.5}, {8, 0}}
	sortRanked(r)
	if !slices.Equal(r, want) {
		t.Fatalf("sortRanked = %v, want %v", r, want)
	}
}

// constituents flattens a representative back to the raw item ids it was
// conflated from, as a set.
func constituents(tab *txn.ItemTable, rep *txn.Transaction) map[txn.ItemID]bool {
	set := map[txn.ItemID]bool{}
	if rep == nil {
		return set
	}
	for _, id := range rep.Items {
		for _, raw := range tab.Get(id).Flatten() {
			set[raw] = true
		}
	}
	return set
}

// TestGenerateTreeTupleMinBatchFill exercises the ReturnBestObjective batch
// fill: with far more ranked items than 4·(trmax+1), batches have a minimum
// size, and a rank tie straddling the batch boundary must still travel as
// one unit — the boundary can extend past minBatch for ties but never split
// one.
func TestGenerateTreeTupleMinBatchFill(t *testing.T) {
	corpus := tieHeavyCorpus(t, 80, 7)
	c := corpus.Transactions[:3] // small trmax
	items := distinctItems(corpus.Transactions, corpus.Items)
	trmax := txn.MaxTransactionLen(c)
	minBatch := len(items) / (4 * (trmax + 1))
	if minBatch < 2 {
		t.Fatalf("fixture too small: minBatch %d (items %d, trmax %d), need ≥ 2", minBatch, len(items), trmax)
	}
	// Distinct descending ranks except one tie pair placed exactly at the
	// first batch's boundary: indices minBatch-1 and minBatch share a rank.
	ranked := rankedWith(items, func(i int) float64 {
		if i == minBatch {
			return float64(len(items) - minBatch + 1) // ties with index minBatch-1
		}
		return float64(len(items) - i)
	})
	cfg := RepConfig{Ctx: ctxFor(corpus, 0.5, 0.6), Rule: ReturnBestObjective, Workers: 1}
	rep := generateTreeTuple(cfg, ranked, c)
	if rep == nil || rep.Len() == 0 {
		t.Fatal("empty representative")
	}
	got := constituents(corpus.Items, rep)
	// The result conflates a batch-aligned prefix of ranked: at least the
	// first (tie-extended) batch, and never exactly one half of the tie pair.
	a := false
	for _, raw := range corpus.Items.Get(ranked[minBatch-1].id).Flatten() {
		a = a || got[raw]
	}
	b := false
	for _, raw := range corpus.Items.Get(ranked[minBatch].id).Flatten() {
		b = b || got[raw]
	}
	if a != b {
		t.Errorf("rank tie split across the batch boundary: item %d included=%v, item %d included=%v",
			minBatch-1, a, minBatch, b)
	}
	if !a {
		t.Error("first batch items missing from the representative: the minimum batch fill did not run")
	}
}

// TestGenerateTreeTupleSizeBoundExit pins the |rep| > trmax loop exit: with
// a deep ranked list over a cluster of short transactions, refinement must
// stop growing instead of conflating the entire item universe.
func TestGenerateTreeTupleSizeBoundExit(t *testing.T) {
	corpus := tieHeavyCorpus(t, 80, 7)
	c := corpus.Transactions[:2]
	items := distinctItems(corpus.Transactions, corpus.Items)
	ranked := rankedWith(items, func(i int) float64 { return float64(len(items) - i) })
	all := map[txn.ItemID]bool{}
	for _, it := range items {
		for _, raw := range it.Flatten() {
			all[raw] = true
		}
	}
	for _, rule := range []ReturnRule{ReturnBestObjective, ReturnLastImproving, ReturnPrevious} {
		cfg := RepConfig{Ctx: ctxFor(corpus, 0.5, 0.6), Rule: rule, Workers: 1}
		rep := generateTreeTuple(cfg, ranked, c)
		if rep == nil || rep.Len() == 0 {
			t.Fatalf("rule %d: empty representative", rule)
		}
		got := constituents(corpus.Items, rep)
		if len(got) >= len(all) {
			t.Errorf("rule %d: representative conflates all %d raw items; the size bound (trmax %d) never fired",
				rule, len(all), txn.MaxTransactionLen(c))
		}
	}
}

// TestGenerateTreeTupleDegenerate runs all three return rules over the
// degenerate inputs: a single ranked item, an all-tied ranking (one batch
// swallows everything, so every rule must agree on the full conflation),
// and an empty ranking.
func TestGenerateTreeTupleDegenerate(t *testing.T) {
	corpus := twoTopicDocs(t, 3)
	cx := ctxFor(corpus, 0.5, 0.6)
	c := corpus.Transactions[:3]
	items := distinctItems(c, corpus.Items)
	rules := []ReturnRule{ReturnBestObjective, ReturnLastImproving, ReturnPrevious}

	t.Run("singleItem", func(t *testing.T) {
		ranked := rankedWith(items[:1], func(int) float64 { return 1 })
		for _, rule := range rules {
			rep := generateTreeTuple(RepConfig{Ctx: cx, Rule: rule, Workers: 1}, ranked, c)
			if rep == nil || rep.Len() == 0 {
				t.Errorf("rule %d: single ranked item produced an empty representative", rule)
			}
		}
	})

	t.Run("allTied", func(t *testing.T) {
		ranked := rankedWith(items, func(int) float64 { return 0.5 })
		var first *txn.Transaction
		for _, rule := range rules {
			rep := generateTreeTuple(RepConfig{Ctx: cx, Rule: rule, Workers: 1}, ranked, c)
			if rep == nil || rep.Len() == 0 {
				t.Fatalf("rule %d: all-tied ranking produced an empty representative", rule)
			}
			if first == nil {
				first = rep
				continue
			}
			if !rep.Equal(first) {
				t.Errorf("rule %d: all-tied ranking diverges across rules — one batch must swallow everything", rule)
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		for _, rule := range rules {
			rep := generateTreeTuple(RepConfig{Ctx: cx, Rule: rule, Workers: 1}, nil, c)
			if rep != nil && rep.Len() != 0 {
				t.Errorf("rule %d: empty ranking produced a non-empty representative", rule)
			}
		}
	})
}
