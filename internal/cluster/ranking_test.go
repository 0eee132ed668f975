package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
)

// The pooled-view ranking and conflation against the parent's, kept verbatim
// in reference_test.go: on twin corpora — built twice from one spec, so their
// tables intern alike — the new code runs on one twin and the reference on
// the other, and every rank, every ranked position, every conflated step and
// the table length after each step must agree, as must the similarity work
// each side counted.

// viewLocalRanking is ComputeLocalRepresentative's ranking.
func viewLocalRanking(cx *sim.Context, c []*txn.Transaction) []rankedItem {
	v := viewPool.Get().(*view)
	v.collect(cx.Items, c)
	var ranked []rankedItem
	if len(v.ids) > 0 {
		ranked = slices.Clone(v.rank(cx, false))
	}
	viewPool.Put(v)
	return ranked
}

// viewGlobalRanking is ComputeGlobalRepresentative's ranking.
func viewGlobalRanking(cx *sim.Context, reps []WeightedRep) []rankedItem {
	v := viewPool.Get().(*view)
	var ranked []rankedItem
	if trs := v.collectReps(cx.Items, reps); len(trs) > 0 {
		ranked = slices.Clone(v.rank(cx, true))
	}
	viewPool.Put(v)
	return ranked
}

// sameRanking fails unless got and want rank the same ids in the same order
// with ranks equal by math.Float64bits.
func sameRanking(t *testing.T, label string, got, want []rankedItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranked items, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || math.Float64bits(got[i].rank) != math.Float64bits(want[i].rank) {
			t.Fatalf("%s: position %d is item %d rank %v (%#x), reference item %d rank %v (%#x)", label, i,
				got[i].id, got[i].rank, math.Float64bits(got[i].rank),
				want[i].id, want[i].rank, math.Float64bits(want[i].rank))
		}
	}
}

// batches cuts ranked as generateTreeTuple does — rank ties together, at
// least minBatch items — and lists each batch's raw constituent ids.
func batches(tab *txn.ItemTable, ranked []rankedItem, minBatch int) [][]txn.ItemID {
	var out [][]txn.ItemID
	for i := 0; i < len(ranked); {
		j := i + 1
		for j < len(ranked) && (ranked[j].rank == ranked[j-1].rank || j-i < minBatch) {
			j++
		}
		var raw []txn.ItemID
		for _, ri := range ranked[i:j] {
			raw = append(raw, tab.Get(ri.id).Flatten()...)
		}
		out = append(out, raw)
		i = j
	}
	return out
}

// sameConflation grows a pooled conflation on a and the reference one on b
// batch by batch and fails at the first step whose transaction or table
// length differs. It returns the steps taken.
func sameConflation(t *testing.T, label string, a, b *txn.ItemTable, steps [][]txn.ItemID) int {
	t.Helper()
	c := conflationPool.Get().(*conflation)
	defer c.release()
	var ref refConflation
	for k, raw := range steps {
		c.add(a, raw)
		got := c.transaction(a)
		ref.add(b, raw)
		want := ref.transaction(b)
		if !slices.Equal(got.Items, want.Items) || a.Len() != b.Len() {
			t.Fatalf("%s step %d: conflated %v (table %d), reference %v (table %d)", label, k, got.Items, a.Len(), want.Items, b.Len())
		}
	}
	return len(steps)
}

// sameWork fails unless two contexts did the same similarity work. Cache
// hits are left out: the per-scratch memo in front of the path cache answers
// some probes, and which ones depends on the pooled scratch a pass borrows.
func sameWork(t *testing.T, label string, a, b *sim.Context) {
	t.Helper()
	ca, cb := &a.Counters, &b.Counters
	for _, f := range []struct {
		name string
		x, y int64
	}{
		{"ItemSims", ca.ItemSims.Load(), cb.ItemSims.Load()},
		{"PathSims", ca.PathSims.Load(), cb.PathSims.Load()},
		{"TxnSims", ca.TxnSims.Load(), cb.TxnSims.Load()},
		{"CacheMisses", ca.CacheMisses.Load(), cb.CacheMisses.Load()},
	} {
		if f.x != f.y {
			t.Errorf("%s: %s %d, reference %d", label, f.name, f.x, f.y)
		}
	}
}

// rankBoth ranks with the view on a and with the reference on b, and fails
// unless the rankings agree and each asked the path cache the same number of
// Eq. 3 probes with the same hits (ranking asks the cache directly).
func rankBoth(t *testing.T, label string, a, b *sim.Context, view, ref func() []rankedItem) []rankedItem {
	t.Helper()
	ha, ma := a.Counters.CacheHits.Load(), a.Counters.CacheMisses.Load()
	hb, mb := b.Counters.CacheHits.Load(), b.Counters.CacheMisses.Load()
	got, want := view(), ref()
	sameRanking(t, label, got, want)
	ha, ma = a.Counters.CacheHits.Load()-ha, a.Counters.CacheMisses.Load()-ma
	hb, mb = b.Counters.CacheHits.Load()-hb, b.Counters.CacheMisses.Load()-mb
	if ha != hb || ma != mb {
		t.Fatalf("%s: %d hits and %d misses of the path cache, reference %d and %d", label, ha, ma, hb, mb)
	}
	return got
}

// rankingCase is one corpus shape: build returns a fresh copy each call.
type rankingCase struct {
	name  string
	build func() *txn.Corpus
}

// TestRankingMatchesReference: the relocate fixture's corpus and four
// generated collections, each × f ∈ {0, 0.5, 1} × γ ∈ {0.3, 0.8}. The
// clusters are what a relocation against random initial representatives
// yields plus the whole collection; the global inputs are their local
// representatives, synthetic items and all. Every ranking is compared, then
// conflation along both batch schedules of generateTreeTuple (ties only;
// ties and the minimum fill) over the whole ranked list.
func TestRankingMatchesReference(t *testing.T) {
	cases := []rankingCase{{"relocate fixture", func() *txn.Corpus {
		col := dataset.DBLP(dataset.Spec{Docs: 64, Seed: 7})
		return col.BuildCorpus(dataset.ByHybrid, 32, 1)
	}}}
	for _, ds := range []struct {
		name string
		docs int
	}{{"DBLP", 30}, {"IEEE", 3}, {"Shakespeare", 2}, {"Wikipedia", 24}} {
		gen, _ := dataset.ByName(ds.name)
		cases = append(cases, rankingCase{ds.name, func() *txn.Corpus {
			return gen(dataset.Spec{Docs: ds.docs, Seed: 13}).BuildCorpus(dataset.ByHybrid, 16, 1)
		}})
	}
	zeroNorm, rankings, steps := 0, 0, 0
	for _, rc := range cases {
		for _, f := range []float64{0, 0.5, 1} {
			for _, gamma := range []float64{0.3, 0.8} {
				label := fmt.Sprintf("%s f=%v γ=%v", rc.name, f, gamma)
				p := sim.Params{F: f, Gamma: gamma}
				ca, cb := rc.build(), rc.build()
				cxa, cxb := sim.NewContext(ca, p), sim.NewContext(cb, p)
				sa, sb := ca.Transactions, cb.Transactions
				if len(sa) > 60 {
					sa, sb = sa[:60], sb[:60]
				}
				assign := flatRelocate(t, cxa, sa, SelectInitial(sa, 4, rand.New(rand.NewSource(3))), 1)
				flatRelocate(t, cxb, sb, SelectInitial(sb, 4, rand.New(rand.NewSource(3))), 1)
				clustersA, clustersB := [][]*txn.Transaction{sa}, [][]*txn.Transaction{sb}
				for j := 0; j < 4; j++ {
					var ma, mb []*txn.Transaction
					for i, a := range assign {
						if a == j {
							ma, mb = append(ma, sa[i]), append(mb, sb[i])
						}
					}
					if len(ma) > 0 {
						clustersA, clustersB = append(clustersA, ma), append(clustersB, mb)
					}
				}

				var localsA, localsB []WeightedRep
				for ci := range clustersA {
					l := fmt.Sprintf("%s cluster %d", label, ci)
					got := rankBoth(t, l, cxa, cxb,
						func() []rankedItem { return viewLocalRanking(cxa, clustersA[ci]) },
						func() []rankedItem { return refLocalRanking(cxb, clustersB[ci]) })
					rankings++
					for _, ri := range got {
						if ca.Items.Get(ri.id).Vector.Norm() == 0 {
							zeroNorm++
						}
					}
					minBatch := max(1, len(got)/(4*(txn.MaxTransactionLen(clustersA[ci])+1)))
					for _, mb := range []int{1, minBatch} {
						steps += sameConflation(t, l, ca.Items, cb.Items, batches(ca.Items, got, mb))
					}
					// Both twins intern the same representatives: the global inputs.
					ra := ComputeLocalRepresentative(RepConfig{Ctx: cxa}, clustersA[ci])
					rb := ComputeLocalRepresentative(RepConfig{Ctx: cxb}, clustersB[ci])
					localsA = append(localsA, WeightedRep{Rep: ra, Weight: len(clustersA[ci])})
					localsB = append(localsB, WeightedRep{Rep: rb, Weight: len(clustersB[ci])})
				}
				got := rankBoth(t, label+" global", cxa, cxb,
					func() []rankedItem { return viewGlobalRanking(cxa, localsA) },
					func() []rankedItem { return refGlobalRanking(cxb, localsB) })
				rankings++
				synthetic := 0
				for _, ri := range got {
					if ca.Items.Get(ri.id).Synthetic {
						synthetic++
					}
				}
				if synthetic == 0 {
					t.Errorf("%s: the global ranking holds no synthetic item", label)
				}
				steps += sameConflation(t, label+" global", ca.Items, cb.Items, batches(ca.Items, got, 1))
				sameWork(t, label, cxa, cxb)
			}
		}
	}
	if zeroNorm == 0 {
		t.Error("no ranked item had a zero-norm vector")
	}
	t.Logf("%d rankings, %d conflation steps, %d zero-norm items ranked", rankings, steps, zeroNorm)
}

// TestRankingZeroNormWithTerms: an item whose vector has terms but a norm
// that underflows to 0 stays out of the content sums, as it did. The
// generated corpora's zero-norm items have no terms at all, so only this case
// tells "skipped" from "added".
func TestRankingZeroNormWithTerms(t *testing.T) {
	twin := func() (*sim.Context, []*txn.Transaction) {
		corpus := twoTopicDocs(t, 3)
		tab, trs := corpus.Items, corpus.Transactions[:3]
		var src, dst *txn.Item
		for _, id := range trs[1].Items {
			if it := tab.Get(id); it.Vector.Len() > 0 {
				src = it
			}
		}
		for _, id := range trs[0].Items {
			if dst == nil && id != src.ID {
				dst = tab.Get(id)
			}
		}
		// src's terms at weights whose squares underflow.
		var tiny []vector.Entry
		for _, e := range src.Vector.Entries() {
			tiny = append(tiny, vector.Entry{Term: e.Term, Weight: e.Weight * 1e-200})
		}
		tab.SetVector(dst.ID, vector.FromEntries(tiny))
		if v := tab.Get(dst.ID).Vector; v.Norm() != 0 || v.Len() == 0 {
			t.Fatalf("item %d: %d terms, norm %v; want terms and a zero norm", dst.ID, v.Len(), v.Norm())
		}
		return sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6}), trs
	}
	cxa, ca := twin()
	cxb, cb := twin()
	rankBoth(t, "zero norm with terms", cxa, cxb,
		func() []rankedItem { return viewLocalRanking(cxa, ca) },
		func() []rankedItem { return refLocalRanking(cxb, cb) })
}

// TestConflationAnswersAcrossSteps grows one path group over several steps on
// twin tables where the group holds an item whose answer is "" (parsing never
// makes one; the table accepts it) and ids repeat from step to step, so the
// key must leave "" out, keep answers sorted whatever order they arrive in,
// and ignore an id it has seen.
func TestConflationAnswersAcrossSteps(t *testing.T) {
	twin := func() (*txn.ItemTable, []txn.ItemID) {
		corpus := twoTopicDocs(t, 4)
		tab := corpus.Items
		// The four paper names share a path; ⟨that path, ""⟩ joins them.
		name := tab.Get(corpus.Transactions[0].Items[0]).Path
		var ids []txn.ItemID
		for _, tr := range corpus.Transactions[:4] {
			for _, id := range tr.Items {
				if tab.Get(id).Path == name {
					ids = append(ids, id)
				}
			}
		}
		return tab, append(ids, tab.Intern(name, ""))
	}
	a, ids := twin()
	b, idsB := twin()
	if !slices.Equal(ids, idsB) || len(ids) != 5 {
		t.Fatalf("twin tables differ or the path holds %d items, want 5", len(ids))
	}
	// Answers arrive descending and "" mid-way; ids repeat across steps.
	steps := [][]txn.ItemID{{ids[3]}, {ids[4], ids[1]}, {ids[3], ids[4]}, {ids[0], ids[2]}, {ids[1]}}
	sameConflation(t, "one path", a, b, steps)
	// A group of the "" item and one other conflates to that other item.
	if got := ConflateItems(a, []txn.ItemID{ids[4], ids[2]}); !slices.Equal(got.Items, []txn.ItemID{ids[2]}) {
		t.Errorf("⟨p, \"\"⟩ with item %d conflated to %v, want the item itself", ids[2], got.Items)
	}
}
