package cluster

import (
	"cmp"
	"slices"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// This file keeps the map-and-merge ranking and conflation that the pooled
// view replaced, verbatim, as the oracle of ranking_test.go: the set IC by
// concatenate-sort-compact, rankS through three maps, rankC as vector.Dot
// against a vector.Collect'ed sum, and conflation grouping through two maps
// with a txn.MergedAnswerKey per grown group. Only names that the package
// still uses for the new code carry a ref prefix (sortRanked, conflation,
// pathGroup); bodies are unchanged but for distinctItems, which puts a job's
// own items in content order, as the ranking now sums them.

// structuralRanks computes rankS(e) = Σ{h : group p' with simS(e,·) ≥ γ}/|PC|
// for every item of IC, where the groups are IC's distinct complete paths
// and h their item counts (the set PC of Fig. 6). simS depends only on tag
// paths, so the integer sum is computed once per distinct tag path — against
// the per-tag-path totals of h — and shared by the items under it.
func structuralRanks(cx *sim.Context, items []*txn.Item) map[xmltree.PathID]float64 {
	paths := map[xmltree.PathID]struct{}{}
	hByTag := map[xmltree.PathID]int{}
	var tags []xmltree.PathID // first-seen order
	for _, it := range items {
		paths[it.Path] = struct{}{}
		if _, ok := hByTag[it.TagPath]; !ok {
			tags = append(tags, it.TagPath)
		}
		hByTag[it.TagPath]++
	}
	gamma := cx.Params.Gamma
	ranks := make(map[xmltree.PathID]float64, len(tags))
	for _, tp := range tags {
		sum := 0
		for _, tq := range tags {
			if cx.TagPathSim(tp, tq) >= gamma {
				sum += hByTag[tq]
			}
		}
		ranks[tp] = float64(sum) / float64(len(paths))
	}
	return ranks
}

// contentRankSums precomputes Σ_{e'∈I} normalized(u_{e'}) so that
// rankC(e) = Σ_{e'} cos(u_e,u_{e'}) = normalized(u_e)·Σ — turning the
// quadratic cosine pass of Fig. 6 into a linear one.
func contentRankSums(items []*txn.Item) vector.Sparse {
	n := 0
	for _, it := range items {
		n += it.Vector.Len()
	}
	parts := make([]vector.Entry, 0, n)
	for _, it := range items {
		norm := it.Vector.Norm()
		if norm == 0 {
			continue
		}
		for _, e := range it.Vector.Entries() {
			parts = append(parts, vector.Entry{Term: e.Term, Weight: e.Weight / norm})
		}
	}
	return vector.Collect(parts)
}

func contentRank(e *txn.Item, sum vector.Sparse) float64 {
	n := e.Vector.Norm()
	if n == 0 {
		return 0
	}
	return vector.Dot(e.Vector, sum) / n
}

// distinctItems returns the union of items over the transactions (the set IC
// of Fig. 6): those below the table's base by id, then its own by their
// flattened raw constituents.
func distinctItems(trs []*txn.Transaction, tab *txn.ItemTable) []*txn.Item {
	n := 0
	for _, tr := range trs {
		n += len(tr.Items)
	}
	ids := make([]txn.ItemID, 0, n)
	for _, tr := range trs {
		ids = append(ids, tr.Items...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	items := make([]*txn.Item, len(ids))
	tab.Resolve(ids, items)
	own, _ := slices.BinarySearch(ids, tab.Base())
	slices.SortFunc(items[own:], func(a, b *txn.Item) int {
		return slices.Compare(a.Flatten(), b.Flatten())
	})
	return items
}

// refLocalRanking is ComputeLocalRepresentative's ranking as it was.
func refLocalRanking(cx *sim.Context, c []*txn.Transaction) []rankedItem {
	items := distinctItems(c, cx.Items)
	rankS := structuralRanks(cx, items)
	csum := contentRankSums(items)
	f := cx.Params.F
	ranked := make([]rankedItem, len(items))
	for i, it := range items {
		r := f*rankS[it.TagPath] + (1-f)*contentRank(it, csum)
		ranked[i] = rankedItem{id: it.ID, rank: r}
	}
	refSortRanked(ranked)
	return ranked
}

// refGlobalRanking is ComputeGlobalRepresentative's ranking as it was.
func refGlobalRanking(cx *sim.Context, reps []WeightedRep) []rankedItem {
	var trs []*txn.Transaction
	weightOf := map[txn.ItemID]int{}
	for _, wr := range reps {
		if wr.Rep == nil || wr.Rep.Len() == 0 {
			continue
		}
		trs = append(trs, wr.Rep)
		for _, id := range wr.Rep.Items {
			weightOf[id] += wr.Weight
		}
	}
	if len(trs) == 0 {
		return nil
	}
	items := distinctItems(trs, cx.Items)
	rankS := structuralRanks(cx, items)
	csum := contentRankSums(items)
	f := cx.Params.F
	ranked := make([]rankedItem, len(items))
	for i, it := range items {
		base := f*rankS[it.TagPath] + (1-f)*contentRank(it, csum)
		ranked[i] = rankedItem{id: it.ID, rank: float64(weightOf[it.ID]) * base}
	}
	refSortRanked(ranked)
	return ranked
}

// refSortRanked orders by rank descending, breaking ties by item id for
// determinism. Ids in a ranking are distinct, so the order is total.
func refSortRanked(r []rankedItem) {
	slices.SortFunc(r, func(a, b rankedItem) int {
		switch {
		case a.rank > b.rank:
			return -1
		case a.rank < b.rank:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
}

// refConflation is a growing conflateItems input: the per-path groups of the raw
// ids added so far, with the item each group conflated to last time.
// generateTreeTuple conflates a growing id set once per refinement step;
// carrying the groups across steps re-merges only the groups that grew.
type refConflation struct {
	seen   map[txn.ItemID]struct{}
	byPath map[xmltree.PathID]*refPathGroup
	paths  []xmltree.PathID // first-seen order: the order new items intern in
}

type refPathGroup struct {
	ids  []txn.ItemID
	item txn.ItemID // what ids conflate to; valid unless grew
	grew bool
}

// add puts raw item ids into their path groups; ids already present are
// ignored.
func (c *refConflation) add(tab *txn.ItemTable, rawIDs []txn.ItemID) {
	if c.seen == nil {
		c.seen = map[txn.ItemID]struct{}{}
		c.byPath = map[xmltree.PathID]*refPathGroup{}
	}
	for _, id := range rawIDs {
		if _, dup := c.seen[id]; dup {
			continue
		}
		c.seen[id] = struct{}{}
		p := tab.Get(id).Path
		g := c.byPath[p]
		if g == nil {
			g = &refPathGroup{}
			c.byPath[p] = g
			c.paths = append(c.paths, p)
		}
		g.ids = append(g.ids, id)
		g.grew = true
	}
}

// transaction conflates the groups into a tree-tuple-form transaction. A
// group that grew is merged afresh — constituents in ascending id order, so
// the summed vector has the bits a one-shot conflation gives it — unless the
// content-addressed item it merges to is interned already, which the
// (path, merged answer key) lookup tells before any vector is summed.
func (c *refConflation) transaction(tab *txn.ItemTable) *txn.Transaction {
	out := make([]txn.ItemID, 0, len(c.paths))
	for _, p := range c.paths {
		g := c.byPath[p]
		if g.grew {
			g.grew = false
			g.item = conflateGroup(tab, p, g.ids)
		}
		out = append(out, g.item)
	}
	return txn.NewTransaction(out, -1, -1, -1)
}

// conflateGroup returns the item the raw ids at one complete path conflate
// to, sorting ids in place.
func conflateGroup(tab *txn.ItemTable, p xmltree.PathID, ids []txn.ItemID) txn.ItemID {
	if len(ids) == 1 {
		return ids[0]
	}
	slices.Sort(ids)
	items := make([]*txn.Item, len(ids))
	tab.Resolve(ids, items)
	answers := make([]string, len(ids))
	for i, it := range items {
		answers[i] = it.Answer
	}
	key := txn.MergedAnswerKey(answers)
	if id, ok := tab.Lookup(p, key); ok {
		return id
	}
	n := 0
	for _, it := range items {
		n += it.Vector.Len()
	}
	parts := make([]vector.Entry, 0, n)
	for _, it := range items {
		parts = append(parts, it.Vector.Entries()...)
	}
	return tab.InternSynthetic(p, key, vector.Collect(parts), ids)
}
