// Package cluster implements the cluster-representative machinery of
// Fig. 6 — ComputeLocalRepresentative, ComputeGlobalRepresentative,
// GenerateTreeTuple and conflateItems — and the relocate→refine round body
// of Fig. 5 the distributed algorithms build on.
//
// # The round engine
//
// Rounds (rounds.go) is the one copy of that body: Assign relocates the
// run's transactions against a representative set, LocalReps and GlobalRep
// refine representatives, Objective reads the clustering objective off the
// last relocation. It comes in two modes with one job each. The fast engine
// serves, and is two things: posting-list scoring, and one memo carried
// between rounds — the local representative of every cluster, keyed by the
// fingerprint and size of its membership. The reference engine specifies: the
// dense kernel, nothing carried. For any call sequence both give the same
// bytes, including the lowest-index tie rule (TestRoundsTierMatrix). The
// CXK-means session and the PK-means peer drive it; the centralized algorithm
// of [33,32] is a session with one peer.
// Underneath sit one batch relocation (RelocateScores) and one
// single-transaction scan (RelocateOneIndexed), which the serving layer's
// classify path shares.
//
// # Refinement
//
// GenerateTreeTuple evaluates Σ_{tr∈C} simγJ(tr, rep′) once per greedy step.
// The fast engine indexes what stays fixed across the steps, the cluster:
// sim.MemberIndex holds the members' distinct items as one posting file and,
// per item, the member rows that carry it. A step sweeps only the items of
// rep′ that are new (a path group that did not grow keeps its item id, hence
// its column of γ-reaching Eq. 1 values), scatters the columns over the
// holders and evaluates each member from its exact pairs: (new columns × their
// postings) + (pairs that reach γ). It is exact because a pair's shared terms
// are met in ascending order whichever vector is walked, so products add up
// in vector.Dot's order; because marks and the common-id correction are
// re-derived from exact pair values every step; and because the sum over
// members is serial and in member order (TestRefinementObjectiveStepByStep).
// Nothing forks inside a representative — its work items cost about a
// microsecond, less than a goroutine — so RepConfig.Workers bounds relocation
// only.
package cluster

import (
	"cmp"
	"slices"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// ReturnRule selects how GenerateTreeTuple resolves the greedy-refinement
// ambiguities in Fig. 6 (see DESIGN.md).
//
// The pseudocode batches items by equal rank and stops at the first
// objective decrease. With the paper's integer frequency ranks the batches
// are large; with our continuous (content-weighted) ranks they degenerate
// to singletons and the first-decrease stop truncates representatives
// after one or two items. ReturnBestObjective therefore implements the
// prose reading ("until the sum of pairwise similarities … cannot be
// further maximized"): grow the representative up to the |trmax| size
// bound and return the refinement with the maximum objective. The two
// literal readings are kept for the ablation benchmark.
type ReturnRule int

const (
	// ReturnBestObjective grows to the size bound and returns the argmax
	// objective refinement (default).
	ReturnBestObjective ReturnRule = iota
	// ReturnLastImproving stops at the first objective decrease and returns
	// the most recent refinement whose objective did not decrease.
	ReturnLastImproving
	// ReturnPrevious returns `rep` verbatim as written in Fig. 6, i.e. the
	// representative from the iteration before the loop exited.
	ReturnPrevious
)

// RepConfig bundles what representative computation needs.
type RepConfig struct {
	Ctx  *sim.Context
	Rule ReturnRule
	// Workers bounds the goroutines of a relocation pass (Rounds.Assign;
	// 0/negative = one per CPU, 1 = serial), with byte-identical output for
	// any value. Computing a representative forks nothing: ranking and every
	// refinement step are serial, whatever Workers says.
	Workers int
	// dense makes the refinement objective run the dense Eq. 4 kernel per
	// member per step instead of the member index. A reference Rounds sets it,
	// so that a reference run is the dense kernel end to end; the zero
	// RepConfig scores through postings.
	dense bool
	// observe, when set, is told every refinement step's candidate and its
	// objective value (the step-by-step equivalence tests).
	observe func(rep *txn.Transaction, objective float64)
}

// rankedItem pairs an item with its rank value.
type rankedItem struct {
	id   txn.ItemID
	rank float64
}

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

// distinctItems returns the union of items over the transactions, sorted by
// id (the set IC of Fig. 6).
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
	return items
}

// ComputeLocalRepresentative implements the homonymous function of Fig. 6:
// rank every item of the cluster by f·rankS + (1−f)·rankC and greedily grow
// a tree-tuple-shaped representative. A nil result means the cluster was
// empty.
func ComputeLocalRepresentative(cfg RepConfig, c []*txn.Transaction) *txn.Transaction {
	if len(c) == 0 {
		return nil
	}
	cx := cfg.Ctx
	items := distinctItems(c, cx.Items)
	if len(items) == 0 {
		return nil
	}
	rankS := structuralRanks(cx, items)
	csum := contentRankSums(items)
	f := cx.Params.F
	ranked := make([]rankedItem, len(items))
	for i, it := range items {
		r := f*rankS[it.TagPath] + (1-f)*contentRank(it, csum)
		ranked[i] = rankedItem{id: it.ID, rank: r}
	}
	sortRanked(ranked)
	return generateTreeTuple(cfg, ranked, c)
}

// WeightedRep is a local representative with its cluster size |C_i_j|, as
// exchanged between peers.
type WeightedRep struct {
	Rep    *txn.Transaction
	Weight int
}

// ComputeGlobalRepresentative implements the Fig. 6 function: it merges the
// per-node local representatives of one cluster, weighting item ranks by
// the summed sizes of the clusters whose representatives carry the item.
func ComputeGlobalRepresentative(cfg RepConfig, reps []WeightedRep) *txn.Transaction {
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
	cx := cfg.Ctx
	items := distinctItems(trs, cx.Items)
	rankS := structuralRanks(cx, items)
	csum := contentRankSums(items)
	f := cx.Params.F
	ranked := make([]rankedItem, len(items))
	for i, it := range items {
		base := f*rankS[it.TagPath] + (1-f)*contentRank(it, csum)
		ranked[i] = rankedItem{id: it.ID, rank: float64(weightOf[it.ID]) * base}
	}
	sortRanked(ranked)
	return generateTreeTuple(cfg, ranked, trs)
}

// sortRanked orders by rank descending, breaking ties by item id for
// determinism. Ids in a ranking are distinct, so the order is total.
func sortRanked(r []rankedItem) {
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

// generateTreeTuple implements GenerateTreeTuple of Fig. 6. ranked must be
// sorted by descending rank. c supplies |trmax| and the refinement
// objective Σ_{tr∈C} simγJ(tr, rep′).
func generateTreeTuple(cfg RepConfig, ranked []rankedItem, c []*txn.Transaction) *txn.Transaction {
	cx := cfg.Ctx
	trmax := txn.MaxTransactionLen(c)
	// The objective Σ_{tr∈C} simγJ(tr, rep′), once per refinement step. The
	// members are fixed for the whole refinement and rep′ changes by a few
	// items a step, so the cluster is indexed once (sim.MemberIndex, in a
	// pooled scratch) and a step scores only the items of rep′ that are new —
	// bit-identical to the dense kernel per member, which runs instead where
	// the index cannot serve or cfg.dense is set. Either way the sum is serial
	// and in member order.
	sc := sim.BorrowScratch()
	defer sc.Release()
	var mx *sim.MemberIndex
	if !cfg.dense {
		mx = sc.Members(cx, c)
	}
	objective := func(rep *txn.Transaction) float64 {
		s := 0.0
		if mx != nil {
			s = mx.Objective(rep)
		} else {
			for _, tr := range c {
				s += cx.Transactions(tr, rep, sc)
			}
		}
		if cfg.observe != nil {
			cfg.observe(rep, s)
		}
		return s
	}
	// Batch size: rank ties always travel together; under
	// ReturnBestObjective batches additionally have a minimum size so the
	// number of objective evaluations stays O(trmax), as with the paper's
	// coarse frequency ranks.
	minBatch := 1
	if cfg.Rule == ReturnBestObjective {
		if b := len(ranked) / (4 * (trmax + 1)); b > minBatch {
			minBatch = b
		}
	}

	var (
		chosen  conflation // the raw constituent ids accumulated so far
		rep     = txn.NewTransaction(nil, -1, -1, -1)
		repPrev *txn.Transaction
		s, sNew float64
		bestRep *txn.Transaction
		bestS   = -1.0
		lastNew *txn.Transaction
	)
	i := 0
	for i < len(ranked) {
		// I*C: the batch of items tied at the current highest rank (plus
		// the minimum batch fill under ReturnBestObjective).
		j := i + 1
		for j < len(ranked) && (ranked[j].rank == ranked[j-1].rank || j-i < minBatch) {
			j++
		}
		repPrev = rep
		s = sNew
		for _, ri := range ranked[i:j] {
			chosen.add(cx.Items, cx.Items.Get(ri.id).Flatten())
		}
		i = j
		repNew := chosen.transaction(cx.Items)
		lastNew = repNew
		if cfg.Rule == ReturnBestObjective {
			if repNew.Len() > trmax && bestRep != nil {
				break // size bound reached; keep the best so far
			}
			sNew = objective(repNew)
			if sNew > bestS {
				bestS, bestRep = sNew, repNew
			}
			rep = repNew
			continue
		}
		sNew = objective(repNew)
		rep = repNew
		// Loop exit per Fig. 6: |rep| > |trmax| ∨ s′ < s. On both exits the
		// previous representative is the right result: it is smaller (size
		// guard) or strictly better (objective decreased).
		if repPrev.Len() > trmax || sNew < s {
			return nonEmpty(repPrev, rep)
		}
	}
	switch cfg.Rule {
	case ReturnBestObjective:
		return nonEmpty(bestRep, lastNew)
	case ReturnPrevious:
		// Fig. 6 as written returns `rep` — the refinement from the
		// iteration before IC was exhausted.
		return nonEmpty(repPrev, rep)
	default:
		return rep
	}
}

// nonEmpty guards against returning the initial empty representative when a
// non-empty refinement exists.
func nonEmpty(preferred, fallback *txn.Transaction) *txn.Transaction {
	if preferred != nil && preferred.Len() > 0 {
		return preferred
	}
	return fallback
}

// ConflateItems implements the conflateItems procedure of Fig. 6: the input
// raw item ids are grouped by complete path; each group becomes one item
// whose content is the union of the group's contents (answers unioned,
// TCU vectors summed over distinct constituents). Groups of one reuse the
// raw item itself. The result is a synthetic transaction in tree-tuple form
// (every path distinct).
func ConflateItems(tab *txn.ItemTable, rawIDs []txn.ItemID) *txn.Transaction {
	var c conflation
	c.add(tab, rawIDs)
	return c.transaction(tab)
}

// conflation is a growing conflateItems input: the per-path groups of the raw
// ids added so far, with the item each group conflated to last time.
// generateTreeTuple conflates a growing id set once per refinement step;
// carrying the groups across steps re-merges only the groups that grew.
type conflation struct {
	seen   map[txn.ItemID]struct{}
	byPath map[xmltree.PathID]*pathGroup
	paths  []xmltree.PathID // first-seen order: the order new items intern in
}

type pathGroup struct {
	ids  []txn.ItemID
	item txn.ItemID // what ids conflate to; valid unless grew
	grew bool
}

// add puts raw item ids into their path groups; ids already present are
// ignored.
func (c *conflation) add(tab *txn.ItemTable, rawIDs []txn.ItemID) {
	if c.seen == nil {
		c.seen = map[txn.ItemID]struct{}{}
		c.byPath = map[xmltree.PathID]*pathGroup{}
	}
	for _, id := range rawIDs {
		if _, dup := c.seen[id]; dup {
			continue
		}
		c.seen[id] = struct{}{}
		p := tab.Get(id).Path
		g := c.byPath[p]
		if g == nil {
			g = &pathGroup{}
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
func (c *conflation) transaction(tab *txn.ItemTable) *txn.Transaction {
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
