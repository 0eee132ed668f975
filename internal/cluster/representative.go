// Package cluster implements the cluster-representative machinery of
// Fig. 6 — ComputeLocalRepresentative, ComputeGlobalRepresentative,
// GenerateTreeTuple and conflateItems — together with the centralized
// XML transactional K-means variant the distributed algorithm builds on.
//
// # The round engine
//
// Rounds (rounds.go) is the one copy of the relocate→refine round body:
// Assign relocates the run's transactions against a representative set,
// LocalReps and GlobalRep refine representatives. It owns what the speed
// tiers (Tiers) carry between rounds — the representative index, the
// membership-fingerprinted representative memos and the per-document
// relocation anchors — under a byte-identity contract: for any call
// sequence and any tier selection, results equal the flat, memo-free
// computation exactly, including the lowest-index tie rule. XKMeans, the
// CXK-means session and the PK-means peer all drive it. Underneath sit one
// batch relocation (RelocateCtxIndexed / RelocateScores) and one
// single-transaction scan (RelocateOneIndexed), which the serving layer's
// classify path shares.
package cluster

import (
	"sort"

	"xmlclust/internal/parallel"
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
	// Workers bounds the goroutines used for item ranking and refinement
	// objectives (0/negative = one per CPU, 1 = serial). The output is
	// byte-identical for any value: ranks are written into pre-indexed
	// slots and objective sums are reduced in index order.
	Workers int
}

// rankedItem pairs an item with its rank value.
type rankedItem struct {
	id   txn.ItemID
	rank float64
}

// pathGroups indexes a set of items by their complete path, recording the
// per-path item count h (the set PC/PT of Fig. 6).
type pathGroups struct {
	counts map[xmltree.PathID]int
	// tagOf caches the tag path of each complete path present.
	tagOf map[xmltree.PathID]xmltree.PathID
}

func groupByPath(items []*txn.Item) pathGroups {
	pg := pathGroups{counts: map[xmltree.PathID]int{}, tagOf: map[xmltree.PathID]xmltree.PathID{}}
	for _, it := range items {
		pg.counts[it.Path]++
		pg.tagOf[it.Path] = it.TagPath
	}
	return pg
}

// structuralRank computes rankS(e) = Σ{h : group p' with simS(e,·) ≥ γ}/|PC|.
// simS depends only on tag paths, so the sum runs over distinct paths.
func structuralRank(cx *sim.Context, e *txn.Item, pg pathGroups) float64 {
	if len(pg.counts) == 0 {
		return 0
	}
	gamma := cx.Params.Gamma
	sum := 0
	for p, h := range pg.counts {
		if cx.TagPathSim(e.TagPath, pg.tagOf[p]) >= gamma {
			sum += h
		}
	}
	return float64(sum) / float64(len(pg.counts))
}

// contentRankSums precomputes Σ_{e'∈I} normalized(u_{e'}) so that
// rankC(e) = Σ_{e'} cos(u_e,u_{e'}) = normalized(u_e)·Σ — turning the
// quadratic cosine pass of Fig. 6 into a linear one.
func contentRankSums(items []*txn.Item) vector.Sparse {
	acc := map[int32]float64{}
	for _, it := range items {
		n := it.Vector.Norm()
		if n == 0 {
			continue
		}
		for _, e := range it.Vector.Entries() {
			acc[e.Term] += e.Weight / n
		}
	}
	return vector.FromMap(acc)
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
	seen := map[txn.ItemID]struct{}{}
	for _, tr := range trs {
		for _, id := range tr.Items {
			seen[id] = struct{}{}
		}
	}
	ids := make([]txn.ItemID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	items := make([]*txn.Item, len(ids))
	for i, id := range ids {
		items[i] = tab.Get(id)
	}
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
	pg := groupByPath(items)
	csum := contentRankSums(items)
	f := cx.Params.F
	ranked := make([]rankedItem, len(items))
	parallel.For(cfg.Workers, len(items), func(i int) {
		it := items[i]
		r := f*structuralRank(cx, it, pg) + (1-f)*contentRank(it, csum)
		ranked[i] = rankedItem{id: it.ID, rank: r}
	})
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
	pg := groupByPath(items)
	csum := contentRankSums(items)
	f := cx.Params.F
	ranked := make([]rankedItem, len(items))
	parallel.For(cfg.Workers, len(items), func(i int) {
		it := items[i]
		base := f*structuralRank(cx, it, pg) + (1-f)*contentRank(it, csum)
		ranked[i] = rankedItem{id: it.ID, rank: float64(weightOf[it.ID]) * base}
	})
	sortRanked(ranked)
	return generateTreeTuple(cfg, ranked, trs)
}

// sortRanked orders by rank descending, breaking ties by item id for
// determinism.
func sortRanked(r []rankedItem) {
	sort.Slice(r, func(i, j int) bool {
		if r[i].rank != r[j].rank {
			return r[i].rank > r[j].rank
		}
		return r[i].id < r[j].id
	})
}

// generateTreeTuple implements GenerateTreeTuple of Fig. 6. ranked must be
// sorted by descending rank. c supplies |trmax| and the refinement
// objective Σ_{tr∈C} simγJ(tr, rep′).
func generateTreeTuple(cfg RepConfig, ranked []rankedItem, c []*txn.Transaction) *txn.Transaction {
	cx := cfg.Ctx
	trmax := txn.MaxTransactionLen(c)
	// The objective Σ_{tr∈C} simγJ(tr, rep′) is the hot spot of
	// representative generation: one transaction similarity per cluster
	// member per refinement step. The terms are independent, so they are
	// computed across the worker pool — each worker reusing one pooled
	// similarity Scratch across the whole refinement, so no step allocates —
	// and reduced in index order (the float sum must not depend on the
	// schedule).
	ws := sim.BorrowScratches(parallel.WorkerCount(cfg.Workers, len(c)))
	defer ws.Release()
	objective := func(rep *txn.Transaction) float64 {
		return parallel.SumWorkers(cfg.Workers, len(c), func(w, i int) float64 {
			return cx.Transactions(c[i], rep, ws.Worker(w))
		})
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
		chosen  []txn.ItemID // raw constituent ids accumulated so far
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
			chosen = append(chosen, cx.Items.Get(ri.id).Flatten()...)
		}
		i = j
		repNew := ConflateItems(cx.Items, chosen)
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
	byPath := map[xmltree.PathID][]txn.ItemID{}
	seen := map[txn.ItemID]struct{}{}
	var paths []xmltree.PathID
	for _, id := range rawIDs {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		p := tab.Get(id).Path
		if _, ok := byPath[p]; !ok {
			paths = append(paths, p)
		}
		byPath[p] = append(byPath[p], id)
	}
	out := make([]txn.ItemID, 0, len(paths))
	for _, p := range paths {
		group := byPath[p]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		sort.Slice(group, func(i, j int) bool { return group[i] < group[j] })
		answers := make([]string, len(group))
		merged := vector.Sparse{}
		for i, id := range group {
			it := tab.Get(id)
			answers[i] = it.Answer
			merged = vector.Add(merged, it.Vector)
		}
		key := txn.MergedAnswerKey(answers)
		out = append(out, tab.InternSynthetic(p, key, merged, group))
	}
	return txn.NewTransaction(out, -1, -1, -1)
}
