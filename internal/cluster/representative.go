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
// bytes, including the lowest-index tie rule (TestRoundsTierMatrix). The peer
// session drives it, for CXK-means and PK-means; the centralized algorithm
// of [33,32] is a session with one peer.
// Underneath sit one batch relocation (RelocateScores) and one
// single-transaction scan (RelocateOneIndexed), which the serving layer's
// classify path shares.
//
// # Ranking
//
// Both representative functions rank IC, the cluster's distinct items, through
// one pooled view of arrays indexed by item, tag-path, path and term id, and
// conflate through pooled path groups whose merged-answer keys stay sorted as
// ids arrive. Every rank and every conflated item has the bits of the
// map-and-merge code this replaced, kept verbatim in reference_test.go as the
// oracle; the argument sits beside each replacement. An array is zeroed by
// walking what one computation touched, grows with the table and has one
// borrower at a time: nothing is shared by concurrent jobs or carried over.
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
// Nothing forks inside a representative — its work items, ranking included,
// cost about a microsecond, less than a goroutine — so RepConfig.Workers
// bounds relocation only.
package cluster

import (
	"cmp"
	"slices"
	"strings"
	"sync"

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

// view is the pooled working state of one ranking. Between two rankings
// every id-indexed array is all zero.
type view struct {
	in     []bool       // item id → collected into IC
	weight []int        // item id → Σ weights of the representatives carrying it
	ids    []txn.ItemID // IC, ascending
	items  []*txn.Item  // IC's records

	seenPath []bool           // complete path id → met in IC
	tagSlot  []int32          // tag path id → slot + 1
	tags     []xmltree.PathID // slot → tag path, in the order IC meets them
	h        []int            // slot → IC's items under the tag path
	rankS    []float64        // slot → rankS
	sum      []float64        // term id → Σ_{e′∈IC} normalized(u_e′)
	ranked   []rankedItem
}

var viewPool = sync.Pool{New: func() any { return new(view) }}

// collect sets IC to the distinct items of trs, ascending by id: an id is
// stamped when first met, so only distinct ids are sorted.
func (v *view) collect(tab *txn.ItemTable, trs []*txn.Transaction) {
	ids := v.ids[:0]
	for _, tr := range trs {
		for _, id := range tr.Items {
			if v.in = fit(v.in, int(id)); !v.in[id] {
				v.in[id] = true
				ids = append(ids, id)
			}
		}
	}
	for _, id := range ids {
		v.in[id] = false
	}
	slices.Sort(ids)
	v.ids, v.items = ids, slices.Grow(v.items[:0], len(ids))[:len(ids)]
	tab.Resolve(ids, v.items)
}

// rank returns IC ranked by f·rankS + (1−f)·rankC (Fig. 6), each rank times
// the item's weight when weighted, in sortRanked's order. The slice lives in
// v.
func (v *view) rank(cx *sim.Context, weighted bool) []rankedItem {
	v.rankStructure(cx)
	v.sumContent()
	f := cx.Params.F
	ranked := v.ranked[:0]
	for _, it := range v.items {
		r := f*v.rankS[v.tagSlot[it.TagPath]-1] + (1-f)*v.content(it)
		if weighted {
			r = float64(v.weight[it.ID]) * r
			v.weight[it.ID] = 0
		}
		ranked = append(ranked, rankedItem{id: it.ID, rank: r})
	}
	v.ranked = ranked
	sortRanked(ranked)
	for _, tp := range v.tags {
		v.tagSlot[tp] = 0
	}
	for _, it := range v.items {
		if it.Vector.Norm() != 0 { // what sumContent added
			for _, e := range it.Vector.Entries() {
				v.sum[e.Term] = 0
			}
		}
	}
	return ranked
}

// rankStructure computes rankS(e) = Σ{h : group p' with simS(e,·) ≥ γ}/|PC|
// once per tag-path slot of IC, where the groups are IC's distinct complete
// paths and h their item counts (the set PC of Fig. 6); simS depends only on
// tag paths. Slots are numbered as IC, ascending, meets the tag paths, and
// Eq. 3 is asked for each ordered pair of slots in that order: the pairs and
// the order of the map-keyed ranking this replaced, so the path cache keeps
// the same orientations and every sim.Counters field moves as it did.
func (v *view) rankStructure(cx *sim.Context) {
	tags, h, paths := v.tags[:0], v.h[:0], 0
	for _, it := range v.items {
		if v.seenPath = fit(v.seenPath, int(it.Path)); !v.seenPath[it.Path] {
			v.seenPath[it.Path] = true
			paths++
		}
		if v.tagSlot = fit(v.tagSlot, int(it.TagPath)); v.tagSlot[it.TagPath] == 0 {
			tags, h = append(tags, it.TagPath), append(h, 0)
			v.tagSlot[it.TagPath] = int32(len(tags))
		}
		h[v.tagSlot[it.TagPath]-1]++
	}
	for _, it := range v.items {
		v.seenPath[it.Path] = false
	}
	v.tags, v.h, v.rankS = tags, h, v.rankS[:0]
	for _, tp := range tags {
		sum := 0
		for b, tq := range tags {
			if cx.TagPathSim(tp, tq) >= cx.Params.Gamma {
				sum += h[b]
			}
		}
		v.rankS = append(v.rankS, float64(sum)/float64(paths))
	}
}

// sumContent adds Σ_{e′∈IC} normalized(u_e′) up per term, so that
// rankC(e) = Σ_{e′} cos(u_e,u_e′) = normalized(u_e)·Σ: Fig. 6's quadratic
// cosine pass made linear. Each term's sum has the bits vector.Collect gave
// it: items come in id order, so the addends come in Collect's order, and a
// sum starts at 0, where 0 + x = x. Zero-norm items are skipped, as they were.
func (v *view) sumContent() {
	for _, it := range v.items {
		if norm := it.Vector.Norm(); norm != 0 {
			for _, e := range it.Vector.Entries() {
				v.sum = fit(v.sum, int(e.Term))
				v.sum[e.Term] += e.Weight / norm
			}
		}
	}
}

// content is rankC(e) = u_e·Σ / ‖u_e‖ with the bits vector.Dot gave against
// the collected sum. Every term of an item with a nonzero norm is in Σ, so
// walking e's terms in ascending order meets the terms Dot's merge walk
// shared, in its order, with the same rounded products; a term whose sum
// cancelled — dropped by Collect, skipped by Dot — reads 0 here and adds ±0,
// which leaves the running sum (never −0) as it was.
func (v *view) content(e *txn.Item) float64 {
	n := e.Vector.Norm()
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, en := range e.Vector.Entries() {
		s += float64(en.Weight * v.sum[en.Term]) // rounded before the add, as in Dot
	}
	return s / n
}

// fit returns s with index i valid: zero-extended, with headroom so that a
// run of fresh ids does not reallocate each time.
func fit[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	grown := make([]T, i+1+i/2)
	copy(grown, s)
	return grown
}

// ComputeLocalRepresentative implements the homonymous function of Fig. 6:
// rank every item of the cluster by f·rankS + (1−f)·rankC and greedily grow
// a tree-tuple-shaped representative. A nil result means the cluster was
// empty.
func ComputeLocalRepresentative(cfg RepConfig, c []*txn.Transaction) *txn.Transaction {
	v := viewPool.Get().(*view)
	v.collect(cfg.Ctx.Items, c)
	var rep *txn.Transaction
	if len(v.ids) > 0 {
		rep = generateTreeTuple(cfg, v.rank(cfg.Ctx, false), c)
	}
	viewPool.Put(v)
	return rep
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
	v := viewPool.Get().(*view)
	var rep *txn.Transaction
	if trs := v.collectReps(cfg.Ctx.Items, reps); len(trs) > 0 {
		rep = generateTreeTuple(cfg, v.rank(cfg.Ctx, true), trs)
	}
	viewPool.Put(v)
	return rep
}

// collectReps sets IC to the items of reps' non-empty representatives,
// weighs each by the summed weights of those carrying it, and returns those
// representatives.
func (v *view) collectReps(tab *txn.ItemTable, reps []WeightedRep) []*txn.Transaction {
	var trs []*txn.Transaction
	for _, wr := range reps {
		if wr.Rep != nil && wr.Rep.Len() > 0 {
			trs = append(trs, wr.Rep)
			for _, id := range wr.Rep.Items {
				v.weight = fit(v.weight, int(id))
				v.weight[id] += wr.Weight
			}
		}
	}
	v.collect(tab, trs)
	return trs
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
	chosen := conflationPool.Get().(*conflation) // the raw constituent ids accumulated so far
	rep := refine(cfg, ranked, c, chosen)
	chosen.release() // not deferred: a panic must not pool half-zeroed arrays
	return rep
}

func refine(cfg RepConfig, ranked []rankedItem, c []*txn.Transaction, chosen *conflation) *txn.Transaction {
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
			// An item adds its raw constituents: itself when raw (Item.Flatten).
			if it := cx.Items.Get(ri.id); it.Constituents == nil {
				chosen.addItem(it)
			} else {
				chosen.add(cx.Items, it.Constituents)
			}
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
	c := conflationPool.Get().(*conflation)
	c.add(tab, rawIDs)
	tr := c.transaction(tab)
	c.release()
	return tr
}

// conflation is a growing conflateItems input: the per-path groups of the raw
// ids added so far, with the item each group conflated to last time.
// generateTreeTuple conflates a growing id set once per refinement step;
// carrying the groups across steps re-merges only the groups that grew.
// release zeroes the id-indexed arrays by walking the groups.
type conflation struct {
	seen   []bool      // raw item id → in a group
	slot   []int32     // complete path id → group index + 1
	groups []pathGroup // first-met order: the order new items intern in
	items  []*txn.Item // a merged group's records
	out    []txn.ItemID
}

var conflationPool = sync.Pool{New: func() any { return new(conflation) }}

type pathGroup struct {
	path    xmltree.PathID
	ids     []txn.ItemID
	answers []string   // ids' distinct non-empty answers, ascending
	item    txn.ItemID // what ids conflate to; valid unless grew
	grew    bool
}

// add puts raw item ids into their path groups; ids already present are
// ignored.
func (c *conflation) add(tab *txn.ItemTable, rawIDs []txn.ItemID) {
	for _, id := range rawIDs {
		c.addItem(tab.Get(id))
	}
}

// addItem puts a raw item into its path group unless it is there. The
// group's answers stay the list txn.MergedAnswerKey makes of its items'
// answers — sorted, "" left out, each once — by insertion in place. (Raw ids
// at one path carry distinct answers anyway: items are interned by ⟨path,
// answer⟩.)
func (c *conflation) addItem(it *txn.Item) {
	if c.seen = fit(c.seen, int(it.ID)); c.seen[it.ID] {
		return
	}
	c.seen[it.ID] = true
	if c.slot = fit(c.slot, int(it.Path)); c.slot[it.Path] == 0 {
		c.groups = slices.Grow(c.groups, 1)[:len(c.groups)+1] // a group past len keeps its buffers
		g := &c.groups[len(c.groups)-1]
		g.path, g.ids, g.answers = it.Path, g.ids[:0], g.answers[:0]
		c.slot[it.Path] = int32(len(c.groups))
	}
	g := &c.groups[c.slot[it.Path]-1]
	g.ids, g.grew = append(g.ids, it.ID), true
	if k, dup := slices.BinarySearch(g.answers, it.Answer); it.Answer != "" && !dup {
		g.answers = slices.Insert(g.answers, k, it.Answer)
	}
}

// transaction conflates the groups into a tree-tuple-form transaction. A
// group that grew is merged afresh — constituents in ascending id order, so
// the summed vector has the bits a one-shot conflation gives it — unless the
// content-addressed item it merges to is interned already, which the
// (path, merged answer key) lookup tells before any vector is summed. The key
// is the group's answer list joined: txn.MergedAnswerKey of its answers.
func (c *conflation) transaction(tab *txn.ItemTable) *txn.Transaction {
	c.out = c.out[:0]
	for k := range c.groups {
		g := &c.groups[k]
		if g.grew {
			g.grew = false
			g.item = c.merge(tab, g)
		}
		c.out = append(c.out, g.item)
	}
	return txn.NewTransaction(c.out, -1, -1, -1)
}

func (c *conflation) merge(tab *txn.ItemTable, g *pathGroup) txn.ItemID {
	if len(g.ids) == 1 {
		return g.ids[0]
	}
	key := strings.Join(g.answers, "\x1f")
	if id, ok := tab.Lookup(g.path, key); ok {
		return id
	}
	slices.Sort(g.ids)
	c.items = slices.Grow(c.items[:0], len(g.ids))[:len(g.ids)]
	tab.Resolve(g.ids, c.items)
	n := 0
	for _, it := range c.items {
		n += it.Vector.Len()
	}
	parts := make([]vector.Entry, 0, n)
	for _, it := range c.items {
		parts = append(parts, it.Vector.Entries()...)
	}
	return tab.InternSynthetic(g.path, key, vector.Collect(parts), g.ids)
}

func (c *conflation) release() {
	for _, g := range c.groups {
		c.slot[g.path] = 0
		for _, id := range g.ids {
			c.seen[id] = false
		}
	}
	c.groups = c.groups[:0]
	conflationPool.Put(c)
}
