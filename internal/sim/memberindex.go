package sim

import "xmlclust/internal/txn"

// MemberIndex is the refinement objective of GenerateTreeTuple (Fig. 6),
// Σ_{tr∈C} simγJ(tr, rep′), indexed from the side that does not change: the
// cluster. Across the greedy steps of one representative the members are
// fixed and rep′ differs from its predecessor by the few items whose path
// group grew, so the index is built once per cluster and a step pays only
// for what is new.
//
// Scratch.Members collects the cluster's distinct items IC, indexes them as
// the one pseudo-representative of a RepIndex — tag paths, vector headers and
// norms from one ResolveColumns, postings term → (IC position, weight), the
// positions under each distinct tag path — and keeps, per IC position, the
// (member, row) pairs that hold the item. Objective sweeps the items of rep′
// that have no column yet through that index, one row each: an item's column
// is its Eq. 1 value against every IC position where that value reaches γ. It
// is computed once per distinct cluster item, not once per member row, and is
// a function of the item id alone, so an item rep′ keeps from the previous
// step keeps its column and a replaced item's column is dropped (live columns
// = |rep′|). The columns are then scattered over the holders into per-member
// pair lists and each member is scored by RepQuery.evaluate — maxima, tie
// marks and the common-id correction re-derived from exact pair values every
// step, nothing approximate carried — and the scores added in member order. A
// step costs (new columns × their postings) + (pairs that reach γ); no
// goroutine is forked for it.
//
// # Why it is exact
//
// A column is RepIndex.sweep with the roles swapped, and the swap commutes
// with every operation: a pair's shared terms are met in ascending order
// whichever vector is walked, so the rounded products (a commutative
// multiply) add up in vector.Dot's order; the cosine divides by the product
// of the same two norms; Eq. 3 keeps its operand order (RepIndex.fsim); skip,
// clamp and channel (b) are the same code. evaluate does not depend on the
// order of its pair list, and the serial sum skips only exact zeros.
//
// # Staleness contract
//
// The index captures vector headers for the length of one representative
// computation and never looks at ItemTable.VecVersion: nothing rewrites a
// vector meanwhile. Batch and session runs weight the corpus before
// clustering; serve holds its write lock across MaintenanceRound and Refresh,
// the only places it refines. Items, terms and tag paths interned meanwhile —
// refinement interns its own candidates — are sound as in RepIndex: the query
// side is resolved per sweep, and a new term has no posting.
type MemberIndex struct {
	ix      RepIndex
	ic      txn.Transaction // IC in first-met order: a position list, not a set to merge-walk
	one     [1]*txn.Transaction
	members []*txn.Transaction
	rq      *RepQuery // the owning scratch's: sweep state, pair list, evaluate buffers

	slot    []int32  // item id → IC position + 1 while building; all zero otherwise
	holdOff []int32  // CSR over IC positions into holders
	holders []holder // who holds the item at a position

	// Columns of the current and the previous step, in the order of rep′'s
	// items; column j owns ents[lo:hi].
	cols, prevCols []column
	ents, prevEnts []colEntry
	fresh          txn.Transaction // the items of rep′ still without a column
	freshAt        []int32         // their positions in rep′
	heads          []int32         // member → head of its pair list this step, -1 for none
}

type holder struct{ mem, row int32 }

type column struct {
	id     txn.ItemID
	lo, hi int32
}

type colEntry struct {
	pos int32 // IC position
	s   float64
}

// Members indexes the cluster members for a refinement and returns the
// objective over them, or nil where posting-list scoring cannot serve (γ ≤ 0)
// and the caller runs the dense kernel per member. The index
// lives in sc and is valid until the next call.
func (sc *Scratch) Members(cx *Context, members []*txn.Transaction) *MemberIndex {
	if !sweepable(cx) {
		return nil
	}
	mx := &sc.members
	mx.rq, mx.members = sc.Query(), members
	mx.cols, mx.ents = mx.cols[:0], mx.ents[:0]

	// IC in first-met order, and per position how many rows hold it; then the
	// holder lists, filled through the offsets (as RepIndex.Build fills its
	// postings).
	ids, off, maxLen := mx.ic.Items[:0], mx.holdOff[:0], 0
	for _, tr := range members {
		maxLen = max(maxLen, tr.Len())
		for _, id := range tr.Items {
			if int(id) >= len(mx.slot) {
				mx.slot = growMap(mx.slot, int(id))
			}
			if mx.slot[id] == 0 {
				ids, off = append(ids, id), append(off, 0)
				mx.slot[id] = int32(len(ids))
			}
			off[mx.slot[id]-1]++
		}
	}
	off = append(off, 0)
	mx.ic.Items, mx.holdOff = ids, off
	mx.holders = grow(mx.holders, int(exclusiveSums(off)))
	for m, tr := range members {
		for i, id := range tr.Items {
			p := mx.slot[id] - 1
			mx.holders[off[p]] = holder{mem: int32(m), row: int32(i)}
			off[p]++
		}
	}
	shiftBack(mx.holdOff)
	for _, id := range ids {
		mx.slot[id] = 0 // unmapped in O(what it held)
	}

	mx.one[0] = &mx.ic
	mx.ix.transposed = true
	mx.ix.Build(cx, mx.one[:])
	mx.rq.prepare(&mx.ix, maxLen, 0) // evaluate's row buffers hold any member
	mx.heads = grow(mx.heads, len(members))
	return mx
}

// Objective returns Σ simγJ(member, rep) over the indexed members in index
// order, each term bit-identical to Context.Transactions(member, rep).
// Counters: TxnSims moves by the members scored above zero, ItemSims by the
// pairs the new columns looked at.
func (mx *MemberIndex) Objective(rep *txn.Transaction) float64 {
	cx, rq := mx.ix.cx, mx.rq

	// Columns, in the order of rep's items: carried over from the previous
	// step where the item id is still there (both id lists ascend), swept
	// below where it is new.
	mx.cols, mx.prevCols = mx.prevCols[:0], mx.cols
	mx.ents, mx.prevEnts = mx.prevEnts[:0], mx.ents
	mx.fresh.Items, mx.freshAt = mx.fresh.Items[:0], mx.freshAt[:0]
	k := 0
	for j, id := range rep.Items {
		for k < len(mx.prevCols) && mx.prevCols[k].id < id {
			k++
		}
		lo := int32(len(mx.ents))
		if k < len(mx.prevCols) && mx.prevCols[k].id == id {
			mx.ents = append(mx.ents, mx.prevEnts[mx.prevCols[k].lo:mx.prevCols[k].hi]...)
		} else {
			mx.fresh.Items = append(mx.fresh.Items, id)
			mx.freshAt = append(mx.freshAt, int32(j))
		}
		mx.cols = append(mx.cols, column{id: id, lo: lo, hi: int32(len(mx.ents))})
	}
	if len(mx.fresh.Items) > 0 {
		// One row per new item; the sweep lists its pairs row by row, and with
		// one pseudo-representative a pair's column is its IC position.
		cx.Counters.ItemSims.Add(int64(mx.ix.sweep(cx, &mx.fresh, rq)))
		for x := 0; x < len(rq.pairs); {
			row := rq.pairs[x].row
			col := &mx.cols[mx.freshAt[row]]
			col.lo = int32(len(mx.ents))
			for ; x < len(rq.pairs) && rq.pairs[x].row == row; x++ {
				mx.ents = append(mx.ents, colEntry{pos: rq.pairs[x].col, s: rq.pairs[x].s})
			}
			col.hi = int32(len(mx.ents))
		}
	}

	// Every column entry is one pair for each holder of its position.
	rq.pairs = rq.pairs[:0]
	for m := range mx.heads {
		mx.heads[m] = -1
	}
	for j, col := range mx.cols {
		for _, e := range mx.ents[col.lo:col.hi] {
			for _, h := range mx.holders[mx.holdOff[e.pos]:mx.holdOff[e.pos+1]] {
				rq.pairs = append(rq.pairs, pair{next: mx.heads[h.mem], row: h.row, col: int32(j), s: e.s})
				mx.heads[h.mem] = int32(len(rq.pairs) - 1)
			}
		}
	}
	sum, scored := 0.0, 0
	for m, tr := range mx.members {
		if mx.heads[m] >= 0 {
			scored++
			sum += rq.evaluate(tr, rep, mx.heads[m])
		}
	}
	cx.Counters.TxnSims.Add(int64(scored))
	return sum
}
