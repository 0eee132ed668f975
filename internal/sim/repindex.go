package sim

import (
	"math"
	"sync"
	"sync/atomic"

	"xmlclust/internal/semantics"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// This file implements posting-list scoring: an inverted file over the TCU
// terms of a set of representatives, and a scorer that turns one sweep of a
// document's terms into the document's exact Eq. 4 similarity to every
// representative. It is what relocation runs on, and — through MemberIndex,
// which points the same sweep at a cluster's members — the refinement
// objective; the dense n1×n2 kernel (kernel.go) is its reference, its
// fallback and the public Transactions API.
//
// # Why a sweep is exact
//
// Eq. 4 only ever looks at item pairs whose Eq. 1 similarity reaches γ: a
// row or column maximum below γ sets no mark, and marks sit on entries equal
// to a maximum that did reach it. So with γ > 0 the matrix below γ never
// influences the result, and a pair (document item e, representative item
// e′) can reach γ through exactly two channels:
//
//	(a) a shared TCU term — otherwise the content cosine of Eq. 1 is 0;
//	(b) structure alone — f·simS(e, e′) ≥ γ with cosine 0, possible only
//	    when f ≥ γ because simS ≤ 1.
//
// Channel (a): Build stores, per term, the (representative position, weight)
// pairs that carry it. For a document item the scorer walks the item's
// vector in ascending term order and adds wa·wb into an accumulator per
// touched position. Per position the additions happen in the order of
// vector.Dot's merge walk, so every dot product — and with the stored norm
// every cosine and, through the kernel's own expression, every Eq. 1 value —
// has the kernel's bits. Channel (b): Build also keeps, per distinct tag
// path of the representatives, the positions under it; per distinct tag path
// of the document f·simS is evaluated once against each, and the lists that
// reach γ are enumerated, skipping positions channel (a) already scored.
// Together the two channels visit every pair that can reach γ, for every
// (f, γ) with γ > 0, zero vectors included.
//
// The pairs that did reach γ are then grouped by representative, and row and
// column maxima, tie marks, the correction for item ids held by both sides
// and count/|tr ∪ rep| are derived from that sparse list exactly as
// matchKernel derives them from the dense matrix. A representative without
// such a pair scores 0 and is never touched; one with a pair scores above 0.
// Relocation is a lowest-index argmax over the scores (RepQuery.Best).
//
// # Staleness contract
//
// Postings hold weights, so the index depends on the representatives'
// vectors as they were at Build. Representatives are immutable between
// refinement phases, but a weighting pass may rewrite the vector of a raw
// item a representative carries. Build records ItemTable.VecVersion; when it
// has moved, Enabled compares the captured vector headers with the table
// (O(representative positions), once per version) and the index either
// carries on — serve's online adds weight new items only — or reports itself
// disabled until the next Build, which sends callers down the flat path.
// Nothing of the document side is stored, it is resolved per query; terms and
// tag paths interned after Build are sound by construction: such a term has
// no posting, and simS against such a tag path is computed directly.
type RepIndex struct {
	cx   *Context
	reps []*txn.Transaction

	on     bool // γ > 0 and exact Δ at Build
	active int  // non-nil, non-empty reps (the flat scan's real workload)
	// transposed marks the index a MemberIndex keeps over cluster members:
	// the indexed side is the documents and the queries are representative
	// items, so Eq. 3 takes its operands the other way round (fsim).
	transposed bool

	// Staleness: checked is the table vector version the captured headers
	// were last found current at, stale latches a rewrite of one of them.
	checked atomic.Uint64
	stale   atomic.Bool
	mu      sync.Mutex // serializes revalidation

	// Positions: representative j owns the global positions
	// posOff[j]..posOff[j+1], in the order of its Items.
	posOff []int32
	repOf  []int32         // position → representative
	vecs   []vector.Sparse // position → vector header captured at Build
	norm   []float64       // position → vector norm
	tpSlot []int32         // position → slot of its tag path in tps

	// Distinct tag paths of the representatives and, in CSR form, the
	// positions under each (channel b). pathSlot maps a PathID known at
	// Build to slot+1.
	tps      []xmltree.PathID
	pathSlot []int32
	tpOff    []int32
	tpPos    []int32

	// Postings in CSR form (channel a): termSlot maps a term id known at
	// Build to slot+1, terms lists the distinct terms, and slot s covers
	// postPos/postW[postOff[s]:postOff[s+1]].
	terms    []int32
	termSlot []int32
	postOff  []int32
	postPos  []int32
	postW    []float64

	bTps []xmltree.PathID // Build-time tag-path column, reused
}

// NewRepIndex returns an empty representative index; Build populates it and
// may be called repeatedly (per refinement phase), reusing all internal
// arrays.
func NewRepIndex() *RepIndex { return &RepIndex{} }

// Enabled reports whether the index answers queries: γ must be positive (at
// γ ≤ 0 every pair matches and nothing is sparse), the tag similarity must be
// the paper's exact Δ (the equivalence suites cover no other), and no
// representative vector may have been rewritten since Build (see the
// staleness contract). When false, callers use the flat scan.
func (ix *RepIndex) Enabled() bool {
	if !ix.on || ix.stale.Load() {
		return false
	}
	ver := ix.cx.Items.VecVersion()
	return ver == ix.checked.Load() || ix.revalidate(ver)
}

// revalidate compares the captured vector headers with the table after its
// vector version moved to ver.
func (ix *RepIndex) revalidate(ver uint64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.stale.Load() {
		return false
	}
	if ix.checked.Load() == ver {
		return true
	}
	for j, rep := range ix.reps {
		if rep == nil {
			continue
		}
		if !ix.cx.Items.SameVectors(rep.Items, ix.vecs[ix.posOff[j]:ix.posOff[j+1]]) {
			ix.stale.Store(true)
			return false
		}
	}
	ix.checked.Store(ver)
	return true
}

// Active returns the number of representatives the last Build indexed
// (non-nil, non-empty) — the per-document workload of the flat scan.
func (ix *RepIndex) Active() int { return ix.active }

// Entries returns the size of the index: distinct TCU terms with a posting
// list plus distinct tag paths with a position list. Exposed by the serve
// stats endpoint.
func (ix *RepIndex) Entries() int { return len(ix.terms) + len(ix.tps) }

// Build (re)builds the index over reps under cx's parameters. It is called
// once per refinement phase — representatives change once per round while
// documents query n times — and once per candidate by the refinement
// objective, so it costs O(postings) and a warm rebuild allocates nothing.
// Build is not safe for concurrent use with queries; callers rebuild between
// passes.
func (ix *RepIndex) Build(cx *Context, reps []*txn.Transaction) {
	// Unmap the previous build's terms and tag paths: O(what it held), not
	// O(vocabulary).
	for _, t := range ix.terms {
		ix.termSlot[t] = 0
	}
	for _, tp := range ix.tps {
		ix.pathSlot[tp] = 0
	}
	ix.terms, ix.tps = ix.terms[:0], ix.tps[:0]

	ix.cx, ix.reps = cx, reps
	ix.on = sweepable(cx)
	ix.active = 0
	ix.stale.Store(false)
	if !ix.on {
		return
	}
	// Version first: a rewrite racing the resolution below shows as a moved
	// version, and the header comparison then catches it.
	ix.checked.Store(cx.Items.VecVersion())

	ix.posOff = ix.posOff[:0]
	n := 0
	for _, rep := range reps {
		ix.posOff = append(ix.posOff, int32(n))
		if rep != nil && rep.Len() > 0 {
			ix.active++
			n += rep.Len()
		}
	}
	ix.posOff = append(ix.posOff, int32(n))
	ix.repOf = grow(ix.repOf, n)
	ix.vecs = grow(ix.vecs, n)
	ix.norm = grow(ix.norm, n)
	ix.tpSlot = grow(ix.tpSlot, n)
	ix.bTps = grow(ix.bTps, n)
	for j, rep := range reps {
		a, b := ix.posOff[j], ix.posOff[j+1]
		if a == b {
			continue
		}
		cx.Items.ResolveColumns(rep.Items, ix.bTps[a:b], ix.vecs[a:b])
		for p := a; p < b; p++ {
			ix.repOf[p] = int32(j)
		}
	}

	// Slots and list lengths, then offsets, then the fill: postOff/tpOff
	// double as fill cursors and are shifted back afterwards.
	ix.postOff, ix.tpOff = ix.postOff[:0], ix.tpOff[:0]
	for p := 0; p < n; p++ {
		ix.norm[p] = ix.vecs[p].Norm()
		tp := ix.bTps[p]
		if int(tp) >= len(ix.pathSlot) {
			ix.pathSlot = growMap(ix.pathSlot, int(tp))
		}
		if ix.pathSlot[tp] == 0 {
			ix.tps = append(ix.tps, tp)
			ix.tpOff = append(ix.tpOff, 0)
			ix.pathSlot[tp] = int32(len(ix.tps))
		}
		q := ix.pathSlot[tp] - 1
		ix.tpSlot[p] = q
		ix.tpOff[q]++
		for _, en := range ix.vecs[p].Entries() {
			if int(en.Term) >= len(ix.termSlot) {
				ix.termSlot = growMap(ix.termSlot, int(en.Term))
			}
			if ix.termSlot[en.Term] == 0 {
				ix.terms = append(ix.terms, en.Term)
				ix.postOff = append(ix.postOff, 0)
				ix.termSlot[en.Term] = int32(len(ix.terms))
			}
			ix.postOff[ix.termSlot[en.Term]-1]++
		}
	}
	ix.tpOff = append(ix.tpOff, 0)
	ix.postOff = append(ix.postOff, 0)
	ix.tpPos = grow(ix.tpPos, int(exclusiveSums(ix.tpOff)))
	nPost := int(exclusiveSums(ix.postOff))
	ix.postPos = grow(ix.postPos, nPost)
	ix.postW = grow(ix.postW, nPost)
	for p := 0; p < n; p++ {
		q := ix.tpSlot[p]
		ix.tpPos[ix.tpOff[q]] = int32(p)
		ix.tpOff[q]++
		for _, en := range ix.vecs[p].Entries() {
			s := ix.termSlot[en.Term] - 1
			ix.postPos[ix.postOff[s]] = int32(p)
			ix.postW[ix.postOff[s]] = en.Weight
			ix.postOff[s]++
		}
	}
	shiftBack(ix.tpOff)
	shiftBack(ix.postOff)
}

// sweepable reports whether posting-list scoring serves cx: γ must be
// positive and Δ the paper's exact one (see Enabled).
func sweepable(cx *Context) bool {
	_, exact := cx.TagSim.(semantics.Exact)
	return cx.Params.Gamma > 0 && exact
}

// exclusiveSums turns the list lengths in off[:len-1] into start offsets in
// place (off[len-1] becomes the total, which is returned).
func exclusiveSums(off []int32) int32 {
	var sum int32
	for i, c := range off {
		off[i] = sum
		sum += c
	}
	return sum
}

// shiftBack undoes a fill that advanced every start offset to its list's
// end: off[i] holds end(i) = start(i+1), so the starts move one slot up.
func shiftBack(off []int32) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// growMap extends a zero-means-absent id map so that index id is valid, with
// headroom so that a run of fresh ids does not reallocate each time.
func growMap(m []int32, id int) []int32 {
	grown := make([]int32, id+1+id/2)
	copy(grown, m)
	return grown
}

// pair is one (document row, representative position) entry of the item
// similarity matrix that reached γ, linked into its representative's list.
type pair struct {
	next int32 // next pair of the same representative, -1 at the end
	row  int32
	col  int32 // position within the representative
	s    float64
}

// RepQuery is the reusable per-goroutine state of index queries: the sweep
// accumulators, the sparse list of γ-reaching pairs, the per-representative
// evaluation buffers and the scores of the last query. Like Scratch it is
// not safe for concurrent use — every Scratch carries one (Scratch.Query),
// so a worker that owns a scratch owns its query state too. Buffers grow on
// first use and are reused afterwards (warm queries allocate nothing).
type RepQuery struct {
	cand  []int32 // representatives scored above 0 by the last query
	score []float64

	doc side // the document, resolved per query

	// Sweep state. A position's accumulator is live for the current row iff
	// stamp[p] == epoch; a representative's pair list is live for the current
	// document iff repMark[j] == mark (the epoch of the document's first
	// row). Epochs only grow, so state left by an earlier query — against
	// any index — never reads as live.
	epoch   uint32
	acc     []float64
	stamp   []uint32
	touched []int32
	repMark []uint32
	head    []int32
	pairs   []pair

	// f·simS per (distinct document tag path, distinct representative tag
	// path), filled on demand: live iff fsMark[x] == mark. qualOff/qual list,
	// per distinct document tag path, the representative tag paths whose
	// f·simS reaches γ (channel b; empty when f < γ).
	fs      []float64
	fsMark  []uint32
	qualOff []int32
	qual    []int32

	// Per-representative evaluation buffers; all zero between evaluations.
	rowBest, colBest []float64
	mark1, mark2     []uint64

	memo *structMemo
}

// NewRepQuery returns an empty query scratch.
func NewRepQuery() *RepQuery { return &RepQuery{} }

// Candidate returns the i-th result of the last query (0 ≤ i < Candidates'
// return): a representative index and its exact, non-zero simγJ. The order
// is unspecified.
func (rq *RepQuery) Candidate(i int) (int, float64) {
	return int(rq.cand[i]), rq.score[i]
}

// Best returns the relocation argmax of the last query: the representative
// with the highest score, the lowest index among ties, or (-1, 0) when every
// representative scored 0. It is what a flat scan in index order keeping
// strict improvements over 0 arrives at.
func (rq *RepQuery) Best() (int, float64) {
	bestJ, best := -1, 0.0
	for c, j := range rq.cand {
		if v := rq.score[c]; v > best || (v == best && int(j) < bestJ) {
			bestJ, best = int(j), v
		}
	}
	return bestJ, best
}

// prepare sizes the query state for a document of n1 items with nd distinct
// tag paths against ix. Grown stamp arrays start at zero, which no live epoch
// equals.
func (rq *RepQuery) prepare(ix *RepIndex, n1, nd int) {
	if n := len(ix.repOf); len(rq.stamp) < n {
		rq.stamp = make([]uint32, n)
		rq.acc = make([]float64, n)
	}
	if k := len(ix.reps); len(rq.repMark) < k {
		rq.repMark = make([]uint32, k)
		rq.head = make([]int32, k)
	}
	if n := nd * len(ix.tps); len(rq.fsMark) < n {
		rq.fsMark = make([]uint32, n)
		rq.fs = make([]float64, n)
	}
	if len(rq.rowBest) < n1 {
		rq.rowBest = make([]float64, n1)
		rq.mark1 = make([]uint64, words(n1))
	}
}

// Candidates scores tr against every representative of the index, fills rq
// with the representatives whose Eq. 4 similarity to tr is above 0 and
// returns their count. Candidate i is read with rq.Candidate(i) and the
// relocation winner with rq.Best(). Every score is bit-identical to
// Context.Transactions(tr, rep); the index must be Enabled.
func (ix *RepIndex) Candidates(tr *txn.Transaction, rq *RepQuery) int {
	evaluated := ix.sweep(tr, rq)
	rq.score = rq.score[:0]
	for _, j := range rq.cand {
		rq.score = append(rq.score, rq.evaluate(tr, ix.reps[j], rq.head[j]))
	}
	ix.cx.Counters.ItemSims.Add(int64(evaluated))
	ix.cx.Counters.TxnSims.Add(int64(len(rq.cand)))
	return len(rq.cand)
}

// sweep is the posting-list pass of a query: it leaves in rq.pairs every
// (row of tr, indexed position) pair whose Eq. 1 value reaches γ — row by
// row, linked per representative from rq.head — and in rq.cand the
// representatives that have one, and returns the number of pairs it looked
// at.
func (ix *RepIndex) sweep(tr *txn.Transaction, rq *RepQuery) (evaluated int) {
	rq.cand, rq.pairs = rq.cand[:0], rq.pairs[:0]
	n1 := tr.Len()
	if n1 == 0 || ix.active == 0 {
		return 0
	}
	cx := ix.cx
	f, gamma := cx.Params.F, cx.Params.Gamma

	doc := &rq.doc
	doc.resolve(cx, tr, f > 0)
	nd := doc.nd
	rq.prepare(ix, n1, nd)
	if f > 0 {
		if rq.memo == nil {
			rq.memo = new(structMemo)
		}
		rq.memo.bind(cx)
	}
	nq := len(ix.tps)
	// One epoch per row. Should the counter be about to wrap, every stale
	// stamp would read as live again: clear them and start over.
	if rq.epoch > math.MaxUint32-uint32(n1) {
		clear(rq.stamp)
		clear(rq.repMark)
		clear(rq.fsMark)
		rq.epoch = 0
	}
	mark := rq.epoch + 1 // the first row's epoch names the document

	// Channel (b) set-up: which representative tag paths reach γ on
	// structure alone, per distinct document tag path. f·simS ≤ f, so there
	// are none when f < γ.
	structural := f >= gamma
	if structural {
		rq.qualOff, rq.qual = rq.qualOff[:0], rq.qual[:0]
		for d := 0; d < nd; d++ {
			rq.qualOff = append(rq.qualOff, int32(len(rq.qual)))
			for q := 0; q < nq; q++ {
				x := d*nq + q
				rq.fs[x] = ix.fsim(rq, d, q)
				rq.fsMark[x] = mark
				if rq.fs[x] >= gamma {
					rq.qual = append(rq.qual, int32(q))
				}
			}
		}
		rq.qualOff = append(rq.qualOff, int32(len(rq.qual)))
	}

	for i := 0; i < n1; i++ {
		rq.epoch++
		epoch := rq.epoch
		d := 0
		if f > 0 {
			d = int(doc.tpIdx[i])
		}
		if f < 1 {
			// Channel (a): sweep the row's terms over the postings.
			va := doc.vecs[i]
			touched := rq.touched[:0]
			for _, en := range va.Entries() {
				if int(en.Term) >= len(ix.termSlot) {
					continue // interned after Build: in no representative
				}
				s := ix.termSlot[en.Term] - 1
				if s < 0 {
					continue
				}
				wa := en.Weight
				lo, hi := ix.postOff[s], ix.postOff[s+1]
				pos, ws := ix.postPos[lo:hi], ix.postW[lo:hi]
				for x, p := range pos {
					// Products are rounded before they are added, as in
					// vector.Dot; the first one lands on 0 + product.
					w := float64(wa * ws[x])
					if rq.stamp[p] != epoch {
						rq.stamp[p] = epoch
						rq.acc[p] = w
						touched = append(touched, p)
					} else {
						rq.acc[p] += w
					}
				}
			}
			rq.touched = touched
			evaluated += len(touched)
			na := va.Norm()
			for _, p := range touched {
				// Eq. 1, operation for operation as in matchKernel.
				s := 0.0
				if f > 0 {
					x := d*nq + int(ix.tpSlot[p])
					if rq.fsMark[x] != mark {
						rq.fsMark[x] = mark
						rq.fs[x] = ix.fsim(rq, d, int(ix.tpSlot[p]))
					}
					s += rq.fs[x]
				}
				if s+(1-f) >= gamma {
					c := rq.acc[p] / (na * ix.norm[p])
					if c > 1 {
						c = 1
					} else if c < 0 {
						c = 0
					}
					s += (1 - f) * c
				}
				if s >= gamma {
					rq.addPair(ix, mark, i, p, s)
				}
			}
		}
		if structural {
			// Channel (b): positions under a qualifying tag path that the
			// sweep did not touch have cosine 0, so their Eq. 1 value is
			// f·simS itself (adding (1−f)·0 leaves it unchanged).
			for _, q := range rq.qual[rq.qualOff[d]:rq.qualOff[d+1]] {
				s := rq.fs[d*nq+int(q)]
				for _, p := range ix.tpPos[ix.tpOff[q]:ix.tpOff[q+1]] {
					if rq.stamp[p] != epoch {
						rq.addPair(ix, mark, i, p, s)
						evaluated++
					}
				}
			}
		}
	}

	return evaluated
}

// fsim is f·simS between the query's distinct tag path d and the index's tag
// path q. Eq. 3 is always called as (document path, representative path), the
// way the dense kernel calls it: the pair cache keeps whichever orientation it
// sees first, and Eq. 3's sum runs over the first path's tags before the
// second's.
func (ix *RepIndex) fsim(rq *RepQuery, d, q int) float64 {
	a, b := rq.doc.tps[d], ix.tps[q]
	if ix.transposed {
		a, b = b, a
	}
	return ix.cx.Params.F * rq.memo.sim(ix.cx, a, b)
}

// addPair records that document row i and global position p scored s ≥ γ.
// The first pair of a representative makes it a candidate.
func (rq *RepQuery) addPair(ix *RepIndex, mark uint32, i int, p int32, s float64) {
	j := ix.repOf[p]
	next := int32(-1)
	if rq.repMark[j] == mark {
		next = rq.head[j]
	} else {
		rq.repMark[j] = mark
		rq.cand = append(rq.cand, j)
	}
	rq.head[j] = int32(len(rq.pairs))
	rq.pairs = append(rq.pairs, pair{next: next, row: int32(i), col: p - ix.posOff[j], s: s})
}

// evaluate computes simγJ(tr, rep) from rep's list of γ-reaching pairs,
// which starts at pairs[head], the way matchKernel does from the dense
// matrix: row and column maxima (maxima below γ set no mark, and every list
// entry is ≥ γ > 0, so zeroed buffers stand in for the absent entries), a
// mark on every entry equal to its row's or its column's maximum, one count
// per marked row and marked column, minus the item ids marked on both sides,
// over |tr ∪ rep|. The three walks are order-independent, so the list's
// reverse insertion order does not matter.
func (rq *RepQuery) evaluate(tr, rep *txn.Transaction, head int32) float64 {
	n1, n2 := tr.Len(), rep.Len()
	if len(rq.colBest) < n2 {
		rq.colBest = make([]float64, n2)
		rq.mark2 = make([]uint64, words(n2))
	}
	rowBest, colBest, mark1, mark2 := rq.rowBest, rq.colBest, rq.mark1, rq.mark2
	for x := head; x >= 0; x = rq.pairs[x].next {
		e := &rq.pairs[x]
		if e.s > rowBest[e.row] {
			rowBest[e.row] = e.s
		}
		if e.s > colBest[e.col] {
			colBest[e.col] = e.s
		}
	}
	count := 0
	for x := head; x >= 0; x = rq.pairs[x].next {
		e := &rq.pairs[x]
		if e.s == rowBest[e.row] && !hasBit(mark2, int(e.col)) {
			setBit(mark2, int(e.col))
			count++
		}
		if e.s == colBest[e.col] && !hasBit(mark1, int(e.row)) {
			setBit(mark1, int(e.row))
			count++
		}
	}
	// matchγ is a set of item ids: an id held by both sides and marked from
	// both directions counts once. The same merge walk sizes the union.
	ids1, ids2 := tr.Items, rep.Items
	common := 0
	for i, j := 0, 0; i < n1 && j < n2; {
		switch {
		case ids1[i] == ids2[j]:
			common++
			if hasBit(mark1, i) && hasBit(mark2, j) {
				count--
			}
			i++
			j++
		case ids1[i] < ids2[j]:
			i++
		default:
			j++
		}
	}
	for x := head; x >= 0; x = rq.pairs[x].next {
		e := &rq.pairs[x]
		rowBest[e.row], colBest[e.col] = 0, 0
		mark1[e.row>>6], mark2[e.col>>6] = 0, 0
	}
	return float64(count) / float64(n1+n2-common)
}
