package sim

import (
	"math/bits"
	"sync"

	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// This file is the dense transaction-similarity kernel, the reference
// implementation of Eq. 4: the public Transactions API, what posting-list
// scoring (repindex.go) is pinned against bit for bit, and what relocation
// and the refinement objective run where the sweep cannot (γ ≤ 0, a stale
// index) or must not (a reference run). It computes the γ-matching
// marks of a transaction pair in one row-major pass over the full
// item-similarity matrix — every row, every call, nothing carried from one
// call to the next — and exposes three readings of them:
//
//   - MatchCount: |matchγ|;
//   - Transactions: simγJ = |matchγ| / |tr1 ∪ tr2|;
//   - MatchSet: the materialized id set, the readable specification of the
//     match semantics.
//
// Operands come from one place: each transaction of the pair is resolved per
// call (side.resolve, shared with the sweep) into flat per-position arrays —
// item ids straight from the sorted Items slice, tag paths and TCU vector
// headers bulk-copied from the item table's two id-indexed columns under one
// lock — and the n1×n2 pass then reads only contiguous slices. No *txn.Item
// is dereferenced anywhere on the hot path; the pointer-based layout survives
// only in the SeedTransactions oracle this kernel is benchmarked and
// equivalence-tested against.
//
// Tie rule (shared by all three readings and by the sweep): an item e ∈ tr_i
// belongs to matchγ(tr_i→tr_j) iff some e_h ∈ tr_j has sim(e, e_h) ≥ γ and no other
// item of tr_i matches that e_h strictly better — ties all qualify, i.e.
// every item whose similarity equals the per-row/per-column maximum is
// marked, not just the first one found. The count-only path reproduces the
// set cardinality exactly because marks live on disjoint index spaces
// (mark1 ⊆ tr1's positions, mark2 ⊆ tr2's positions) and the one source of
// double counting — an item id present in BOTH transactions and marked from
// both directions — is subtracted by a merge walk over the two sorted id
// slices.

// side is one transaction resolved for an Eq. 4 engine: the per-position
// TCU vector headers and tag paths of its items, copied out of the item
// table's columns, and the deduplicated view of the tag paths — the distinct
// ones in first-occurrence order with a slot index per position. Tree-tuple
// items share tag paths heavily (every author of an article, say), so one
// Eq. 3 probe per distinct tag-path pair replaces one per item pair — same
// float64 values, an order of magnitude fewer probes on same-schema corpora.
// Buffers are grown in place and reused from one resolve to the next.
type side struct {
	vecs  []vector.Sparse  // position → TCU vector header
	tpRaw []xmltree.PathID // position → tag path
	tps   []xmltree.PathID // distinct tag paths; tps[:nd] is live
	tpIdx []int32          // position → slot in tps
	nd    int              // distinct tag paths; 0 when they were not wanted
}

// resolve fills s with tr's columns. The tag-path dedup is skipped when
// wantTagPaths is false (f = 0: Eq. 1 has no structural term to probe for).
func (s *side) resolve(cx *Context, tr *txn.Transaction, wantTagPaths bool) {
	n := tr.Len()
	s.vecs = grow(s.vecs, n)
	s.tpRaw = grow(s.tpRaw, n)
	cx.Items.ResolveColumns(tr.Items, s.tpRaw, s.vecs)
	s.nd = 0
	if wantTagPaths {
		s.tps = grow(s.tps, n)
		s.tpIdx = grow(s.tpIdx, n)
		s.nd = indexTagPaths(s.tpRaw, s.tps, s.tpIdx)
	}
}

// Scratch is the reusable working state of the match kernel: the two
// resolved sides, the n1×n2 similarity matrix, the d1×d2 structural
// similarity matrix over the sides' distinct tag paths, the per-column maxima
// and the two direction-mark bitsets. All buffers are grown in place and
// reused across calls, so a warm Scratch makes Transactions allocation-free
// (the CI allocation guard pins this at exactly 0 allocs/op).
//
// A Scratch is NOT safe for concurrent use; give each goroutine its own
// (see Scratches) or pass nil to borrow one from the shared pool.
type Scratch struct {
	s1, s2  side
	simM    []float64 // row-major n1×n2 item similarities
	structM []float64 // row-major d1×d2 Eq. 3 values of the distinct tag paths
	colBest []float64 // per-column maximum over the rows seen so far
	mark1   []uint64  // bitset over tr1 positions (direction tr1→tr2)
	mark2   []uint64  // bitset over tr2 positions (direction tr2→tr1)

	// memo is the scratch-local layer over the shared PathCache (structMemo).
	memo structMemo

	// Index-side state, pooled and warmed with the scratch: the query state of
	// posting-list scoring and the refinement objective's member index.
	query   RepQuery
	members MemberIndex
}

// Query returns the index-query state that travels with the scratch: an
// indexed relocation needs both per worker, so they are borrowed, warmed and
// returned together. The query shares the scratch's structural memo.
func (sc *Scratch) Query() *RepQuery {
	sc.query.memo = &sc.memo
	return &sc.query
}

// NewScratch returns an empty kernel scratch; buffers are grown on first
// use and reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs the nil-Scratch convenience path. Pool reuse is
// schedule-dependent, but Scratch contents never influence results, only
// allocation behavior.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// getScratch resolves the caller's scratch: non-nil is used as-is, nil
// borrows from the pool (the caller must hand it back with putScratch).
func getScratch(sc *Scratch) (*Scratch, bool) {
	if sc != nil {
		return sc, false
	}
	return scratchPool.Get().(*Scratch), true
}

func putScratch(sc *Scratch, pooled bool) {
	if pooled {
		scratchPool.Put(sc)
	}
}

// BorrowScratch takes one scratch from the shared pool for a serial pass — a
// refinement, say.
func BorrowScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release hands a borrowed scratch back; the caller must not use it afterwards.
func (sc *Scratch) Release() { scratchPool.Put(sc) }

// Scratches is the per-worker kernel state of one fork-join pass: slot w
// belongs to the worker with dense id w (see parallel.ForCtxWorkers) and is
// borrowed from the shared pool on that worker's first use. Once the pool is
// warm a pass allocates no scratch at all — the resolved columns, the
// structural memo and the index-query buffers survive from pass to pass and
// from job to job instead of being rebuilt per relocation pass and per
// representative. Workers touch only their own slot, so no locking is
// needed; Release, called once the pass has joined, hands everything back.
type Scratches []*Scratch

// BorrowScratches returns an empty worker-indexed set for the given worker
// count (parallel.WorkerCount).
func BorrowScratches(workers int) Scratches { return make(Scratches, workers) }

// Worker returns worker w's scratch, borrowing it on first use.
func (ws Scratches) Worker(w int) *Scratch {
	if ws[w] == nil {
		ws[w] = BorrowScratch()
	}
	return ws[w]
}

// Release returns every borrowed scratch to the pool.
func (ws Scratches) Release() {
	for w, sc := range ws {
		if sc != nil {
			sc.Release()
			ws[w] = nil
		}
	}
}

// words is the uint64 word count of an n-bit bitset.
func words(n int) int { return (n + 63) / 64 }

func setBit(b []uint64, i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func hasBit(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// grow returns b with length n, reallocating only when capacity is short.
// Contents are unspecified: callers overwrite every element they read.
func grow[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

// ensure sizes the pair buffers for n1×n2 items over d1×d2 distinct tag
// paths, growing only when capacity is insufficient.
func (sc *Scratch) ensure(n1, n2, d1, d2 int) {
	sc.simM = grow(sc.simM, n1*n2)
	sc.structM = grow(sc.structM, d1*d2)
	sc.colBest = grow(sc.colBest, n2)
	sc.mark1 = grow(sc.mark1, words(n1))
	sc.mark2 = grow(sc.mark2, words(n2))
}

// structMemo is a goroutine-local, lock-free, L1-resident memo of Eq. 3
// tag-path pair similarities layered over the shared sharded PathCache: the
// same pairs recur across every representative of a relocation scan and
// across the transactions a worker draws, and a direct-mapped probe here
// replaces a RWMutex + map probe there. Values are the PathCache's own (pure
// functions of the pair), so results are bit-identical; collisions simply
// overwrite (it is a cache of a cache). Allocated on first structural use,
// fixed size afterwards. The memo is only valid for one Context — PathIDs are
// table-relative — so bind clears it on a context switch (rare: a scratch
// normally lives inside one clustering pass). A context derived by WithItems
// shares its root's paths, and counts as the root.
type structMemo struct {
	key []uint64 // packed ordered pair + 1; 0 = empty slot
	val []float64
	cx  *Context
}

// structCacheSize is the slot count of the memo (a power of two; 4096 slots
// ≈ 64 KiB).
const structCacheSize = 1 << 12

// bind readies the memo for cx. Contexts with UseCache off (the path-cache
// ablation) bypass the memo — it is a cache of a cache, and the ablation's
// uncached arm must keep measuring real alignment work — so nothing is
// readied for them.
func (m *structMemo) bind(cx *Context) {
	if !cx.UseCache {
		return
	}
	if m.key == nil {
		m.key = make([]uint64, structCacheSize)
		m.val = make([]float64, structCacheSize)
	} else if m.cx != cx.root {
		clear(m.key)
	}
	m.cx = cx.root
}

// sim returns the Eq. 3 similarity of two interned tag paths through the
// memo, falling back to (and refilling from) cx's shared path cache. The memo
// must be bound to cx.
func (m *structMemo) sim(cx *Context, pa, pb xmltree.PathID) float64 {
	if !cx.UseCache {
		return cx.TagPathSim(pa, pb)
	}
	a, b := pa, pb
	if b < a {
		a, b = b, a
	}
	// PathIDs are int32, so the packed ordered pair is injective and the
	// +1 keeps every real key distinct from the empty-slot sentinel 0.
	key := (uint64(uint32(a))<<32 | uint64(uint32(b))) + 1
	h := key * 0x9e3779b97f4a7c15
	slot := (h >> 32) & (structCacheSize - 1)
	if m.key[slot] == key {
		return m.val[slot]
	}
	v := cx.TagPathSim(pa, pb)
	m.key[slot] = key
	m.val[slot] = v
	return v
}

// indexTagPaths fills tps[:] with the distinct tag paths of src and idx
// with each position's slot, returning the distinct count. Linear-scan
// dedup: the distinct count is small (tree tuples repeat tag paths) and
// the scan allocates nothing.
func indexTagPaths(src, tps []xmltree.PathID, idx []int32) int {
	nd := 0
	for j, tp := range src {
		slot := -1
		for d := 0; d < nd; d++ {
			if tps[d] == tp {
				slot = d
				break
			}
		}
		if slot < 0 {
			slot = nd
			tps[nd] = tp
			nd++
		}
		idx[j] = int32(slot)
	}
	return nd
}

// matchKernel computes the γ-matching marks of (tr1, tr2) into sc and
// returns |matchγ|.
func (cx *Context) matchKernel(tr1, tr2 *txn.Transaction, sc *Scratch) int {
	n1, n2 := tr1.Len(), tr2.Len()
	if n1 == 0 || n2 == 0 {
		return 0
	}
	f, gamma := cx.Params.F, cx.Params.Gamma
	s1, s2 := &sc.s1, &sc.s2
	s1.resolve(cx, tr1, f > 0)
	s2.resolve(cx, tr2, f > 0)
	nd1, nd2 := s1.nd, s2.nd
	sc.ensure(n1, n2, nd1, nd2)
	if f > 0 {
		// One Eq. 3 probe per distinct (tr1, tr2) tag-path pair:
		// structM[d1*nd2+d2] is exactly the Eq. 3 term of every position pair
		// whose tag paths sit in slots (d1, d2).
		sc.memo.bind(cx)
		for d1 := 0; d1 < nd1; d1++ {
			for d2 := 0; d2 < nd2; d2++ {
				sc.structM[d1*nd2+d2] = sc.memo.sim(cx, s1.tps[d1], s2.tps[d2])
			}
		}
	}
	colBest := sc.colBest
	for j := range colBest {
		colBest[j] = -1
	}
	mark1, mark2 := sc.mark1, sc.mark2
	clear(mark1)
	clear(mark2)

	ids1, ids2 := tr1.Items, tr2.Items
	vecs2, tpIdx2 := s2.vecs, s2.tpIdx
	for i := 0; i < n1; i++ {
		var structRow []float64 // unread at f == 0
		if f > 0 {
			d1 := int(s1.tpIdx[i])
			structRow = sc.structM[d1*nd2 : d1*nd2+nd2]
		}
		row := sc.simM[i*n2 : (i+1)*n2]
		rowBest := -1.0
		va := s1.vecs[i]
		// The arithmetic replicates Item (Eq. 1) operation for operation, so
		// evaluated values are bit-identical to direct Item calls. The content
		// cosine is skipped when even a perfect one leaves the pair below γ:
		// cosines are clamped to [0,1] and IEEE multiplication and addition
		// are monotone, so s + (1−f) bounds the full value from above in
		// floating point, not just in the reals. Only values ≥ γ ever set a
		// mark, and a skipped pair stores its partial value, itself < γ — so
		// the marks are unchanged.
		for j := range row {
			s := 0.0
			if f > 0 {
				s += f * structRow[tpIdx2[j]]
			}
			if f < 1 && s+(1-f) >= gamma {
				s += (1 - f) * vector.Cosine(va, vecs2[j])
			}
			row[j] = s
			if s > rowBest {
				rowBest = s
			}
			if s > colBest[j] {
				colBest[j] = s
			}
		}
		// Direction tr2 → tr1: the best matchers of tr1's item i within tr2.
		// rowBest is final once the row is filled, so the marks are set here,
		// ties all qualifying.
		if rowBest >= gamma {
			for j, s := range row {
				if s == rowBest {
					setBit(mark2, j)
				}
			}
		}
	}
	// One counter add per evaluation, not per pair or per row: the shared
	// cache line stays out of the loop.
	cx.Counters.ItemSims.Add(int64(n1) * int64(n2))
	// Direction tr1 → tr2: for each tr2 item (column j), the best matchers
	// from tr1 — every row tying the column maximum qualifies.
	for j := 0; j < n2; j++ {
		best := colBest[j]
		if best < gamma {
			continue
		}
		for i := 0; i < n1; i++ {
			if sc.simM[i*n2+j] == best {
				setBit(mark1, i)
			}
		}
	}

	count := 0
	for _, w := range mark1 {
		count += bits.OnesCount64(w)
	}
	for _, w := range mark2 {
		count += bits.OnesCount64(w)
	}
	// matchγ is a set of item ids: an id held by BOTH transactions and
	// marked from both directions must count once, not twice. Both id
	// slices are sorted ascending and distinct, so a merge walk finds the
	// doubly-marked common ids.
	i, j := 0, 0
	for i < n1 && j < n2 {
		switch {
		case ids1[i] == ids2[j]:
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
	return count
}

// MatchCount returns |matchγ(tr1, tr2)| — exactly len(MatchSet(tr1, tr2)) —
// without materializing the set. sc may be nil (a pooled scratch is used);
// pass a per-goroutine Scratch on hot paths to stay allocation-free.
func (cx *Context) MatchCount(tr1, tr2 *txn.Transaction, sc *Scratch) int {
	sc, pooled := getScratch(sc)
	n := cx.matchKernel(tr1, tr2, sc)
	putScratch(sc, pooled)
	return n
}

// MatchSet computes matchγ(tr1, tr2) = matchγ(tr1→tr2) ∪ matchγ(tr2→tr1):
// the set of γ-shared items (see the kernel comment for the tie rule). It
// is a thin materializing wrapper over the count kernel. No production
// path needs the set — it stays exported as the readable specification of
// the match semantics and the oracle the equivalence tests pin the
// count-only kernel against.
func (cx *Context) MatchSet(tr1, tr2 *txn.Transaction) map[txn.ItemID]struct{} {
	n1, n2 := tr1.Len(), tr2.Len()
	shared := make(map[txn.ItemID]struct{}, n1+n2)
	if n1 == 0 || n2 == 0 {
		return shared
	}
	sc, pooled := getScratch(nil)
	cx.matchKernel(tr1, tr2, sc)
	for i := 0; i < n1; i++ {
		if hasBit(sc.mark1, i) {
			shared[tr1.Items[i]] = struct{}{}
		}
	}
	for j := 0; j < n2; j++ {
		if hasBit(sc.mark2, j) {
			shared[tr2.Items[j]] = struct{}{}
		}
	}
	putScratch(sc, pooled)
	return shared
}

// Transactions computes simγJ(tr1, tr2) = |matchγ(tr1,tr2)| / |tr1 ∪ tr2|
// (Eq. 4), in [0,1]. sc may be nil (a pooled scratch is borrowed for the
// call); with a warm caller-owned Scratch the evaluation performs zero heap
// allocations.
func (cx *Context) Transactions(tr1, tr2 *txn.Transaction, sc *Scratch) float64 {
	cx.Counters.TxnSims.Add(1)
	u := txn.UnionSize(tr1, tr2)
	if u == 0 {
		return 0
	}
	return float64(cx.MatchCount(tr1, tr2, sc)) / float64(u)
}
