package sim

import (
	"math/bits"
	"sort"

	"xmlclust/internal/semantics"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// This file implements the inverted representative index behind sub-linear
// relocation: the K-tree-inspired candidate structure that lets a document
// evaluate only the representatives it could possibly join instead of all k
// of them, while keeping every assignment byte-identical to the flat scan.
//
// The index inverts the *item similarity* structure of Eq. 1 rather than raw
// item ids: under the paper's exact Δ, an item pair can only reach the
// γ-matching threshold (Eq. 2) if the two items share a tag (structural term
// of Eq. 3 is zero otherwise) and/or share a TCU vector term (the cosine of
// Eq. 1 is zero otherwise). Which of the two channels can carry a pair to γ
// depends only on (f, γ):
//
//	tagQ:  f ≥ γ         — a tag-only match can qualify (simS ≤ 1, so the
//	                       structural term is at most f);
//	termQ: (1−f) ≥ γ     — a term-only match can qualify;
//	bothQ: f+(1−f) ≥ γ   — a pair sharing both channels can qualify.
//
// The three predicates are evaluated with the same float64 expressions whose
// rounded values bound the kernel's arithmetic (f·simS ≤ f exactly,
// (1-f)·cos ≤ (1-f) exactly, and their sum ≤ fl(f+(1-f)) by IEEE
// monotonicity), so exclusion is sound: when a predicate is false, no pair
// relying on that channel combination can reach γ in the kernel either.
//
// Build inverts the representatives once per refinement phase: a bitset over
// representatives per tag (tag → reps whose items' tag paths contain it,
// folded into one bitset per interned tag path) and per TCU term (term →
// reps whose items' vectors carry it). A query then makes one pass over the
// document's positions, ORing the regime-appropriate bitsets:
//
//	Q_i = (tagQ ? T_i : 0) | (termQ ? M_i : 0) | (T_i & M_i if only bothQ)
//
// where T_i is the rep-bitset of position i's tag path and M_i the OR of its
// vector terms' rep-bitsets. q1[j] = |{i : j ∈ Q_i}| counts the document
// positions that could possibly be γ-marked against representative j.
//
// The key soundness fact (the reason no rep-side postings are needed to FIND
// candidates): sim(doc, rep_j) > 0 implies q1[j] ≥ 1 in every regime — a
// marked rep item needs a partner position i with sim ≥ γ pairwise, position
// i's global T_i/M_i indicators dominate the pairwise ones, and the regime
// predicate the pair used is exactly the one that folded that channel into
// Q_i. Candidates are therefore {j : q1[j] > 0}; representatives sharing
// nothing with the document are never touched at all.
//
// Per candidate the index completes an exact upper bound on Eq. 4:
//
//	UB_j = (q1[j] + q2[j]) / |tr ∪ rep_j|
//
// with q2[j] bounding the markable rep-side positions (rep length when tagQ
// — every rep position might tag-match — otherwise the count of rep
// positions sharing at least one vector term with the document, read from
// per-position term lists stored at Build). |matchγ| ≤ q1+q2 by the same
// domination argument, the divisor is the same integer u the kernel divides
// by, and IEEE division is monotone in an integer numerator at fixed
// divisor — so UB_j ≥ simγJ(tr, rep_j) holds exactly, never approximately.
// The relocation loop (cluster.RelocateOneIndexed) walks candidates in
// (UB desc, j asc) order and stops when the bound proves no unseen candidate
// can beat — or tie at a lower index than — the running best.
//
// Staleness contract: the index depends only on the representatives' resolved
// columns at Build time (representatives are immutable between refinement
// phases) and on nothing of the document side, which is resolved fresh per
// query. Items, terms or tag paths interned AFTER Build (serve's online
// adds) are handled soundly: an unknown tag path falls back to the
// all-active-reps bitset, and an unknown term simply cannot occur in any
// representative, so its zero contribution is exact.
type RepIndex struct {
	cx   *Context
	reps []*txn.Transaction

	k      int  // len(reps)
	w      int  // bitset words per rep set
	active int  // non-nil, non-empty reps (the flat scan's real workload)
	on     bool // gamma > 0 and exact Δ — otherwise queries fall back to flat

	tagQ, termQ, bothQ bool
	needT, needM       bool // which doc-side channels Q_i consults
	needQ2             bool // rep-side per-position term lists required

	repLen    []int32  // rep length per j (0 = inactive)
	allActive []uint64 // bitset of active reps (unknown-tag-path fallback)

	// tag → rep bitset, folded per interned tag path into pathBits (one
	// w-word slab entry per PathID known at Build). The map persists across
	// Builds — values are zeroed and refilled, keys accumulate the schema's
	// tag vocabulary — so steady-state rebuilds allocate nothing.
	tagReps  map[string][]uint64
	pathsLen int
	pathBits []uint64

	// term → rep bitset as a slot map plus a flat slab (slot*w..slot*w+w).
	termSlot map[int32]int32
	termBits []uint64
	nslots   int

	// Per-position term lists of the representatives, for the lazy q2 pass
	// (only built when needQ2): global position p of rep j covers
	// posTerms[posTermOff[p]:posTermOff[p+1]], with rep j's positions being
	// repPosOff[j]..repPosOff[j+1].
	repPosOff  []int32
	posTermOff []int32
	posTerms   []int32

	// Build-time resolution buffers, reused across Builds.
	bTps  []xmltree.PathID
	bVecs []vector.Sparse
}

// emptyPathTag is the synthetic tag under which empty tag paths are indexed:
// PathSim(empty, empty) = 1 under every Δ, so two empty paths behave like a
// shared tag. Real XML tag names are never empty, so the sentinel cannot
// collide.
const emptyPathTag = ""

// NewRepIndex returns an empty representative index; Build populates it and
// may be called repeatedly (per refinement phase), reusing all internal
// arrays.
func NewRepIndex() *RepIndex {
	return &RepIndex{
		tagReps:  make(map[string][]uint64),
		termSlot: make(map[int32]int32),
	}
}

// Enabled reports whether the index can answer queries exactly: γ must be
// positive (at γ ≤ 0 every pair matches and candidate pruning is
// meaningless) and the tag similarity must be the paper's exact Δ (semantic
// matchers can score disjoint-tag paths above zero, which would break the
// shared-channel premise). When false, callers use the flat scan.
func (ix *RepIndex) Enabled() bool { return ix.on }

// Active returns the number of representatives the last Build indexed
// (non-nil, non-empty) — the per-document workload of the flat scan.
func (ix *RepIndex) Active() int { return ix.active }

// Entries returns the posting-list size of the index: distinct tags plus
// distinct TCU terms carrying a representative bitset. Exposed by the serve
// stats endpoint.
func (ix *RepIndex) Entries() int { return len(ix.tagReps) + ix.nslots }

// Context returns the similarity context the index was built against.
func (ix *RepIndex) Context() *Context { return ix.cx }

// Reps returns the representative slice the index was built over. The slice
// is the caller's; the index never mutates it.
func (ix *RepIndex) Reps() []*txn.Transaction { return ix.reps }

// Build (re)builds the index over reps under cx's parameters. It is called
// once per refinement phase — representatives change once per round while
// documents query n times, which is the asymmetry that makes the inversion
// pay. Build is not safe for concurrent use with queries; callers rebuild
// between relocation passes.
func (ix *RepIndex) Build(cx *Context, reps []*txn.Transaction) {
	ix.cx, ix.reps = cx, reps
	k := len(reps)
	ix.k = k
	w := words(k)
	ix.w = w
	f, gamma := cx.Params.F, cx.Params.Gamma
	_, exact := cx.TagSim.(semantics.Exact)
	ix.on = gamma > 0 && exact
	ix.active = 0
	if !ix.on {
		return
	}
	// Regime predicates, with the kernel's own float expressions (see the
	// file comment for why these exact expressions make exclusion sound).
	ix.tagQ = f >= gamma
	ix.termQ = 1-f >= gamma
	ix.bothQ = f+(1-f) >= gamma
	// Q_i needs the tag channel unless term-sharing alone decides (termQ
	// covers bothQ pairs too when tagQ is false), and the term channel
	// unless tag-sharing alone decides. Note tagQ ⇒ bothQ and termQ ⇒ bothQ
	// (adding the other channel's slack never lowers the bound).
	ix.needT = ix.tagQ || (ix.bothQ && !ix.termQ)
	ix.needM = ix.termQ || (ix.bothQ && !ix.tagQ)
	ix.needQ2 = !ix.tagQ && ix.bothQ
	if !ix.bothQ {
		// No pair can reach γ at all: every similarity is 0 and every
		// document relocates to the trash cluster, flat scan included.
		// Candidates() returns no candidates without any structure.
		return
	}

	ix.repLen = resizeI32(ix.repLen, k)
	ix.allActive = resizeU64(ix.allActive, w)
	maxLen := 0
	for j, rep := range reps {
		if rep == nil || rep.Len() == 0 {
			continue
		}
		ix.repLen[j] = int32(rep.Len())
		setBit(ix.allActive, j)
		ix.active++
		if rep.Len() > maxLen {
			maxLen = rep.Len()
		}
	}

	// Zero the persistent tag bitsets (stale tags keep zeroed entries —
	// harmless under OR — so the map never needs rebuilding).
	if ix.needT {
		for tag, b := range ix.tagReps {
			if cap(b) < w {
				ix.tagReps[tag] = make([]uint64, w)
				continue
			}
			b = b[:w]
			for x := range b {
				b[x] = 0
			}
			ix.tagReps[tag] = b
		}
	}
	if ix.needM {
		clear(ix.termSlot)
		ix.termBits = ix.termBits[:0]
		ix.nslots = 0
	}
	if ix.needQ2 {
		ix.repPosOff = append(ix.repPosOff[:0], 0)
		ix.posTermOff = append(ix.posTermOff[:0], 0)
		ix.posTerms = ix.posTerms[:0]
	}

	if cap(ix.bTps) < maxLen {
		ix.bTps = make([]xmltree.PathID, maxLen)
		ix.bVecs = make([]vector.Sparse, maxLen)
	}
	for j, rep := range reps {
		if rep == nil || rep.Len() == 0 {
			if ix.needQ2 {
				ix.repPosOff = append(ix.repPosOff, int32(len(ix.posTermOff)-1))
			}
			continue
		}
		n := rep.Len()
		tps, vecs := ix.bTps[:n], ix.bVecs[:n]
		// ResolveColumns handles spanless transactions too — representatives
		// are synthetic and never carry a columnar span.
		cx.Items.ResolveColumns(rep.Items, tps, vecs)
		if ix.needT {
			for _, tp := range tps {
				path := cx.Paths.Path(tp)
				if len(path) == 0 {
					ix.addTag(emptyPathTag, j, w)
					continue
				}
				for _, tag := range path {
					ix.addTag(tag, j, w)
				}
			}
		}
		if ix.needM {
			for _, v := range vecs {
				for _, en := range v.Entries() {
					slot, ok := ix.termSlot[en.Term]
					if !ok {
						slot = int32(ix.nslots)
						ix.nslots++
						ix.termSlot[en.Term] = slot
						ix.termBits = appendZeroWords(ix.termBits, w)
					}
					setBit(ix.termBits[int(slot)*w:int(slot)*w+w], j)
				}
			}
		}
		if ix.needQ2 {
			for _, v := range vecs {
				for _, en := range v.Entries() {
					ix.posTerms = append(ix.posTerms, en.Term)
				}
				ix.posTermOff = append(ix.posTermOff, int32(len(ix.posTerms)))
			}
			ix.repPosOff = append(ix.repPosOff, int32(len(ix.posTermOff)-1))
		}
	}

	// Fold tag bitsets into one bitset per interned tag path: position i's
	// T_i is then a single slab read. Built for every PathID known now;
	// paths interned later fall back to allActive at query time.
	if ix.needT {
		P := cx.Paths.Len()
		ix.pathsLen = P
		ix.pathBits = resizeU64(ix.pathBits, P*w)
		for p := 0; p < P; p++ {
			dst := ix.pathBits[p*w : p*w+w]
			path := cx.Paths.Path(xmltree.PathID(p))
			if len(path) == 0 {
				orInto(dst, ix.tagReps[emptyPathTag])
				continue
			}
			for _, tag := range path {
				orInto(dst, ix.tagReps[tag])
			}
		}
	}
}

func (ix *RepIndex) addTag(tag string, j, w int) {
	b, ok := ix.tagReps[tag]
	if !ok {
		b = make([]uint64, w)
		ix.tagReps[tag] = b
	}
	setBit(b, j)
}

// RepQuery is the reusable per-goroutine state of index queries: the q1
// counters, the candidate list with its upper bounds, the document-side
// resolution buffers and the epoch-stamped term set for the lazy q2 pass.
// Like Scratch it is not safe for concurrent use — every Scratch carries one
// (Scratch.Query), so a worker that owns a scratch owns its query state too.
type RepQuery struct {
	q1   []int32
	cand []int32
	ub   []float64

	vecs   []vector.Sparse
	tpRaw  []xmltree.PathID
	tps    []xmltree.PathID
	tpIdx  []int32
	tpBits []uint64 // per-distinct-tag-path rep bitsets (nd × w)
	qBits  []uint64
	mBits  []uint64

	stamp []uint32 // per-term epoch stamps for the lazy q2 membership test
	epoch uint32
}

// NewRepQuery returns an empty query scratch; buffers grow on first use and
// are reused afterwards (warm queries allocate nothing).
func NewRepQuery() *RepQuery { return &RepQuery{} }

// Len, Less, Swap implement sort.Interface over the candidate list:
// descending upper bound, ascending representative index on ties — exactly
// the order in which the relocation loop's early exit is sound.
func (rq *RepQuery) Len() int { return len(rq.cand) }

func (rq *RepQuery) Less(a, b int) bool {
	if rq.ub[a] != rq.ub[b] {
		return rq.ub[a] > rq.ub[b]
	}
	return rq.cand[a] < rq.cand[b]
}

func (rq *RepQuery) Swap(a, b int) {
	rq.cand[a], rq.cand[b] = rq.cand[b], rq.cand[a]
	rq.ub[a], rq.ub[b] = rq.ub[b], rq.ub[a]
}

// Candidate returns the i-th candidate (0 ≤ i < Candidates' return): the
// representative index and its exact upper bound on simγJ.
func (rq *RepQuery) Candidate(i int) (int, float64) {
	return int(rq.cand[i]), rq.ub[i]
}

// reset prepares the scratch for a new query against ix. q1 is sparse-reset
// through the previous candidate list (the only entries that became
// nonzero), so a query costs O(candidates), not O(k).
func (rq *RepQuery) reset(ix *RepIndex) {
	if len(rq.q1) != ix.k {
		rq.q1 = make([]int32, ix.k)
	} else {
		for _, j := range rq.cand {
			rq.q1[j] = 0
		}
	}
	rq.cand = rq.cand[:0]
	rq.ub = rq.ub[:0]
	w := ix.w
	if cap(rq.qBits) < w {
		rq.qBits = make([]uint64, w)
		rq.mBits = make([]uint64, w)
	} else {
		rq.qBits = rq.qBits[:w]
		rq.mBits = rq.mBits[:w]
	}
}

func (rq *RepQuery) ensureDoc(n int) {
	if cap(rq.vecs) < n {
		rq.vecs = make([]vector.Sparse, n)
		rq.tpRaw = make([]xmltree.PathID, n)
		rq.tps = make([]xmltree.PathID, n)
		rq.tpIdx = make([]int32, n)
	} else {
		rq.vecs = rq.vecs[:n]
		rq.tpRaw = rq.tpRaw[:n]
		rq.tps = rq.tps[:n]
		rq.tpIdx = rq.tpIdx[:n]
	}
}

func (rq *RepQuery) bumpEpoch() {
	rq.epoch++
	if rq.epoch == 0 { // wrapped: every stale stamp would read as current
		for i := range rq.stamp {
			rq.stamp[i] = 0
		}
		rq.epoch = 1
	}
}

func (rq *RepQuery) stampTerm(t int32) {
	if int(t) >= len(rq.stamp) {
		grown := make([]uint32, int(t)+1+len(rq.stamp)/2)
		copy(grown, rq.stamp)
		rq.stamp = grown
	}
	rq.stamp[t] = rq.epoch
}

func (rq *RepQuery) stamped(t int32) bool {
	return int(t) < len(rq.stamp) && rq.stamp[t] == rq.epoch
}

// Candidates fills rq with the representatives that could possibly win tr's
// relocation argmax — every rep with nonzero similarity to tr is included —
// sorted by (upper bound desc, rep index asc), and returns their count.
// Candidate i is read with rq.Candidate(i). The bounds are exact (see the
// file comment): UB ≥ simγJ(tr, rep) holds in IEEE arithmetic, not just in
// real arithmetic, so strict comparisons against them reproduce the flat
// scan's decisions byte for byte.
func (ix *RepIndex) Candidates(tr *txn.Transaction, rq *RepQuery) int {
	rq.reset(ix)
	n1 := tr.Len()
	if n1 == 0 || ix.active == 0 || !ix.bothQ {
		return 0
	}
	rq.ensureDoc(n1)
	w := ix.w
	cx := ix.cx

	// Resolve the document side exactly as the kernel does (columnar span
	// when available, table fallback otherwise), minus the kernel's
	// ColumnarResolves accounting — this resolution feeds the index, not an
	// Eq. 4 evaluation.
	var src []xmltree.PathID
	if cols, start := tr.ColumnarSpan(); cols != nil {
		if ix.needM {
			cx.Items.ResolveVectors(tr.Items, rq.vecs)
		}
		src = cols.TagPathSpan(start, n1)
	} else {
		cx.Items.ResolveColumns(tr.Items, rq.tpRaw, rq.vecs)
		src = rq.tpRaw
	}

	nd := 0
	if ix.needT {
		nd = indexTagPaths(src, rq.tps, rq.tpIdx)
		if need := nd * w; cap(rq.tpBits) < need {
			rq.tpBits = make([]uint64, need)
		} else {
			rq.tpBits = rq.tpBits[:need]
		}
		for d := 0; d < nd; d++ {
			dst := rq.tpBits[d*w : d*w+w]
			if p := int(rq.tps[d]); p < ix.pathsLen {
				copy(dst, ix.pathBits[p*w:p*w+w])
			} else {
				// Interned after Build (serve's online adds): no sound
				// per-tag information, so admit every active rep.
				copy(dst, ix.allActive)
			}
		}
	}

	// One pass over the document's positions, accumulating q1.
	for i := 0; i < n1; i++ {
		qb := rq.qBits
		var mb []uint64
		if ix.needM {
			mb = rq.mBits
			for x := range mb {
				mb[x] = 0
			}
			for _, en := range rq.vecs[i].Entries() {
				if slot, ok := ix.termSlot[en.Term]; ok {
					orInto(mb, ix.termBits[int(slot)*w:int(slot)*w+w])
				}
			}
		}
		var tb []uint64
		if ix.needT {
			d := int(rq.tpIdx[i])
			tb = rq.tpBits[d*w : d*w+w]
		}
		switch {
		case ix.tagQ && ix.termQ:
			for x := range qb {
				qb[x] = tb[x] | mb[x]
			}
		case ix.tagQ:
			for x := range qb {
				qb[x] = tb[x]
			}
		case ix.termQ:
			for x := range qb {
				qb[x] = mb[x]
			}
		default: // only bothQ: both channels must be present
			for x := range qb {
				qb[x] = tb[x] & mb[x]
			}
		}
		for x, word := range qb {
			for word != 0 {
				j := x<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if rq.q1[j] == 0 {
					rq.cand = append(rq.cand, int32(j))
				}
				rq.q1[j]++
			}
		}
	}
	if len(rq.cand) == 0 {
		return 0
	}

	// Lazy rep side: stamp the document's term set once, then bound the
	// markable positions of each candidate.
	if ix.needQ2 {
		rq.bumpEpoch()
		for i := 0; i < n1; i++ {
			for _, en := range rq.vecs[i].Entries() {
				rq.stampTerm(en.Term)
			}
		}
	}
	for _, j32 := range rq.cand {
		j := int(j32)
		q := rq.q1[j]
		if ix.tagQ {
			q += ix.repLen[j]
		} else {
			q += ix.lazyQ2(j, rq)
		}
		u := txn.UnionSize(tr, ix.reps[j])
		rq.ub = append(rq.ub, float64(q)/float64(u))
	}
	// sort.Sort on the pointer receiver: the interface conversion boxes a
	// pointer, so a warm query stays allocation-free (sort.Slice would
	// allocate its closure).
	sort.Sort(rq)
	return len(rq.cand)
}

// lazyQ2 counts the positions of rep j sharing at least one TCU term with
// the (stamped) document — the rep-side bound when tag-only matches cannot
// qualify.
func (ix *RepIndex) lazyQ2(j int, rq *RepQuery) int32 {
	var q int32
	for p := ix.repPosOff[j]; p < ix.repPosOff[j+1]; p++ {
		for _, t := range ix.posTerms[ix.posTermOff[p]:ix.posTermOff[p+1]] {
			if rq.stamped(t) {
				q++
				break
			}
		}
	}
	return q
}

func orInto(dst, src []uint64) {
	if src == nil {
		return
	}
	for x := range dst {
		dst[x] |= src[x]
	}
}

func appendZeroWords(b []uint64, n int) []uint64 {
	for i := 0; i < n; i++ {
		b = append(b, 0)
	}
	return b
}

func resizeI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

func resizeU64(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}
