// Package weighting implements the ttf.itf relevance weighting scheme of
// Sect. 4.1.2 — Tree tuple Term Frequency · Inverse Tree tuple Frequency —
// used to build the textual content unit (TCU) vectors of tree tuple items:
//
//	ttf.itf(w_j, u_i | τ) = tf(w_j,u_i) · exp(n_{j,τ}/N_τ) · (n_{j,XT}/N_XT) · ln(N_T/n_{j,T})
//
// where N_τ (resp. n_{j,τ}) is the number of TCUs in the tuple τ (resp.
// those containing w_j), N_XT/n_{j,XT} are the analogous counts at the
// document-tree level and N_T/n_{j,T} at the whole-collection level.
//
// One interpretation point: an item ⟨p, answer⟩ can occur in several tuples
// and trees (cf. item e5 in Fig. 4), so its context factors differ per
// occurrence while the item is a single domain object. We assign to the
// item the average of its per-occurrence ttf.itf weights; this keeps the
// item domain well-defined without losing the context sensitivity of the
// scheme.
//
// The scheme decomposes into a per-document part and a collection part: the
// tuple and tree factors of an occurrence depend only on the occurrence's
// own document, while the itf factor ln(N_T/n_{j,T}) needs collection
// totals that are plain monotone counters. Accumulator exploits this to
// weight a corpus in one streaming pass — per-document counts are folded
// into per-item running sums the moment a document completes, so no
// document state outlives its document — with Finalize applying the
// collection-level factors at the end. Apply is the batch driver over the
// same accumulator.
//
// The accumulator's state is dense. Term and item ids are dense integers,
// so every table keyed by one is a slice indexed by it: n_{j,T} is a slice
// that grows with the term table; each item carries its distinct terms in
// ascending order with its term frequencies and context sums in parallel
// slices; the per-tuple and per-document counters n_{j,τ} and n_{j,XT} are
// term-indexed arrays that each pass counts up and then counts back down to
// zero; the items of the current document are marked by an epoch stamp.
// The item- and term-indexed slices double their capacity when they fill.
// Folding a document therefore costs its (item, term) occurrences and
// touches no map. The one map left maps a raw token to its term id, so that
// the stopword test, the stemmer and the term table are consulted once per
// distinct token of the collection; it is read only while a new item's
// answer is scanned. The tuple factor exp(n_{j,τ}/N_τ) is computed once per
// distinct n_{j,τ} for a tuple length N_τ, from a table cleared when N_τ
// changes. None of this changes a bit of the output: the exp argument is the
// same, counts are integers, and each (item, term) context sum still
// receives its addends in occurrence order (reference_test.go holds the
// map-based fold this replaced and demands identical bits).
// Finalize fans out over items: an item's vector reads only its own sums and
// the final counters, and it is weighed into its own span of one arena, in
// term order, so the bits are the serial pass's for any worker count.
package weighting

import (
	"math"
	"slices"

	"xmlclust/internal/parallel"
	"xmlclust/internal/textproc"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
)

// Stats carries the collection-level counters computed during weighting,
// exposed for tests and diagnostics.
type Stats struct {
	// TotalTCUs is N_T: the number of TCUs over all tree tuples.
	TotalTCUs int
	// Vocabulary is |V| after term interning.
	Vocabulary int
	// EmptyItems counts items whose preprocessed text is empty (their TCU
	// vector is the zero vector; content similarity treats them as 0).
	EmptyItems int
}

// Accumulator computes ttf.itf incrementally. Feed each document's
// transactions with ObserveDoc as they are built (it implements
// txn.DocSink, so it plugs straight into txn.Builder.Observe), then call
// Finalize once to assign every item's vector. Memory is bounded by the
// item/term tables plus the current document — never by the corpus's
// document count. For the same corpus fed in the same document order the
// resulting vectors are byte-identical to the historical batch pass:
// per-item context sums accumulate in document order either way, and the
// collection-level itf factor is only applied at the end.
//
// All state is dense. Term and item ids are dense, so everything keyed by
// one is a slice indexed by it, and the per-document fold touches no map.
type Accumulator struct {
	c *txn.Corpus
	// Per-item state, extended lazily as interning grows the item table
	// (term interning therefore happens in item-id order, keeping term ids
	// deterministic). itemTerms[id] lists the item's distinct terms in
	// ascending order; itemTF[id] (term frequencies) and accCtx[id]
	// (occurrence-context running sums, allocated at the item's first
	// occurrence) are parallel to it:
	// accCtx[id][k] = Σ over occurrences of exp(n_{j,τ}/N_τ)·(n_{j,XT}/N_XT).
	itemTerms [][]int32
	itemTF    [][]int32
	accCtx    [][]float64
	accN      []int
	// weighedTo is a watermark: every id below it has had its vector pass
	// (Finalize or WeighNew), and WeighNew starts from it.
	weighedTo int
	// Collection-level counters, following the tuple-multiplicity reading:
	// N_T = Σ_τ N_τ and n_{j,T} = Σ_τ n_{j,τ}, the latter indexed by term.
	nT  int
	njT []int
	// tokenTerm memoizes raw token → term id (−1 = stopword or dropped), so
	// the stopword test, the stemmer and the term table run once per
	// distinct token. It is read only when a new item appears, and it is
	// bounded by the raw vocabulary.
	tokenTerm map[string]int32
	scan      textproc.Scanner
	terms, tf []int32 // the answer being scanned, before it is cloned to size
	// Per-document scratch. njTau and njXT are term-indexed counters that
	// are all zero between uses (each user un-counts what it counted);
	// docSeen[id] == docEpoch marks the items of the current document,
	// listed once each in docItems.
	njTau, njXT []int32
	docSeen     []int32
	docEpoch    int32
	docItems    []txn.ItemID
	// expTau[n] memoizes the tuple factor exp(n/N_τ) for N_τ = expLen;
	// 0 = not computed yet. It is cleared whenever N_τ changes.
	expTau []float64
	expLen int
}

// NewAccumulator creates an accumulator bound to the corpus under
// construction (the interning tables must be the ones the transactions
// reference).
func NewAccumulator(c *txn.Corpus) *Accumulator {
	return &Accumulator{c: c, tokenTerm: map[string]int32{}}
}

// termOf resolves one raw token to its term id through the memo. A miss is
// the only place a term id enters the accumulator, so it is also where the
// term-indexed arrays grow to the term table.
func (a *Accumulator) termOf(tok []byte) int32 {
	if t, ok := a.tokenTerm[string(tok)]; ok {
		return t
	}
	word, t := string(tok), int32(-1)
	if term, ok := textproc.Term(word); ok {
		t = a.c.Terms.Intern(term)
		for n := a.c.Terms.Len(); len(a.njT) < n; {
			a.njT = append(grow(a.njT, 1), 0)
			a.njTau = append(grow(a.njTau, 1), 0)
			a.njXT = append(grow(a.njXT, 1), 0)
		}
	}
	a.tokenTerm[word] = t
	return t
}

// syncItems extends the per-item state to cover items interned since the
// last call, preprocessing their answers and interning their terms.
func (a *Accumulator) syncItems() {
	n := a.c.Items.Len()
	if k := n - len(a.itemTerms); k > 0 {
		a.itemTerms, a.itemTF, a.accCtx = grow(a.itemTerms, k), grow(a.itemTF, k), grow(a.accCtx, k)
		a.accN, a.docSeen = grow(a.accN, k), grow(a.docSeen, k)
	}
	for id := len(a.itemTerms); id < n; id++ {
		terms, tf := a.terms[:0], a.tf[:0]
		// njTau doubles as this answer's slot table: position+1 of a term
		// already listed, 0 for a term not seen yet.
		a.scan.Reset(a.c.Items.Get(txn.ItemID(id)).Answer)
		for tok, ok := a.scan.Next(); ok; tok, ok = a.scan.Next() {
			t := a.termOf(tok)
			if t < 0 {
				continue
			}
			if slot := a.njTau[t]; slot > 0 {
				tf[slot-1]++
				continue
			}
			terms = append(terms, t)
			tf = append(tf, 1)
			a.njTau[t] = int32(len(terms))
		}
		slices.Sort(terms) // the slot table takes each term's frequency along
		itemTF := make([]int32, len(terms))
		for k, t := range terms {
			itemTF[k] = tf[a.njTau[t]-1]
			a.njTau[t] = 0
		}
		a.terms, a.tf = terms, tf
		a.itemTerms = append(a.itemTerms, slices.Clone(terms))
		a.itemTF = append(a.itemTF, itemTF)
		a.accCtx = append(a.accCtx, nil)
		a.accN = append(a.accN, 0)
		a.docSeen = append(a.docSeen, 0)
	}
}

// grow returns s with room for n more elements. A full slice doubles its
// capacity, where append would grow a long one by a quarter: the per-item
// and per-term columns grow a few entries per document, and each quarter
// step would copy them whole.
func grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, max(2*cap(s), len(s)+n, 16)), s...)
	}
	return s
}

// ObserveDoc folds one completed document into the accumulator: trs must be
// all transactions of document doc, exactly once per document, in document
// order. Implements txn.DocSink.
func (a *Accumulator) ObserveDoc(doc int, trs []*txn.Transaction) {
	a.syncItems()

	// Collection counts, and the document's distinct items.
	a.docEpoch++
	docItems := a.docItems[:0]
	for _, tr := range trs {
		a.nT += tr.Len()
		for _, id := range tr.Items {
			// itemTerms is already the distinct-term list of the item, so
			// n_{j,T} counts each (occurrence, term) pair exactly once.
			for _, t := range a.itemTerms[id] {
				a.njT[t]++
			}
			if a.docSeen[id] != a.docEpoch {
				a.docSeen[id] = a.docEpoch
				docItems = append(docItems, id)
			}
		}
	}
	a.docItems = docItems
	nXT := len(docItems)
	if nXT == 0 {
		return
	}
	njTau, njXT := a.njTau, a.njXT
	for _, id := range docItems {
		for _, t := range a.itemTerms[id] {
			njXT[t]++
		}
	}

	// Per-occurrence context factors, folded into the per-item sums.
	for _, tr := range trs {
		if tr.Len() == 0 {
			continue
		}
		nTau := float64(tr.Len())
		if tr.Len() != a.expLen {
			a.expLen = tr.Len()
			a.expTau = slices.Grow(a.expTau[:0], tr.Len()+1)[:tr.Len()+1]
			clear(a.expTau)
		}
		// n_{j,τ}: per-term count of TCUs (items) in this tuple.
		for _, id := range tr.Items {
			for _, t := range a.itemTerms[id] {
				njTau[t]++
			}
		}
		for _, id := range tr.Items {
			terms := a.itemTerms[id]
			if a.accCtx[id] == nil {
				a.accCtx[id] = make([]float64, len(terms))
			}
			a.accN[id]++
			ctx := a.accCtx[id]
			for k, t := range terms {
				tupleFactor := a.expTau[njTau[t]]
				if tupleFactor == 0 {
					tupleFactor = math.Exp(float64(njTau[t]) / nTau)
					a.expTau[njTau[t]] = tupleFactor
				}
				treeFactor := float64(njXT[t]) / float64(nXT)
				ctx[k] += tupleFactor * treeFactor
			}
		}
		for _, id := range tr.Items {
			for _, t := range a.itemTerms[id] {
				njTau[t] = 0
			}
		}
	}
	for _, id := range docItems {
		for _, t := range a.itemTerms[id] {
			njXT[t] = 0
		}
	}
}

// Finalize applies the collection-level itf factor and assigns every item's
// TCU vector, with one worker per CPU. Call once, after the last document.
func (a *Accumulator) Finalize() Stats { return a.FinalizeWorkers(0) }

// FinalizeWorkers is Finalize with the items weighed on the given number of
// workers (0 or negative = one per CPU, 1 = serial). The vectors are the same
// bits for any count.
func (a *Accumulator) FinalizeWorkers(workers int) Stats {
	a.syncItems()
	stats := Stats{TotalTCUs: a.nT, Vocabulary: a.c.Terms.Len()}
	n := len(a.itemTerms)
	// offs delimits each item's span of the entry arena; an empty span marks
	// an item that keeps its vector.
	offs := make([]int, n+1)
	for id, terms := range a.itemTerms {
		offs[id+1] = offs[id]
		if a.c.Items.Get(txn.ItemID(id)).Synthetic {
			// Synthetic representative items carry vectors conflated at
			// intern time; re-deriving them from the merged answer key
			// would clobber the exact conflation.
			continue
		}
		if len(terms) == 0 {
			stats.EmptyItems++
		}
		offs[id+1] += len(terms)
	}
	arena := make([]vector.Entry, offs[n])
	vecs := make([]vector.Sparse, n)
	_ = parallel.ForCtxWorkers(nil, workers, 64, n, func(_, id int) { // a nil ctx never cancels
		if lo, hi := offs[id], offs[id+1]; lo < hi {
			vecs[id] = a.weigh(id, arena[lo:lo:hi])
		}
	})
	for id := range vecs {
		if offs[id] < offs[id+1] {
			a.c.Items.SetVector(txn.ItemID(id), vecs[id])
		}
	}
	a.weighedTo = n
	return stats
}

// weigh computes one item's ttf.itf vector from its term frequencies, its
// context sums and the current collection counters, appending its entries
// to entries.
func (a *Accumulator) weigh(id int, entries []vector.Entry) vector.Sparse {
	terms := a.itemTerms[id]
	for k, t := range terms {
		avgCtx := 1.0
		if a.accN[id] > 0 {
			avgCtx = a.accCtx[id][k] / float64(a.accN[id])
		}
		if w := a.weight(t, a.itemTF[id][k], avgCtx); w > 0 {
			entries = append(entries, vector.Entry{Term: t, Weight: w})
		}
	}
	if len(entries) == 0 {
		return vector.Sparse{}
	}
	return vector.FromEntries(entries)
}

// weight is tf · avgCtx · ln(N_T/n_{j,T}); a term no observed document
// holds (a classify-time item's) counts once, so the idf stays finite.
func (a *Accumulator) weight(t, tf int32, avgCtx float64) float64 {
	nj := 1
	if int(t) < len(a.njT) {
		nj = max(a.njT[t], 1)
	}
	return float64(tf) * avgCtx * math.Log(float64(a.nT)/float64(nj))
}

// Staged is WeighStaged's scratch, kept from call to call: the call's terms
// that the term table lacks, by id, and the scan and weight buffers.
type Staged struct {
	terms map[string]int32
	scan  textproc.Scanner
	ids   []int32
	arena []vector.Entry
}

// WeighStaged assigns TCU vectors to the items st stages over the corpus's
// item table (txn.Overlay) and writes nothing else: each gets the bits
// WeighNew gives an item no document observed, and a term the table lacks
// the id it would be interned under. The vectors live in sc's arena until
// its next call; calls on scratches of their own may run concurrently.
func (a *Accumulator) WeighStaged(st *txn.ItemTable, sc *Staged) {
	if sc.terms == nil {
		sc.terms = map[string]int32{}
	}
	clear(sc.terms)
	sc.arena = sc.arena[:0]
	for id, end := st.Base(), txn.ItemID(st.Len()); id < end; id++ {
		ids := sc.ids[:0]
		sc.scan.Reset(st.Get(id).Answer)
		for tok, ok := sc.scan.Next(); ok; tok, ok = sc.scan.Next() {
			if t := a.stagedTerm(tok, sc); t >= 0 {
				ids = append(ids, t)
			}
		}
		sc.ids = ids
		slices.Sort(ids) // at N_T = 0 all weigh −∞: a zero vector, as in WeighNew
		lo := len(sc.arena)
		for k, n := 0, 0; k < len(ids); k += n {
			for n = 1; k+n < len(ids) && ids[k+n] == ids[k]; n++ {
			}
			if w := a.weight(ids[k], int32(n), 1); w > 0 {
				sc.arena = append(sc.arena, vector.Entry{Term: ids[k], Weight: w})
			}
		}
		st.SetVector(id, vector.FromEntries(slices.Clip(sc.arena[lo:]))) // no entry: a zero vector
	}
}

// stagedTerm is termOf without a write; a new term gets an id of sc's.
func (a *Accumulator) stagedTerm(tok []byte, sc *Staged) int32 {
	if t, ok := a.tokenTerm[string(tok)]; ok {
		return t
	}
	term, ok := textproc.Term(string(tok))
	if !ok {
		return -1
	}
	t, ok := a.c.Terms.Lookup(term)
	if !ok {
		t, ok = sc.terms[term]
	}
	if !ok {
		t = int32(a.c.Terms.Len() + len(sc.terms))
		sc.terms[term] = t
	}
	return t
}

// WeighNew assigns TCU vectors to the items interned since the last
// Finalize/WeighNew pass, using the CURRENT collection counters as a
// frozen-itf approximation — the online path of the serving layer, where a
// new document must be weighted and assigned immediately while the exact
// collection-wide re-weighting is deferred to the next representative
// refresh. Already-weighted items keep their vectors (their itf factors
// are not retroactively updated; only a fresh Finalize over a rebuilt
// corpus is exact), synthetic representative items are never touched, and
// items observed by no document weight with a neutral context factor.
// Returns the number of items weighted.
func (a *Accumulator) WeighNew() int {
	a.syncItems()
	n := len(a.itemTerms) - a.weighedTo
	for id := a.weighedTo; id < len(a.itemTerms); id++ {
		if a.c.Items.Get(txn.ItemID(id)).Synthetic {
			continue
		}
		if len(a.itemTerms[id]) == 0 || a.nT == 0 {
			continue // zero vector: no text, or nothing observed yet
		}
		a.c.Items.SetVector(txn.ItemID(id), a.weigh(id, make([]vector.Entry, 0, len(a.itemTerms[id]))))
	}
	a.weighedTo = len(a.itemTerms)
	return n
}

// Apply computes the ttf.itf TCU vector of every item in the corpus in one
// batch: it groups the corpus's transactions per document (first-seen
// order; txn.Build emits documents contiguously, so this is the build
// order) and drives an Accumulator over them. It must run once, after
// txn.Build and before clustering.
func Apply(c *txn.Corpus) Stats {
	a := NewAccumulator(c)
	var docs []int
	byDoc := map[int][]*txn.Transaction{}
	for _, tr := range c.Transactions {
		if _, ok := byDoc[tr.Doc]; !ok {
			docs = append(docs, tr.Doc)
		}
		byDoc[tr.Doc] = append(byDoc[tr.Doc], tr)
	}
	for _, doc := range docs {
		a.ObserveDoc(doc, byDoc[doc])
	}
	return a.Finalize()
}
