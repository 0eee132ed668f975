package txn

import (
	"slices"

	"xmlclust/internal/tuple"
	"xmlclust/internal/xmltree"
)

// DocSink observes each completed document during incremental corpus
// building: doc is the document id and trs the transactions extracted from
// it (a sub-slice of Corpus.Transactions; read-only). It is the hook the
// ttf.itf accumulator attaches to, so per-document term counts can be
// folded away while the tree is still the only document in memory — without
// a txn→weighting dependency.
type DocSink interface {
	ObserveDoc(doc int, trs []*Transaction)
}

// LeafInterner turns the tuples of one extracted document into transactions
// over a corpus's item domain, interning each distinct leaf node once: a
// leaf retained by many tuples resolves its ⟨path, answer⟩ pair at its first
// occurrence (in tuple order, so interning order — hence every path and
// item id — is that of a per-occurrence loop) and later tuples copy the id.
// The zero value is ready; a LeafInterner is scratch to reuse across
// documents, not safe for concurrent use.
type LeafInterner struct {
	byNode []ItemID // by Node.ID: item id + 1, 0 = leaf not met in this document
}

// Transactions interns the leaves of res — which must be the tuple
// extraction of t — into c's tables and returns one transaction per tuple,
// in tuple order, carrying the given document id and label. The
// transactions are one block, and so are their item ids: each Items is a
// capacity-clamped span of it, so appending to one reallocates it instead
// of overwriting the next.
func (li *LeafInterner) Transactions(c *Corpus, t *xmltree.Tree, res tuple.Result, doc, label int) []*Transaction {
	li.intern(c, t, res)
	n := 0
	for _, tt := range res.Tuples {
		n += len(tt.Leaves)
	}
	ids := make([]ItemID, n)
	block := make([]Transaction, len(res.Tuples))
	out := make([]*Transaction, len(res.Tuples))
	for i, tt := range res.Tuples {
		span := ids[:len(tt.Leaves)]
		for j, lf := range tt.Leaves {
			span[j] = li.byNode[lf.Node.ID] - 1
		}
		span = sortedSet(span)
		ids = ids[len(span):]
		block[i] = Transaction{Items: span[:len(span):len(span)], Doc: doc, TupleIndex: tt.Index, Label: label}
		out[i] = &block[i]
	}
	return out
}

// intern resolves every distinct leaf node of res to its item id under one
// write lock of the item table, so a document costs one lock, not one per
// leaf.
func (li *LeafInterner) intern(c *Corpus, t *xmltree.Tree, res tuple.Result) {
	li.byNode = slices.Grow(li.byNode[:0], len(t.Nodes))[:len(t.Nodes)]
	clear(li.byNode)
	c.Items.mu.Lock()
	defer c.Items.mu.Unlock()
	for _, tt := range res.Tuples {
		for _, lf := range tt.Leaves {
			if li.byNode[lf.Node.ID] == 0 {
				key := itemKey{path: c.Paths.Intern(lf.Path), answer: lf.Node.Value}
				li.byNode[lf.Node.ID] = c.Items.internLocked(key) + 1
			}
		}
	}
}

// Builder constructs a transactional corpus incrementally: Add one parsed
// tree at a time, Finish once. Unlike the batch Build entry point, the
// builder never retains the trees it is fed — each tree is released to the
// garbage collector as soon as its tuples are extracted and interned — so
// corpus size is bounded by the transactional model, not by the XML.
// Documents are numbered in Add order, which fully determines the interning
// tables: feeding the same trees in the same order yields a corpus
// byte-identical to Build's, however the trees were produced.
//
// A Builder is not safe for concurrent use; parallel ingestion serializes
// Add calls through an index-ordered merge (see internal/corpus).
type Builder struct {
	opts   BuildOptions
	c      *Corpus
	sinks  []DocSink
	intern LeafInterner
	docs   int
	done   bool
}

// NewBuilder creates an empty corpus builder.
func NewBuilder(opts BuildOptions) *Builder {
	paths := xmltree.NewPathTable()
	return &Builder{
		opts: opts,
		c: &Corpus{
			Paths: paths,
			Items: NewItemTable(paths),
			Terms: NewTermTable(),
		},
	}
}

// ReopenBuilder resumes incremental building on a corpus that an earlier
// builder already finished: the returned builder appends new documents to
// c, numbering them from nextDoc (normally the document count of the
// finished corpus, so ids never collide — the builder cannot infer it from
// c because documents may legitimately contribute zero transactions).
// Interning tables are shared, so items and paths of the new documents
// dedupe against the existing collection and the combined corpus stays
// consistent. The caller owns weighting consistency: items first seen
// through a reopened builder carry zero vectors until a weighting pass
// (weighting.Accumulator.WeighNew or a full re-Finalize) assigns them.
// This is the online-ingestion entry point of the serving layer.
func ReopenBuilder(c *Corpus, nextDoc int, opts BuildOptions) *Builder {
	if c == nil {
		panic("txn: ReopenBuilder on nil corpus")
	}
	if nextDoc < 0 {
		panic("txn: ReopenBuilder with negative next document id")
	}
	return &Builder{opts: opts, c: c, docs: nextDoc}
}

// Corpus exposes the corpus under construction. The interning tables are
// valid from the start (observers need them); Transactions grows with Add.
func (b *Builder) Corpus() *Corpus { return b.c }

// Observe registers a sink notified after each document's transactions are
// appended. Sinks run on the Add goroutine, in document order. Registering
// a sink on a finished builder panics: it could never fire.
func (b *Builder) Observe(s DocSink) {
	if b.done {
		panic("txn: Builder.Observe after Finish")
	}
	b.sinks = append(b.sinks, s)
}

// Docs returns the number of documents added so far.
func (b *Builder) Docs() int { return b.docs }

// Add extracts the tree tuples of t and appends its transactions. The
// document's label comes from BuildOptions.Labels when the slice covers its
// id, else −1.
func (b *Builder) Add(t *xmltree.Tree) {
	b.AddLabeled(t, b.labelFor(b.docs))
}

// AddLabeled is Add with an explicit ground-truth label (−1 = unknown).
func (b *Builder) AddLabeled(t *xmltree.Tree, label int) {
	b.AddExtracted(t, tuple.Extract(t, b.opts.Tuple), label)
}

// AddExtracted appends a document whose tuple extraction already ran —
// the entry point of the parallel ingest pipeline, where extraction happens
// on worker goroutines and only the order-sensitive interning is serialized
// here. res must be tuple.Extract(t, opts.Tuple) for the builder's options.
func (b *Builder) AddExtracted(t *xmltree.Tree, res tuple.Result, label int) {
	if b.done {
		panic("txn: Builder.Add after Finish")
	}
	docID := b.docs
	b.docs++
	t.DocID = docID
	if d := t.Depth(); d > b.c.MaxDepth {
		b.c.MaxDepth = d
	}
	if res.Truncated {
		b.c.TruncatedDocs++
	}
	start := len(b.c.Transactions)
	b.c.Transactions = append(b.c.Transactions, b.intern.Transactions(b.c, t, res, docID, label)...)
	for _, s := range b.sinks {
		s.ObserveDoc(docID, b.c.Transactions[start:])
	}
}

// Finish seals the builder and returns the corpus. Vectors are zero until a
// weighting finalize pass runs (weighting.Accumulator or weighting.Apply).
// Any Add/AddLabeled/AddExtracted after Finish panics: a silent append
// would mutate a corpus whose itf weights are already finalized, leaving
// the new items with stale (zero) weights. Callers that genuinely need to
// grow a finished corpus reopen it explicitly with ReopenBuilder and run
// their own weighting pass.
func (b *Builder) Finish() *Corpus {
	b.done = true
	return b.c
}

func (b *Builder) labelFor(docID int) int {
	if docID < len(b.opts.Labels) {
		return b.opts.Labels[docID]
	}
	return -1
}
