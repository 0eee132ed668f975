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

// Transactions interns the leaves of res — one document's tuple extraction
// — into c's tables and returns one transaction per tuple, in tuple order,
// carrying the given document id and label. Each distinct leaf is resolved
// to its ⟨path, answer⟩ item once, at its first occurrence in tuple order
// (so interning order — hence every path and item id — is that of a
// per-occurrence loop), under one write lock of the item table; later
// tuples copy the id. The transactions are one block, and so are their item
// ids: each Items is a capacity-clamped span of it, so appending to one
// reallocates it instead of overwriting the next.
func Transactions(c *Corpus, res tuple.Result, doc, label int) []*Transaction {
	var in interner
	return in.transactions(c, c.Items, res, doc, label)
}

// Overlay resolves documents that are not added, one at a time, and leaves
// the item table as it found it: an unseen item goes into a stage over it,
// restaged for reuse, records and all. Only an unseen complete path is
// interned, in c.Paths, which grows with the schema, not with the documents.
type Overlay struct {
	c     *Corpus
	items *ItemTable
	in    interner
}

// NewOverlay returns an overlay over c.
func NewOverlay(c *Corpus) *Overlay { return &Overlay{c: c, items: c.Items.Stage()} }

// Resolve rebases the stage on the table as it is now and returns it with
// res's transactions, as Transactions gives them with doc and label −1.
func (o *Overlay) Resolve(res tuple.Result) (*ItemTable, []*Transaction) {
	o.items.Restage()
	return o.items, o.in.transactions(o.c, o.items, res, -1, -1)
}

// interner is the scratch of Transactions that a Builder keeps.
type interner struct {
	byLeaf []ItemID // by leaf of the document: item id + 1, 0 = not met yet
	// paths memoizes the ids of at most 4096 paths by the address of their
	// last symbol: tuple extraction spells a path out in one read-only array
	// that every leaf on it shares, across documents, so the ids of a
	// collection's few paths are looked up without spelling out their keys.
	paths map[*string]xmltree.PathID
}

func (in *interner) transactions(c *Corpus, items *ItemTable, res tuple.Result, doc, label int) []*Transaction {
	byLeaf := slices.Grow(in.byLeaf[:0], len(res.Leaves))[:len(res.Leaves)]
	in.byLeaf = byLeaf
	clear(byLeaf)
	n := 0
	items.mu.Lock()
	for _, tt := range res.Tuples {
		n += len(tt)
		for _, i := range tt {
			if byLeaf[i] == 0 {
				lf := res.Leaves[i]
				byLeaf[i] = items.internLocked(in.path(c, lf.Path), lf.Answer) + 1
			}
		}
	}
	items.mu.Unlock()
	ids := make([]ItemID, n)
	block := make([]Transaction, len(res.Tuples))
	out := make([]*Transaction, len(res.Tuples))
	for i, tt := range res.Tuples {
		span := ids[:len(tt)]
		for j, lf := range tt {
			span[j] = byLeaf[lf] - 1
		}
		span = sortedSet(span)
		ids = ids[len(span):]
		block[i] = Transaction{Items: span[:len(span):len(span)], Doc: doc, TupleIndex: i, Label: label}
		out[i] = &block[i]
	}
	return out
}

// path interns p, a complete path, in c.Paths.
func (in *interner) path(c *Corpus, p xmltree.Path) xmltree.PathID {
	key := &p[len(p)-1]
	if id, ok := in.paths[key]; ok {
		return id
	}
	id := c.Paths.Intern(p)
	if in.paths == nil || len(in.paths) >= 4096 {
		in.paths = map[*string]xmltree.PathID{}
	}
	in.paths[key] = id
	return id
}

// Builder constructs a transactional corpus incrementally: Add one document
// at a time — a parsed tree, or the tuples of raw XML — and Finish once.
// Unlike the batch Build entry point, the builder retains nothing of a
// document but its transactions, so corpus size is bounded by the
// transactional model, not by the XML.
// Documents are numbered in Add order, which fully determines the interning
// tables: feeding the same documents in the same order yields a corpus
// byte-identical to Build's, whether they came as trees or as raw XML.
//
// A Builder is not safe for concurrent use; parallel ingestion serializes
// Add calls through an index-ordered merge (see internal/corpus).
type Builder struct {
	opts   BuildOptions
	c      *Corpus
	sinks  []DocSink
	intern interner
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
	b.AddTuples(tuple.Extract(t, b.opts.Tuple), label)
}

// AddExtracted is AddTuples; the tree is not read.
//
// Deprecated: goes with the next benchmark PR.
func (b *Builder) AddExtracted(_ *xmltree.Tree, res tuple.Result, label int) { b.AddTuples(res, label) }

// AddTuples appends a document given as its tuple extraction — the entry
// point of raw XML, which tuple.ExtractBytes extracts without a tree, and
// of the parallel ingest pipeline, where extraction happens on worker
// goroutines and only the order-sensitive interning is serialized here.
func (b *Builder) AddTuples(res tuple.Result, label int) {
	if b.done {
		panic("txn: Builder.Add after Finish")
	}
	docID := b.docs
	b.docs++
	b.c.MaxDepth = max(b.c.MaxDepth, res.Depth)
	if res.Truncated {
		b.c.TruncatedDocs++
	}
	start := len(b.c.Transactions)
	trs := b.intern.transactions(b.c, b.c.Items, res, docID, label)
	b.c.Transactions = append(grow(b.c.Transactions, len(trs)), trs...)
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
