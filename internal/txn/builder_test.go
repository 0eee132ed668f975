package txn

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"xmlclust/internal/tuple"
	"xmlclust/internal/xmltree"
)

func builderTestTrees(t *testing.T, n int) []*xmltree.Tree {
	t.Helper()
	trees := make([]*xmltree.Tree, n)
	for i := range trees {
		doc := fmt.Sprintf(
			`<doc id="%d"><title>title %d</title><a>alpha %d</a><a>beta</a><nested><deep>leaf %d</deep></nested></doc>`,
			i, i, i%3, i)
		tree, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tree
	}
	return trees
}

func corpusFingerprint(t *testing.T, c *Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBuilderMatchesBatchBuild(t *testing.T) {
	opts := BuildOptions{
		Tuple:  tuple.Options{MaxTuplesPerTree: 8},
		Labels: []int{2, 0, 1}, // shorter than the corpus: tail docs → −1
	}
	mk := func() []*xmltree.Tree { return builderTestTrees(t, 5) }

	batch := Build(mk(), opts)
	b := NewBuilder(opts)
	for _, tree := range mk() {
		b.Add(tree)
	}
	incremental := b.Finish()

	if !bytes.Equal(corpusFingerprint(t, batch), corpusFingerprint(t, incremental)) {
		t.Fatal("incremental builder corpus differs from batch Build")
	}
	if b.Docs() != 5 {
		t.Fatalf("Docs() = %d, want 5", b.Docs())
	}
	for i, tr := range incremental.Transactions {
		want := -1
		if tr.Doc < len(opts.Labels) {
			want = opts.Labels[tr.Doc]
		}
		if tr.Label != want {
			t.Fatalf("transaction %d (doc %d) label %d, want %d", i, tr.Doc, tr.Label, want)
		}
	}
}

func TestBuilderAddLabeledOverrides(t *testing.T) {
	trees := builderTestTrees(t, 2)
	b := NewBuilder(BuildOptions{})
	b.AddLabeled(trees[0], 7)
	b.AddLabeled(trees[1], -1)
	c := b.Finish()
	for _, tr := range c.Transactions {
		want := 7
		if tr.Doc == 1 {
			want = -1
		}
		if tr.Label != want {
			t.Fatalf("doc %d label %d, want %d", tr.Doc, tr.Label, want)
		}
	}
}

// recordingSink verifies the observer contract: called once per document,
// in order, with exactly that document's transactions.
type recordingSink struct {
	docs []int
	txns []int
}

func (r *recordingSink) ObserveDoc(doc int, trs []*Transaction) {
	r.docs = append(r.docs, doc)
	r.txns = append(r.txns, len(trs))
	for _, tr := range trs {
		if tr.Doc != doc {
			panic(fmt.Sprintf("sink got transaction of doc %d in doc %d's batch", tr.Doc, doc))
		}
	}
}

func TestBuilderObserveDocOrder(t *testing.T) {
	trees := builderTestTrees(t, 4)
	sink := &recordingSink{}
	b := NewBuilder(BuildOptions{Tuple: tuple.Options{MaxTuplesPerTree: 8}})
	b.Observe(sink)
	for _, tree := range trees {
		b.Add(tree)
	}
	c := b.Finish()
	if len(sink.docs) != 4 {
		t.Fatalf("sink saw %d documents, want 4", len(sink.docs))
	}
	total := 0
	for i, d := range sink.docs {
		if d != i {
			t.Fatalf("sink docs out of order: %v", sink.docs)
		}
		total += sink.txns[i]
	}
	if total != len(c.Transactions) {
		t.Fatalf("sink saw %d transactions, corpus has %d", total, len(c.Transactions))
	}
}

func TestBuilderTruncationAndDepth(t *testing.T) {
	// Many same-label siblings force tuple truncation at a tiny cap.
	wide := "<r>"
	for i := 0; i < 6; i++ {
		wide += fmt.Sprintf("<x><y>a%d</y></x>", i)
	}
	wide += "</r>"
	tree, err := xmltree.ParseString(wide)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(BuildOptions{Tuple: tuple.Options{MaxTuplesPerTree: 2}})
	b.Add(tree)
	c := b.Finish()
	if c.TruncatedDocs != 1 {
		t.Fatalf("TruncatedDocs = %d, want 1", c.TruncatedDocs)
	}
	if c.MaxDepth != tree.Depth() {
		t.Fatalf("MaxDepth = %d, want %d", c.MaxDepth, tree.Depth())
	}
}

// TestBuilderUseAfterFinishPanics pins the use-after-Finish guard on every
// mutating entry point: a silent post-Finish append would grow a corpus
// whose itf weights are already finalized, leaving the new items with
// stale zero weights — exactly the corruption an online serving layer
// would otherwise hit.
func TestBuilderUseAfterFinishPanics(t *testing.T) {
	tree := builderTestTrees(t, 1)[0]
	cases := []struct {
		name string
		use  func(b *Builder)
	}{
		{"Add", func(b *Builder) { b.Add(tree) }},
		{"AddLabeled", func(b *Builder) { b.AddLabeled(tree, 3) }},
		{"AddExtracted", func(b *Builder) {
			b.AddExtracted(tree, tuple.Extract(tree, tuple.Options{}), -1)
		}},
		{"Observe", func(b *Builder) { b.Observe(&recordingSink{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(BuildOptions{})
			b.Finish()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Finish should panic", tc.name)
				}
			}()
			tc.use(b)
		})
	}
}

// TestReopenBuilder pins the deliberate escape hatch: reopening a finished
// corpus appends documents with non-colliding ids against the shared
// interning tables, and the reopened builder re-arms the Finish guard.
func TestReopenBuilder(t *testing.T) {
	trees := builderTestTrees(t, 3)
	opts := BuildOptions{Tuple: tuple.Options{MaxTuplesPerTree: 8}}
	b := NewBuilder(opts)
	b.Add(trees[0])
	b.Add(trees[1])
	c := b.Finish()
	itemsBefore, txnsBefore := c.Items.Len(), len(c.Transactions)

	rb := ReopenBuilder(c, b.Docs(), opts)
	if rb.Corpus() != c {
		t.Fatal("reopened builder must build onto the same corpus")
	}
	sink := &recordingSink{}
	rb.Observe(sink)
	rb.AddLabeled(trees[2], 5)
	if got := rb.Finish(); got != c {
		t.Fatal("Finish of a reopened builder must return the same corpus")
	}

	if len(c.Transactions) <= txnsBefore {
		t.Fatal("reopened builder appended no transactions")
	}
	for _, tr := range c.Transactions[txnsBefore:] {
		if tr.Doc != 2 {
			t.Fatalf("appended transaction carries doc id %d, want 2", tr.Doc)
		}
		if tr.Label != 5 {
			t.Fatalf("appended transaction carries label %d, want 5", tr.Label)
		}
	}
	if len(sink.docs) != 1 || sink.docs[0] != 2 {
		t.Fatalf("sink saw docs %v, want [2]", sink.docs)
	}
	// Shared interning: trees repeat answers, so the appended document must
	// dedupe against existing items rather than re-intern everything.
	if grown := c.Items.Len() - itemsBefore; grown >= itemsBefore {
		t.Fatalf("item table grew by %d from %d — interning not shared?", grown, itemsBefore)
	}

	// The reopened builder's own Finish re-arms the guard.
	defer func() {
		if recover() == nil {
			t.Fatal("Add after reopened Finish should panic")
		}
	}()
	rb.Add(trees[0])
}

// perOccurrenceBuild is the interning loop as it stood before leaves were
// interned once per node: every occurrence of a leaf in a tuple interns its
// path and its item again. The reference for the once-per-leaf builder.
func perOccurrenceBuild(trees []*xmltree.Tree, opts tuple.Options) *Corpus {
	paths := xmltree.NewPathTable()
	c := &Corpus{Paths: paths, Items: NewItemTable(paths), Terms: NewTermTable()}
	for doc, t := range trees {
		res := tuple.Extract(t, opts)
		if res.Truncated {
			c.TruncatedDocs++
		}
		if d := t.Depth(); d > c.MaxDepth {
			c.MaxDepth = d
		}
		for i, tt := range res.Tuples {
			var ids []ItemID
			for _, lf := range tt {
				ids = append(ids, c.Items.Intern(c.Paths.Intern(res.Leaves[lf].Path), res.Leaves[lf].Answer))
			}
			c.Transactions = append(c.Transactions, NewTransaction(ids, doc, i, -1))
		}
	}
	return c
}

// TestBuilderInternsOncePerLeaf checks the shapes where interning a leaf
// node once and copying its id could differ from interning every
// occurrence: one leaf retained by many tuples, distinct leaf nodes that
// are the same item, a truncated enumeration, and the scratch carrying
// nothing over from a larger document to a smaller one.
func TestBuilderInternsOncePerLeaf(t *testing.T) {
	docs := []string{
		// "shared" is one leaf node retained by all three tuples.
		`<r><k>shared</k><a>one</a><a>two</a><a>three</a></r>`,
		// Two different <a> leaves with the same path and answer, in
		// different tuples (one tuple can never hold both): one item.
		`<r><a>same</a><a>same</a><b>x</b></r>`,
		// 3×3×2 = 18 combinations against a cap of 4.
		`<r><a>1</a><a>2</a><a>3</a><b>1</b><b>2</b><b>3</b><c>1</c><c>2</c></r>`,
		// Fewer leaves than its predecessor, and leaf indices that collide with it.
		`<r><b>x</b></r>`,
		`<r/>`,
	}
	opts := tuple.Options{MaxTuplesPerTree: 4}
	var trees []*xmltree.Tree
	for _, d := range docs {
		trees = append(trees, xmltree.MustParseString(d))
	}
	b := NewBuilder(BuildOptions{Tuple: opts})
	for _, tree := range trees {
		b.Add(tree)
	}
	got, want := b.Finish(), perOccurrenceBuild(trees, opts)
	if !bytes.Equal(corpusFingerprint(t, got), corpusFingerprint(t, want)) {
		t.Fatal("once-per-leaf builder and per-occurrence interning save different corpora")
	}
	if got.TruncatedDocs != 1 {
		t.Fatalf("TruncatedDocs = %d, want 1", got.TruncatedDocs)
	}

	byDoc := map[int][]*Transaction{}
	for _, tr := range got.Transactions {
		byDoc[tr.Doc] = append(byDoc[tr.Doc], tr)
	}
	// Doc 0: three tuples that all hold the item of the shared leaf.
	kPath, _ := got.Paths.Lookup(xmltree.ParsePath("r.k.S"))
	shared := got.Items.Intern(kPath, "shared")
	if len(byDoc[0]) != 3 {
		t.Fatalf("doc 0 has %d transactions, want 3", len(byDoc[0]))
	}
	for _, tr := range byDoc[0] {
		if !tr.Contains(shared) || tr.Len() != 2 {
			t.Fatalf("doc 0 tuple %d = %v, want the shared item plus one <a>", tr.TupleIndex, tr.Items)
		}
	}
	// Doc 1: two tuples, equal as item sets.
	if len(byDoc[1]) != 2 || !byDoc[1][0].Equal(byDoc[1][1]) {
		t.Fatalf("doc 1: distinct leaf nodes with one ⟨path, answer⟩ did not intern to one item: %v", byDoc[1])
	}
	if len(byDoc[2]) != 4 {
		t.Fatalf("doc 2 has %d transactions, want the cap of 4", len(byDoc[2]))
	}
	// Doc 3's only leaf is doc 1's <b>x</b> item, not whatever sat at its
	// leaf index in the scratch.
	if len(byDoc[3]) != 1 || byDoc[3][0].Len() != 1 || !byDoc[1][0].Contains(byDoc[3][0].Items[0]) {
		t.Fatalf("doc 3 = %v", byDoc[3])
	}
	if len(byDoc[4]) != 1 || byDoc[4][0].Len() != 0 {
		t.Fatalf("doc 4 (empty root) = %v, want one empty transaction", byDoc[4])
	}

	// Transactions over the finished tables — what classification of a
	// document uses — resolves every document to the builder's id sets and
	// interns nothing.
	items, paths := got.Items.Len(), got.Paths.Len()
	for doc, tree := range trees {
		trs := Transactions(got, tuple.Extract(tree, opts), -1, -1)
		if len(trs) != len(byDoc[doc]) {
			t.Fatalf("doc %d: %d transient transactions, builder made %d", doc, len(trs), len(byDoc[doc]))
		}
		for i, tr := range trs {
			if !tr.Equal(byDoc[doc][i]) || tr.Doc != -1 || tr.TupleIndex != byDoc[doc][i].TupleIndex {
				t.Fatalf("doc %d tuple %d: transient %+v, builder %+v", doc, i, tr, byDoc[doc][i])
			}
		}
	}
	if got.Items.Len() != items || got.Paths.Len() != paths {
		t.Fatal("re-extracting known documents interned new items or paths")
	}
}

// TestTagPathMemoOverCorpus: for every path of a built corpus and of the
// corpus loaded back from its file, the memoized TagPath is the id of the
// path minus its last symbol — or the id itself for a tag path — and every
// item carries its path's tag path.
func TestTagPathMemoOverCorpus(t *testing.T) {
	built := Build(builderTestTrees(t, 6), BuildOptions{})
	for name, c := range map[string]*Corpus{"built": built, "loaded": roundtrip(t, built)} {
		for id := xmltree.PathID(0); int(id) < c.Paths.Len(); id++ {
			p := c.Paths.Path(id)
			want := id
			if p.IsComplete() {
				var ok bool
				if want, ok = c.Paths.Lookup(p[:len(p)-1]); !ok {
					t.Fatalf("%s: tag path of %q not interned", name, p)
				}
			}
			if got := c.Paths.TagPath(id); got != want {
				t.Errorf("%s: TagPath(%q) = %q, want %q", name, p, c.Paths.Path(got), c.Paths.Path(want))
			}
		}
		for id := ItemID(0); int(id) < c.Items.Len(); id++ {
			if it := c.Items.Get(id); it.TagPath != c.Paths.TagPath(it.Path) {
				t.Errorf("%s: item %v has tag path %d", name, it, it.TagPath)
			}
		}
	}
}

// TestTransactionBlockSpansAreClamped: a document's transactions share one
// block of item ids, each Items a span of it whose capacity ends where the
// span does, so appending to one transaction leaves its neighbour as it was.
func TestTransactionBlockSpansAreClamped(t *testing.T) {
	tree, err := xmltree.ParseString(`<r><k>shared</k><a>one</a><a>two</a><a>three</a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	c := Build([]*xmltree.Tree{tree}, BuildOptions{})
	if len(c.Transactions) != 3 {
		t.Fatalf("%d transactions, want 3", len(c.Transactions))
	}
	for i, tr := range c.Transactions {
		if cap(tr.Items) != len(tr.Items) {
			t.Errorf("transaction %d: cap %d beyond its %d items", i, cap(tr.Items), len(tr.Items))
		}
	}
	first, next := c.Transactions[0], c.Transactions[1]
	want := slices.Clone(next.Items)
	first.Items = append(first.Items, 99, 100)
	if !slices.Equal(next.Items, want) {
		t.Fatalf("appending to transaction 0 changed transaction 1: %v, want %v", next.Items, want)
	}
}
