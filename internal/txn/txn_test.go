package txn

import (
	"sync"
	"testing"

	"xmlclust/internal/tuple"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

const paperDoc = `
<dblp>
  <inproceedings key="conf/kdd/ZakiA03">
    <author>M.J. Zaki</author>
    <author>C.C. Aggarwal</author>
    <title>XRules: an effective structural classifier for XML data</title>
    <year>2003</year>
    <booktitle>KDD</booktitle>
    <pages>316-325</pages>
  </inproceedings>
  <inproceedings key="conf/kdd/Zaki02">
    <author>M.J. Zaki</author>
    <title>Efficiently mining frequent trees in a forest</title>
    <year>2002</year>
    <booktitle>KDD</booktitle>
    <pages>71-80</pages>
  </inproceedings>
</dblp>`

func buildPaperCorpus(t *testing.T) *Corpus {
	t.Helper()
	tree, err := xmltree.ParseString(paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	return Build([]*xmltree.Tree{tree}, BuildOptions{})
}

// TestPaperItemDomain reproduces Fig. 4: 3 transactions over 11 distinct
// items.
func TestPaperItemDomain(t *testing.T) {
	c := buildPaperCorpus(t)
	if len(c.Transactions) != 3 {
		t.Fatalf("transactions = %d, want 3", len(c.Transactions))
	}
	if c.Items.Len() != 11 {
		t.Fatalf("items = %d, want 11 (Fig. 4(b))", c.Items.Len())
	}
	for _, tr := range c.Transactions {
		if tr.Len() != 6 {
			t.Errorf("transaction %d has %d items, want 6", tr.TupleIndex, tr.Len())
		}
	}
}

// TestPaperSharedItems checks that tr1 and tr2 share 5 items (all but the
// author) and tr3 shares the booktitle and author items as in Fig. 4(c).
func TestPaperSharedItems(t *testing.T) {
	c := buildPaperCorpus(t)
	tr1, tr2, tr3 := c.Transactions[0], c.Transactions[1], c.Transactions[2]
	if got := tr1.Len() + tr2.Len() - UnionSize(tr1, tr2); got != 5 {
		t.Errorf("tr1∩tr2 = %d, want 5", got)
	}
	// tr3 shares booktitle 'KDD' and author 'M.J. Zaki' with tr1.
	if got := tr1.Len() + tr3.Len() - UnionSize(tr1, tr3); got != 2 {
		t.Errorf("tr1∩tr3 = %d, want 2", got)
	}
	// tr2 (Aggarwal tuple) shares only booktitle with tr3.
	if got := tr2.Len() + tr3.Len() - UnionSize(tr2, tr3); got != 1 {
		t.Errorf("tr2∩tr3 = %d, want 1", got)
	}
}

// TestItemTableInternSemantics also checks the two levels of the index: an
// answer under two paths is two items, and a path id nothing was indexed
// under yet — one the path table holds, or one past every indexed path —
// finds nothing until an item is interned under it.
func TestItemTableInternSemantics(t *testing.T) {
	paths := xmltree.NewPathTable()
	items := NewItemTable(paths)
	p := paths.Intern(xmltree.ParsePath("a.b.S"))
	q := paths.Intern(xmltree.ParsePath("a.c.S"))
	id1 := items.Intern(p, "hello")
	id2 := items.Intern(p, "hello")
	id3 := items.Intern(p, "world")
	if id1 != id2 {
		t.Errorf("same item interned twice")
	}
	if id1 == id3 {
		t.Errorf("different answers share id")
	}
	if idq := items.Intern(q, "hello"); idq == id1 || idq == id3 || items.Intern(q, "hello") != idq {
		t.Errorf("hello under a second path interned as %d (under the first: %d)", idq, id1)
	}
	if id, ok := items.Lookup(q, "world"); ok {
		t.Errorf("Lookup(q, world) = %d: world was interned under p only", id)
	}
	unused := paths.Intern(xmltree.ParsePath("a.d.S"))
	for _, path := range []xmltree.PathID{unused, unused + 100} {
		if id, ok := items.Lookup(path, "hello"); ok {
			t.Errorf("Lookup on path %d, with nothing under it, = %d", path, id)
		}
	}
	if id := items.Intern(unused, "hello"); id != 3 || items.Len() != 4 {
		t.Errorf("first item under a new path: id %d of %d items, want 3 of 4", id, items.Len())
	}
	it := items.Get(id1)
	if it.Answer != "hello" || it.Path != p {
		t.Errorf("item fields wrong: %+v", it)
	}
	if got := paths.Path(it.TagPath).String(); got != "a.b" {
		t.Errorf("tag path = %q", got)
	}
}

func TestItemFlatten(t *testing.T) {
	paths := xmltree.NewPathTable()
	items := NewItemTable(paths)
	p := paths.Intern(xmltree.ParsePath("a.b.S"))
	raw1 := items.Intern(p, "x")
	raw2 := items.Intern(p, "y")
	syn := items.InternSynthetic(p, MergedAnswerKey([]string{"x", "y"}), vector.Sparse{}, []ItemID{raw1, raw2})
	if got := items.Get(raw1).Flatten(); len(got) != 1 || got[0] != raw1 {
		t.Errorf("raw flatten = %v", got)
	}
	if got := items.Get(syn).Flatten(); len(got) != 2 {
		t.Errorf("synthetic flatten = %v", got)
	}
	if !items.Get(syn).Synthetic {
		t.Error("synthetic flag unset")
	}
	// Equal conflations intern to the same id.
	syn2 := items.InternSynthetic(p, MergedAnswerKey([]string{"y", "x"}), vector.Sparse{}, []ItemID{raw1, raw2})
	if syn != syn2 {
		t.Errorf("equal conflations got distinct ids")
	}
}

func TestMergedAnswerKeyCanonical(t *testing.T) {
	a := MergedAnswerKey([]string{"b", "a", "b", ""})
	b := MergedAnswerKey([]string{"a", "b"})
	if a != b {
		t.Errorf("keys differ: %q vs %q", a, b)
	}
	if MergedAnswerKey(nil) != "" {
		t.Errorf("empty key should be empty string")
	}
}

func TestNewTransactionDedupSort(t *testing.T) {
	tr := NewTransaction([]ItemID{5, 1, 5, 3, 1}, 0, 0, -1)
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Items[i-1] >= tr.Items[i] {
			t.Fatalf("not sorted: %v", tr.Items)
		}
	}
	if !tr.Contains(3) || tr.Contains(2) {
		t.Errorf("Contains wrong")
	}
}

func TestUnionSize(t *testing.T) {
	a := NewTransaction([]ItemID{1, 2, 3}, 0, 0, -1)
	b := NewTransaction([]ItemID{3, 4}, 0, 0, -1)
	if got := UnionSize(a, b); got != 4 {
		t.Errorf("union = %d, want 4", got)
	}
	empty := NewTransaction(nil, 0, 0, -1)
	if got := UnionSize(a, empty); got != 3 {
		t.Errorf("union with empty = %d", got)
	}
	if got := UnionSize(empty, empty); got != 0 {
		t.Errorf("union of empties = %d", got)
	}
}

func TestTransactionEqualClone(t *testing.T) {
	a := NewTransaction([]ItemID{1, 2}, 3, 4, 5)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Items[0] = 9
	if a.Equal(b) {
		t.Error("mutated clone still equal")
	}
	if a.Equal(nil) {
		t.Error("equal to nil")
	}
	if a.Equal(NewTransaction([]ItemID{1}, 0, 0, -1)) {
		t.Error("different lengths equal")
	}
}

func TestBuildLabelsPropagate(t *testing.T) {
	tree, _ := xmltree.ParseString(paperDoc)
	c := Build([]*xmltree.Tree{tree}, BuildOptions{Labels: []int{7}})
	for _, tr := range c.Transactions {
		if tr.Label != 7 {
			t.Errorf("label = %d, want 7", tr.Label)
		}
		if tr.Doc != 0 {
			t.Errorf("doc = %d, want 0", tr.Doc)
		}
	}
}

func TestBuildTruncationCounter(t *testing.T) {
	tree := xmltree.NewTree("r")
	for g := 0; g < 4; g++ {
		for c := 0; c < 6; c++ {
			el := tree.AddElement(tree.Root, map[int]string{0: "a", 1: "b", 2: "c", 3: "d"}[g])
			tree.AddText(el, MergedAnswerKey([]string{string(rune('a' + c))}))
		}
	}
	c := Build([]*xmltree.Tree{tree}, BuildOptions{Tuple: tuple.Options{MaxTuplesPerTree: 5}})
	if c.TruncatedDocs != 1 {
		t.Errorf("TruncatedDocs = %d, want 1", c.TruncatedDocs)
	}
	if len(c.Transactions) != 5 {
		t.Errorf("transactions = %d, want 5", len(c.Transactions))
	}
}

func TestMaxTransactionLen(t *testing.T) {
	trs := []*Transaction{
		NewTransaction([]ItemID{1}, 0, 0, -1),
		NewTransaction([]ItemID{1, 2, 3}, 0, 0, -1),
	}
	if got := MaxTransactionLen(trs); got != 3 {
		t.Errorf("MaxTransactionLen = %d", got)
	}
	if got := MaxTransactionLen(nil); got != 0 {
		t.Errorf("MaxTransactionLen(nil) = %d", got)
	}
}

func TestTermTable(t *testing.T) {
	tt := NewTermTable()
	a := tt.Intern("cluster")
	b := tt.Intern("cluster")
	c := tt.Intern("xml")
	if a != b || a == c {
		t.Errorf("intern ids wrong: %d %d %d", a, b, c)
	}
	if tt.Len() != 2 {
		t.Errorf("Len = %d", tt.Len())
	}
	if tt.Term(a) != "cluster" {
		t.Errorf("Term = %q", tt.Term(a))
	}
	if id, ok := tt.Lookup("xml"); !ok || id != c {
		t.Errorf("Lookup = %d %v", id, ok)
	}
	if _, ok := tt.Lookup("absent"); ok {
		t.Error("found absent term")
	}
}

func TestItemTableConcurrentIntern(t *testing.T) {
	paths := xmltree.NewPathTable()
	items := NewItemTable(paths)
	p := paths.Intern(xmltree.ParsePath("a.b.S"))
	var wg sync.WaitGroup
	results := make([]ItemID, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = items.Intern(p, "shared")
		}(g)
	}
	wg.Wait()
	for g := 1; g < 16; g++ {
		if results[g] != results[0] {
			t.Fatalf("concurrent intern diverged")
		}
	}
	if items.Len() != 1 {
		t.Fatalf("items = %d, want 1", items.Len())
	}
}

func TestCorpusMaxDepth(t *testing.T) {
	c := buildPaperCorpus(t)
	if c.MaxDepth != 4 {
		t.Errorf("MaxDepth = %d, want 4", c.MaxDepth)
	}
}
