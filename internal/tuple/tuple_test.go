package tuple

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/xmltree"
)

// paperDoc is the Fig. 2 example whose tuple decomposition is given in
// Fig. 3: exactly three tree tuples.
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

func paperTree(t *testing.T) *xmltree.Tree {
	t.Helper()
	tree, err := xmltree.ParseString(paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestPaperExampleYieldsThreeTuples(t *testing.T) {
	res := Extract(paperTree(t), Options{})
	if len(res.Tuples) != 3 {
		t.Fatalf("tuples = %d, want 3 (Fig. 3)", len(res.Tuples))
	}
	if res.Truncated {
		t.Error("unexpected truncation")
	}
	if res.TotalCombinations != 3 {
		t.Errorf("total = %d, want 3", res.TotalCombinations)
	}
	// Each tuple has 6 leaves (key, one author, title, year, booktitle, pages).
	for i, tt := range res.Tuples {
		if len(tt) != 6 {
			t.Errorf("tuple %d has %d leaves, want 6", i, len(tt))
		}
	}
}

func TestTuplesSatisfyInvariant(t *testing.T) {
	tree := paperTree(t)
	for _, v := range tupleNodes(tree, Extract(tree, Options{})) {
		if err := checkInvariant(tree, v); err != nil {
			t.Error(err)
		}
	}
}

func TestTupleAuthorsAreAlternatives(t *testing.T) {
	tree := paperTree(t)
	authorSets := map[string]int{}
	for i, v := range tupleNodes(tree, Extract(tree, Options{})) {
		authors := materialize(tree, v).Answer(xmltree.ParsePath("dblp.inproceedings.author.S"))
		if len(authors) != 1 {
			t.Fatalf("tuple %d has %d authors, want 1", i, len(authors))
		}
		authorSets[authors[0]]++
	}
	// Zaki appears in two tuples (one per paper), Aggarwal in one.
	if authorSets["M.J. Zaki"] != 2 || authorSets["C.C. Aggarwal"] != 1 {
		t.Errorf("author multiplicities: %v", authorSets)
	}
}

func TestSingleRecordNoAlternatives(t *testing.T) {
	doc := `<root><a>1</a><b>2</b><c attr="x">3</c></root>`
	tree, _ := xmltree.ParseString(doc)
	res := Extract(tree, Options{})
	if len(res.Tuples) != 1 {
		t.Fatalf("tuples = %d, want 1", len(res.Tuples))
	}
	if got := len(res.Tuples[0]); got != 4 {
		t.Errorf("leaves = %d, want 4", got)
	}
}

func TestEmptyElementContributesNothing(t *testing.T) {
	doc := `<root><a>1</a><empty/></root>`
	tree, _ := xmltree.ParseString(doc)
	res := Extract(tree, Options{})
	if len(res.Tuples) != 1 {
		t.Fatalf("tuples = %d, want 1", len(res.Tuples))
	}
	if got := len(res.Tuples[0]); got != 1 {
		t.Errorf("leaves = %d, want 1 (empty element has no answer)", got)
	}
}

func TestCrossProductCount(t *testing.T) {
	// Two groups with 2 and 3 same-label children → 6 tuples.
	doc := `<r><a>1</a><a>2</a><b>x</b><b>y</b><b>z</b></r>`
	tree, _ := xmltree.ParseString(doc)
	res := Extract(tree, Options{})
	if len(res.Tuples) != 6 {
		t.Fatalf("tuples = %d, want 6", len(res.Tuples))
	}
	seen := map[string]bool{}
	for _, v := range tupleNodes(tree, res) {
		m := materialize(tree, v)
		key := fmt.Sprint(m.Answer(xmltree.ParsePath("r.a.S")), m.Answer(xmltree.ParsePath("r.b.S")))
		if seen[key] {
			t.Errorf("duplicate combination %s", key)
		}
		seen[key] = true
		if err := checkInvariant(tree, v); err != nil {
			t.Error(err)
		}
	}
}

func TestNestedAlternatives(t *testing.T) {
	// Nested same-label children multiply through the levels:
	// outer group has 2 children, each with 2 inner alternatives → 4.
	doc := `<r><g><x>1</x><x>2</x></g><g><x>3</x><x>4</x></g></r>`
	tree, _ := xmltree.ParseString(doc)
	res := Extract(tree, Options{})
	if len(res.Tuples) != 4 {
		t.Fatalf("tuples = %d, want 4", len(res.Tuples))
	}
}

func TestTruncationCap(t *testing.T) {
	// 4 groups of 4 alternatives each → 256 combinations; cap at 10.
	tree := xmltree.NewTree("r")
	for g := 0; g < 4; g++ {
		for c := 0; c < 4; c++ {
			el := tree.AddElement(tree.Root, fmt.Sprintf("g%d", g))
			tree.AddText(el, fmt.Sprintf("%d-%d", g, c))
		}
	}
	res := Extract(tree, Options{MaxTuplesPerTree: 10})
	if len(res.Tuples) != 10 {
		t.Fatalf("tuples = %d, want 10", len(res.Tuples))
	}
	if !res.Truncated {
		t.Error("expected truncation flag")
	}
	if res.TotalCombinations != 256 {
		t.Errorf("total = %d, want 256", res.TotalCombinations)
	}
	for _, v := range tupleNodes(tree, res) {
		if err := checkInvariant(tree, v); err != nil {
			t.Error(err)
		}
	}
}

func TestDeterministicEnumeration(t *testing.T) {
	tree := paperTree(t)
	a := Extract(tree, Options{})
	b := Extract(tree, Options{})
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatal("nondeterministic count")
	}
	for i := range a.Tuples {
		if !slices.Equal(a.Tuples[i], b.Tuples[i]) {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

func TestLeavesInDocumentOrder(t *testing.T) {
	tree := paperTree(t)
	for i, v := range tupleNodes(tree, Extract(tree, Options{})) {
		for j := 1; j < len(v); j++ {
			if v[j-1].ID >= v[j].ID {
				t.Errorf("tuple %d leaves out of order", i)
			}
		}
	}
}

// TestPropertyRandomTreesInvariant extracts tuples from random trees and
// checks the defining invariant plus the count formula on every tuple.
func TestPropertyRandomTreesInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		tree := randomTree(rng)
		res := Extract(tree, Options{MaxTuplesPerTree: 200})
		if len(res.Tuples) == 0 {
			t.Fatalf("trial %d: no tuples", trial)
		}
		for _, v := range tupleNodes(tree, res) {
			if err := checkInvariant(tree, v); err != nil {
				t.Fatalf("trial %d: %v\n%s", trial, err, tree)
			}
		}
		if !res.Truncated && res.TotalCombinations != int64(len(res.Tuples)) {
			t.Fatalf("trial %d: total %d != produced %d",
				trial, res.TotalCombinations, len(res.Tuples))
		}
	}
}

func randomTree(rng *rand.Rand) *xmltree.Tree {
	tree := xmltree.NewTree("root")
	labels := []string{"a", "b", "c", "d"}
	var grow func(parent *xmltree.Node, depth int)
	grow = func(parent *xmltree.Node, depth int) {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			lbl := labels[rng.Intn(len(labels))]
			if depth >= 3 || rng.Float64() < 0.5 {
				el := tree.AddElement(parent, lbl)
				tree.AddText(el, fmt.Sprintf("v%d", rng.Intn(100)))
				continue
			}
			el := tree.AddElement(parent, lbl)
			grow(el, depth+1)
		}
	}
	grow(tree.Root, 0)
	return tree
}

func TestMaterializePreservesValues(t *testing.T) {
	tree := paperTree(t)
	m := materialize(tree, tupleNodes(tree, Extract(tree, Options{}))[0])
	if m.Root.Label != "dblp" {
		t.Errorf("materialized root = %q", m.Root.Label)
	}
	if got := m.Answer(xmltree.ParsePath("dblp.inproceedings.booktitle.S")); len(got) != 1 || got[0] != "KDD" {
		t.Errorf("booktitle = %v", got)
	}
}

func BenchmarkExtractPaperDoc(b *testing.B) {
	tree, _ := xmltree.ParseString(paperDoc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Extract(tree, Options{})
	}
}
