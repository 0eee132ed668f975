package tuple

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/xmltree"
)

// nodes is the leaf set of one subtree alternative as the oracle enumerates
// it: the leaf nodes, in document order.
type nodes []*xmltree.Node

// variantsByMap is the tree-walk oracle of extraction: a recursion over a
// tree's nodes that groups an element's children through a map, an order
// slice and a radix slice of its own, and sorts leaves by Node.ID.
func variantsByMap(n *xmltree.Node, max int) ([]nodes, int64) {
	if n.IsLeaf() {
		return []nodes{{n}}, 1
	}
	if len(n.Children) == 0 {
		// Empty element: a single alternative contributing no leaves.
		return []nodes{{}}, 1
	}
	// Group children by label, preserving first-seen order.
	type group struct {
		alts  []nodes
		total int64
	}
	order := make([]string, 0, 4)
	groups := make(map[string]*group, 4)
	for _, c := range n.Children {
		g, ok := groups[c.Label]
		if !ok {
			g = &group{}
			groups[c.Label] = g
			order = append(order, c.Label)
		}
		cv, ct := variantsByMap(c, max)
		g.alts = append(g.alts, cv...)
		g.total = satAdd(g.total, ct)
		if len(g.alts) > max {
			g.alts = g.alts[:max]
		}
	}
	total := int64(1)
	for _, lbl := range order {
		total = satMul(total, groups[lbl].total)
	}
	// Mixed-radix cross product over groups, deterministic order, capped.
	// The enumerable count is bounded by the product of the (possibly
	// already truncated) per-group alternative counts.
	radices := make([]int, len(order))
	enumerable := int64(1)
	for i, lbl := range order {
		radices[i] = len(groups[lbl].alts)
		enumerable = satMul(enumerable, int64(radices[i]))
	}
	limit := total
	if limit > int64(max) {
		limit = int64(max)
	}
	if limit > enumerable {
		limit = enumerable
	}
	out := make([]nodes, 0, limit)
	for idx := int64(0); idx < limit; idx++ {
		rem := idx
		v := nodes{}
		ok := true
		for gi := len(order) - 1; gi >= 0; gi-- {
			r := int64(radices[gi])
			if r == 0 {
				ok = false
				break
			}
			pick := rem % r
			rem /= r
			v = append(v, groups[order[gi]].alts[pick]...)
		}
		if !ok {
			break
		}
		// Restore document order of leaves (groups were visited reversed):
		// node ids are in document order.
		slices.SortFunc(v, func(a, b *xmltree.Node) int { return a.ID - b.ID })
		out = append(out, v)
	}
	return out, total
}

// walkLeaves lists the leaves of t in the order a walk meets them: the
// order of Result.Leaves for Extract(t) and, t parsed, for ExtractBytes.
func walkLeaves(t *xmltree.Tree) nodes {
	var out nodes
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.IsLeaf() {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return out
}

// tupleNodes maps the tuples of res, extracted from t, to leaf nodes of t.
func tupleNodes(t *xmltree.Tree, res Result) []nodes {
	leaves := walkLeaves(t)
	out := make([]nodes, len(res.Tuples))
	for i, tt := range res.Tuples {
		for _, lf := range tt {
			out[i] = append(out[i], leaves[lf])
		}
	}
	return out
}

// sameAsOracle describes how res, an extraction of t at the cap max, differs
// from what the oracle enumerates on t — leaf for leaf in every tuple, each
// leaf's path and answer, the totals and the depth — or returns "".
func sameAsOracle(t *xmltree.Tree, res Result, max int) string {
	if max <= 0 {
		max = DefaultMaxTuplesPerTree
	}
	var want []nodes
	total := int64(0)
	if t.Root != nil {
		want, total = variantsByMap(t.Root, max)
	}
	if res.TotalCombinations != total || res.Truncated != (total > int64(len(want))) || res.Depth != t.Depth() {
		return fmt.Sprintf("total %d truncated %v depth %d, want %d over %d variants, depth %d",
			res.TotalCombinations, res.Truncated, res.Depth, total, len(want), t.Depth())
	}
	leaves := walkLeaves(t)
	if len(res.Leaves) != len(leaves) {
		return fmt.Sprintf("%d leaves, want %d", len(res.Leaves), len(leaves))
	}
	for i, lf := range res.Leaves {
		if p := xmltree.NodePath(leaves[i]).String(); lf.Path.String() != p || lf.Answer != leaves[i].Value {
			return fmt.Sprintf("leaf %d is %s = %q, want %s = %q", i, lf.Path, lf.Answer, p, leaves[i].Value)
		}
	}
	got := tupleNodes(t, res)
	if len(got) != len(want) {
		return fmt.Sprintf("%d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			return fmt.Sprintf("tuple %d holds nodes %v, want %v", i, ids(got[i]), ids(want[i]))
		}
	}
	return ""
}

func ids(v nodes) []int {
	out := make([]int, len(v))
	for i, n := range v {
		out[i] = n.ID
	}
	return out
}

// materialize builds a tuple of src as a standalone tree: the union of the
// root-to-leaf paths of its leaves.
func materialize(src *xmltree.Tree, v nodes) *xmltree.Tree {
	out := &xmltree.Tree{}
	made := map[*xmltree.Node]*xmltree.Node{}
	var ensure func(n *xmltree.Node) *xmltree.Node
	ensure = func(n *xmltree.Node) *xmltree.Node {
		if m, ok := made[n]; ok {
			return m
		}
		var parent *xmltree.Node
		if n.Parent != nil {
			parent = ensure(n.Parent)
		}
		m := out.NewNode(n.Kind, n.Label, n.Value, parent)
		if n.Parent == nil {
			out.Root = m
		}
		made[n] = m
		return m
	}
	if len(v) == 0 && src.Root != nil {
		ensure(src.Root)
	}
	for _, n := range v {
		ensure(n)
	}
	return out
}

// checkInvariant verifies that a tuple of src satisfies the tree tuple
// condition |Aτ(p)| ≤ 1 for every complete and tag path of the tuple.
func checkInvariant(src *xmltree.Tree, v nodes) error {
	counts := map[string]int{}
	var walk func(n *xmltree.Node, prefix string)
	walk = func(n *xmltree.Node, prefix string) {
		p := prefix + n.Label
		counts[p]++
		for _, c := range n.Children {
			walk(c, p+".")
		}
	}
	if m := materialize(src, v); m.Root != nil {
		walk(m.Root, "")
	}
	for p, c := range counts {
		if c > 1 {
			return fmt.Errorf("tuple %v: path %s has %d answers", ids(v), p, c)
		}
	}
	return nil
}

// leafy adds an element with one text child.
func leafy(t *xmltree.Tree, parent *xmltree.Node, label, text string) {
	t.AddText(t.AddElement(parent, label), text)
}

// oracleTrees are the shapes grouping can get wrong, by name.
func oracleTrees() map[string]*xmltree.Tree {
	trees := map[string]*xmltree.Tree{"empty-element": xmltree.NewTree("r")}

	leaf := xmltree.NewTree("r")
	leaf.AddAttribute(leaf.Root, "id", "7")
	leaf.AddText(leaf.Root, "text")
	trees["leaves-only"] = leaf

	repeated := xmltree.NewTree("r")
	for i := 0; i < 7; i++ {
		leafy(repeated, repeated.Root, "x", fmt.Sprint(i))
	}
	trees["one-label-repeated"] = repeated

	distinct := xmltree.NewTree("r")
	for i := 0; i < 6; i++ {
		leafy(distinct, distinct.Root, fmt.Sprintf("l%d", i), fmt.Sprint(i))
	}
	trees["all-labels-distinct"] = distinct

	// The quadratic trap of grouping by a scan over the groups met so far,
	// with three labels that come back after the other 297 were met.
	wide := xmltree.NewTree("r")
	for i := 0; i < 303; i++ {
		leafy(wide, wide.Root, fmt.Sprintf("l%d", i%300), fmt.Sprint(i))
	}
	trees["300-distinct-labels"] = wide

	// Siblings past the scan's reach with the same labels: their groups go
	// through the label table, where only the stamp tells them apart.
	siblings := xmltree.NewTree("r")
	for s := 0; s < 2; s++ {
		w := siblings.AddElement(siblings.Root, "w")
		for i := 0; i < 24; i++ {
			leafy(siblings, w, fmt.Sprintf("l%d", i%(12-s)), fmt.Sprint(s, i))
		}
	}
	trees["wide-siblings"] = siblings

	// Labels interleaved, repeats at two depths, an empty element among them
	// and a label that means one group under one parent and another under the
	// next: the stamp, not the label alone, must say which group.
	nested := xmltree.NewTree("r")
	for i := 0; i < 3; i++ {
		a := nested.AddElement(nested.Root, "a")
		leafy(nested, nested.Root, "b", fmt.Sprint("b", i))
		for j := 0; j <= i; j++ {
			leafy(nested, a, "b", fmt.Sprint("ab", i, j))
			leafy(nested, a, "c", fmt.Sprint("ac", i, j))
		}
		nested.AddElement(a, "e")
		nested.AddAttribute(a, "k", fmt.Sprint(i))
	}
	trees["nested-repeats"] = nested

	// 40 alternatives under each of 10 labels: 40^10 > 2^50, the total saturates.
	huge := xmltree.NewTree("r")
	for g := 0; g < 10; g++ {
		for i := 0; i < 40; i++ {
			leafy(huge, huge.Root, fmt.Sprintf("g%d", g), fmt.Sprint(g, i))
		}
	}
	trees["saturating-product"] = huge
	return trees
}

// TestVariantsMatchMapGrouping: Extract enumerates, leaf for leaf, the leaf
// sets the tree-walk oracle enumerates — same groups in first-seen order,
// same mixed-radix order with the last group least significant, same cap,
// same totals up to saturation — on the shapes above, the paper's document
// and random trees, at caps that truncate everywhere, somewhere and nowhere.
// The extractor is pooled, so the trees also run one after the other through
// whatever the last one left in it.
func TestVariantsMatchMapGrouping(t *testing.T) {
	trees := oracleTrees()
	trees["paper"] = paperTree(t)
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 60; i++ {
		trees[fmt.Sprint("random-", i)] = randomTree(rng)
	}
	saturated := false
	for _, name := range slices.Sorted(maps.Keys(trees)) {
		tree := trees[name]
		for _, max := range []int{1, 3, 17, 4096} {
			res := Extract(tree, Options{MaxTuplesPerTree: max})
			if d := sameAsOracle(tree, res, max); d != "" {
				t.Fatalf("%s, max %d: %s", name, max, d)
			}
			saturated = saturated || res.TotalCombinations == combinationCap
		}
	}
	if !saturated {
		t.Fatal("no tree saturated the combination count")
	}
}

// TestExtractAllocations pins what extracting one DBLP-shaped record
// allocates: the result's four blocks — the leaves, their paths, the tuples
// and their leaf indices — and, read from its bytes, the leaf values besides.
// The grouping tables and the alternatives are pooled working memory: a map,
// an order slice or a radix slice per element would add three allocations
// for each of the record's eight elements, and an alternative made per leaf
// two for each of its seven leaves.
func TestExtractAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drains sync.Pool at random; the guard runs without it")
	}
	doc := []byte(`<dblp><article key="journals/x/Y26"><author>A. Author</author>` +
		`<title>A title of some words</title><journal>J</journal><volume>4</volume><year>2026</year>` +
		`<pages>1-12</pages></article></dblp>`)
	tree, err := xmltree.ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	Extract(tree, Options{}) // the pool's first extractor, its tables grown to this record
	got := testing.AllocsPerRun(200, func() { Extract(tree, Options{}) })
	t.Logf("Extract allocates %.0f objects for a record of %d nodes", got, len(tree.Nodes))
	const want = 4
	if got > want {
		t.Fatalf("Extract allocates %.0f objects for one record, want at most %d", got, want)
	}
	leaves := len(tree.Leaves())
	got = testing.AllocsPerRun(200, func() {
		if _, err := ExtractBytes(doc, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ExtractBytes allocates %.0f objects for a record of %d leaves", got, leaves)
	if got > float64(want+leaves) {
		t.Fatalf("ExtractBytes allocates %.0f objects for one record, want at most %d", got, want+leaves)
	}
}
