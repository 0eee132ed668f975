package tuple

import (
	"fmt"
	"math/rand"
	"testing"

	"xmlclust/internal/xmltree"
)

// variantsByMap is variants as it was while it grouped an element's children
// through a map, an order slice and a radix slice of its own, kept verbatim
// as the oracle of TestVariantsMatchMapGrouping.
func variantsByMap(n *xmltree.Node, max int) ([]variant, int64) {
	if n.IsLeaf() {
		return []variant{{n}}, 1
	}
	if len(n.Children) == 0 {
		// Empty element: a single alternative contributing no leaves.
		return []variant{{}}, 1
	}
	// Group children by label, preserving first-seen order.
	type group struct {
		alts  []variant
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
	out := make([]variant, 0, limit)
	for idx := int64(0); idx < limit; idx++ {
		rem := idx
		v := variant{}
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
		// Restore document order of leaves (groups were visited reversed).
		sortByDocOrder(v)
		out = append(out, v)
	}
	return out, total
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

// TestVariantsMatchMapGrouping: Extract enumerates, pointer for pointer, the
// leaf sets the map-grouping variants enumerated — same groups in first-seen
// order, same mixed-radix order with the last group least significant, same
// cap, same totals up to saturation — on the shapes above, the paper's
// document and random trees, at caps that truncate everywhere, somewhere and
// nowhere. The extractor is pooled, so the trees also run one after the other
// through whatever the last one left in it.
func TestVariantsMatchMapGrouping(t *testing.T) {
	trees := oracleTrees()
	trees["paper"] = paperTree(t)
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 60; i++ {
		trees[fmt.Sprint("random-", i)] = randomTree(rng)
	}
	saturated := false
	for name, tree := range trees {
		for _, max := range []int{1, 3, 17, 4096} {
			want, total := variantsByMap(tree.Root, max)
			res := Extract(tree, Options{MaxTuplesPerTree: max})
			if res.TotalCombinations != total || res.Truncated != (total > int64(len(want))) {
				t.Fatalf("%s, max %d: total %d truncated %v, want %d over %d variants",
					name, max, res.TotalCombinations, res.Truncated, total, len(want))
			}
			if len(res.Tuples) != len(want) {
				t.Fatalf("%s, max %d: %d tuples, want %d", name, max, len(res.Tuples), len(want))
			}
			for i, tt := range res.Tuples {
				if len(tt.Leaves) != len(want[i]) {
					t.Fatalf("%s, max %d: tuple %d has %d leaves, want %d", name, max, i, len(tt.Leaves), len(want[i]))
				}
				for j, lf := range tt.Leaves {
					if lf.Node != want[i][j] {
						t.Fatalf("%s, max %d: tuple %d leaf %d is node %d, want node %d", name, max, i, j, lf.Node.ID, want[i][j].ID)
					}
				}
			}
			saturated = saturated || total == combinationCap
		}
	}
	if !saturated {
		t.Fatal("no tree saturated the combination count")
	}
}

// TestExtractAllocations pins what extracting one DBLP-shaped record
// allocates: the result (the tuple slice; per tuple the tuple, its leaves and
// a path per leaf first met) plus a slice header per leaf and the variants of
// the one element with several labels. The grouping tables are pooled working
// memory: a map, an order slice or a radix slice per element would add three
// allocations for each of the record's eight elements.
func TestExtractAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drains sync.Pool at random; the guard runs without it")
	}
	tree, err := xmltree.ParseString(`<dblp><article key="journals/x/Y26"><author>A. Author</author>`+
		`<title>A title of some words</title><journal>J</journal><volume>4</volume><year>2026</year>`+
		`<pages>1-12</pages></article></dblp>`, xmltree.DefaultParseOptions())
	if err != nil {
		t.Fatal(err)
	}
	Extract(tree, Options{}) // the pool's first extractor, its tables grown to this record
	got := testing.AllocsPerRun(200, func() { Extract(tree, Options{}) })
	t.Logf("Extract allocates %.0f objects for a record of %d nodes", got, len(tree.Nodes))
	const want = 26
	if got > want {
		t.Fatalf("Extract allocates %.0f objects for one record, want at most %d", got, want)
	}
}
