// Package tuple implements XML tree tuple extraction (Sect. 3.2 of the
// paper). A tree tuple is a maximal subtree τ of an XML tree XT such that
// the answer of every (tag or complete) path of XT on τ has size at most
// one — the XML analogue of a relational tuple (Arenas & Libkin).
//
// Extraction enumerates, for every node, the cross product over the
// distinct-label child groups of the alternatives contributed by each group
// (two children with the same label can never coexist in one tuple because
// their shared path would then have two answers; children with different
// labels always coexist by maximality).
package tuple

import (
	"fmt"

	"xmlclust/internal/xmltree"
)

// Leaf is one leaf retained by a tree tuple, together with its complete
// path. A leaf node retained by several tuples of one tree has its path
// computed once: the Path slices of those Leaf values share one backing
// array and are read-only.
type Leaf struct {
	Node *xmltree.Node
	Path xmltree.Path
}

// TreeTuple is one tree tuple τ extracted from a source tree. The tuple is
// identified by the set of original leaves it retains; its node set is the
// union of the root paths of those leaves.
type TreeTuple struct {
	// Source is the tree the tuple was extracted from.
	Source *xmltree.Tree
	// Index is the position of the tuple in the enumeration order for its
	// source tree (stable for a fixed tree).
	Index int
	// Leaves lists the retained leaves in document order.
	Leaves []Leaf
}

// ID renders a stable human-readable identifier, e.g. "doc12#3".
func (t *TreeTuple) ID() string { return fmt.Sprintf("doc%d#%d", t.Source.DocID, t.Index) }

// Options bounds the enumeration.
type Options struct {
	// MaxTuplesPerTree caps the number of tuples materialized per source
	// tree; 0 means DefaultMaxTuplesPerTree. Trees whose combinatorial
	// product exceeds the cap are truncated deterministically (the first
	// MaxTuplesPerTree combinations in mixed-radix order) and reported via
	// Result.Truncated.
	MaxTuplesPerTree int
}

// DefaultMaxTuplesPerTree bounds the per-tree tuple blow-up. Text-centric
// documents (e.g. whole plays) can yield products in the millions; the cap
// keeps extraction linear in the returned output.
const DefaultMaxTuplesPerTree = 4096

// Result carries the tuples of one tree plus truncation diagnostics.
type Result struct {
	Tuples []*TreeTuple
	// Truncated reports that the full product exceeded the cap.
	Truncated bool
	// TotalCombinations is the untruncated number of tuples (saturating at
	// a large sentinel to avoid overflow).
	TotalCombinations int64
}

const combinationCap = int64(1) << 50

// Extract enumerates the tree tuples of t.
func Extract(t *xmltree.Tree, opts Options) Result {
	max := opts.MaxTuplesPerTree
	if max <= 0 {
		max = DefaultMaxTuplesPerTree
	}
	if t.Root == nil {
		return Result{}
	}
	vs, total := variants(t.Root, max)
	res := Result{TotalCombinations: total, Truncated: total > int64(len(vs))}
	res.Tuples = make([]*TreeTuple, len(vs))
	paths := make([]xmltree.Path, len(t.Nodes)) // by Node.ID, filled at a leaf's first tuple
	for i, v := range vs {
		leaves := make([]Leaf, len(v))
		for j, n := range v {
			if paths[n.ID] == nil {
				paths[n.ID] = xmltree.NodePath(n)
			}
			leaves[j] = Leaf{Node: n, Path: paths[n.ID]}
		}
		res.Tuples[i] = &TreeTuple{Source: t, Index: i, Leaves: leaves}
	}
	return res
}

// ExtractAll extracts tuples for every tree of a collection, preserving
// order. The returned slice concatenates per-tree tuples.
func ExtractAll(trees []*xmltree.Tree, opts Options) ([]*TreeTuple, []Result) {
	var all []*TreeTuple
	results := make([]Result, len(trees))
	for i, t := range trees {
		r := Extract(t, opts)
		results[i] = r
		all = append(all, r.Tuples...)
	}
	return all, results
}

// variant is the leaf set of one subtree alternative, in document order.
type variant []*xmltree.Node

// variants returns up to max leaf-set alternatives for the subtree rooted at
// n, together with the untruncated total count.
func variants(n *xmltree.Node, max int) ([]variant, int64) {
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
		cv, ct := variants(c, max)
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

func sortByDocOrder(v variant) {
	// Leaves carry their tree-wide ID which is assigned in document order.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1].ID > v[j].ID; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

func satAdd(a, b int64) int64 {
	if a > combinationCap-b {
		return combinationCap
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > combinationCap/b {
		return combinationCap
	}
	return a * b
}

// Materialize builds the tuple as a standalone xmltree.Tree: the union of
// the root-to-leaf paths of its retained leaves. Used by tests to check the
// tree tuple invariant and by examples for display.
func (t *TreeTuple) Materialize() *xmltree.Tree {
	out := &xmltree.Tree{DocID: t.Source.DocID, Name: t.ID()}
	if len(t.Leaves) == 0 {
		if t.Source.Root != nil {
			out.Root = out.NewNode(xmltree.Element, t.Source.Root.Label, "", nil)
		}
		return out
	}
	// Map from source node to materialized node.
	made := map[*xmltree.Node]*xmltree.Node{}
	var ensure func(src *xmltree.Node) *xmltree.Node
	ensure = func(src *xmltree.Node) *xmltree.Node {
		if n, ok := made[src]; ok {
			return n
		}
		var parent *xmltree.Node
		if src.Parent != nil {
			parent = ensure(src.Parent)
		}
		n := out.NewNode(src.Kind, src.Label, src.Value, parent)
		if src.Parent == nil {
			out.Root = n
		}
		made[src] = n
		return n
	}
	for _, lf := range t.Leaves {
		ensure(lf.Node)
	}
	return out
}

// CheckInvariant verifies that the materialized tuple satisfies the tree
// tuple condition |Aτ(p)| ≤ 1 for every complete and tag path of the tuple.
// It returns a descriptive error on violation (nil when valid).
func (t *TreeTuple) CheckInvariant() error {
	m := t.Materialize()
	counts := map[string]int{}
	var walk func(n *xmltree.Node, prefix string)
	walk = func(n *xmltree.Node, prefix string) {
		p := prefix + n.Label
		counts[p]++
		for _, c := range n.Children {
			walk(c, p+".")
		}
	}
	if m.Root != nil {
		walk(m.Root, "")
	}
	for p, c := range counts {
		if c > 1 {
			return fmt.Errorf("tuple %s: path %s has %d answers", t.ID(), p, c)
		}
	}
	return nil
}
