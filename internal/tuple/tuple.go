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
	"slices"
	"sync"

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
	x := extractors.Get().(*extractor)
	defer extractors.Put(x)
	x.max = max
	if len(x.slots) > maxSlots {
		clear(x.slots)
	}
	x.groupOf = slices.Grow(x.groupOf[:0], len(t.Nodes))[:len(t.Nodes)]
	paths := slices.Grow(x.paths[:0], len(t.Nodes))[:len(t.Nodes)] // by Node.ID, filled at a leaf's first tuple
	clear(paths)
	x.paths = paths
	vs, total := x.variants(t.Root)
	res := Result{TotalCombinations: total, Truncated: total > int64(len(vs))}
	res.Tuples = make([]*TreeTuple, len(vs))
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

// group is the alternatives the children of one element that share a label
// contribute, and their untruncated count.
type group struct {
	alts  []variant
	total int64
}

// slot is the group of a label among the children of one element.
type slot struct{ stamp, group int }

// extractor is the working memory of Extract, pooled across calls. Nothing in
// it is made per element: labels resolve to groups through one table whose
// entries carry the stamp of the element they were filed for — stamped, not
// cleared, so grouping is linear in an element's children however many labels
// they carry — every child keeps its group in a column by Node.ID, and the
// groups of the elements on the recursion path stack up in one slice.
type extractor struct {
	max     int
	slots   map[string]slot
	stamp   int   // of the element being grouped; 0 is no element's
	groupOf []int // by Node.ID of a child: its group within its parent
	paths   []xmltree.Path
	groups  []group // zero beyond its length
}

var extractors = sync.Pool{New: func() any { return &extractor{slots: make(map[string]slot)} }}

// maxSlots bounds the label table a pooled extractor carries from one
// document to the next, as xmltree bounds its scanner's.
const maxSlots = 4096

// variants returns up to max leaf-set alternatives for the subtree rooted at
// n, together with the untruncated total count.
func (x *extractor) variants(n *xmltree.Node) ([]variant, int64) {
	if n.IsLeaf() {
		return []variant{{n}}, 1
	}
	if len(n.Children) == 0 {
		// Empty element: a single alternative contributing no leaves.
		return []variant{{}}, 1
	}
	// Group children by label, preserving first-seen order.
	base, ngroups := len(x.groups), 0
	x.stamp++
	for _, c := range n.Children {
		s := x.slots[c.Label]
		if s.stamp != x.stamp {
			s = slot{stamp: x.stamp, group: ngroups}
			x.slots[c.Label] = s
			ngroups++
		}
		x.groupOf[c.ID] = s.group
	}
	x.groups = slices.Grow(x.groups, ngroups)[:base+ngroups]
	for _, c := range n.Children {
		cv, ct := x.variants(c)
		g := &x.groups[base+x.groupOf[c.ID]] // taken after the call: the stack may have moved
		if g.alts == nil {
			g.alts = cv // the child's own slice: nothing else holds it
		} else {
			g.alts = append(g.alts, cv...)
		}
		g.total = satAdd(g.total, ct)
		if len(g.alts) > x.max {
			g.alts = g.alts[:x.max]
		}
	}
	groups := x.groups[base:]
	// Mixed-radix cross product over groups, deterministic order, capped.
	// The enumerable count is bounded by the product of the (possibly
	// already truncated) per-group alternative counts.
	total, enumerable := int64(1), int64(1)
	for _, g := range groups {
		total = satMul(total, g.total)
		enumerable = satMul(enumerable, int64(len(g.alts)))
	}
	limit := min(total, int64(x.max), enumerable)
	// Under one label the element's alternatives are that group's as they
	// stand (variants are read-only once returned); under several, one
	// variant per combination, the last group the least significant digit:
	// one walk sizes the variant, a second fills it.
	out := groups[0].alts
	if len(groups) > 1 {
		out = make([]variant, limit)
		for idx := range out {
			size, rem := 0, idx
			for gi := len(groups) - 1; gi >= 0; gi-- {
				alts := groups[gi].alts
				size += len(alts[rem%len(alts)])
				rem /= len(alts)
			}
			v, rem := make(variant, 0, size), idx
			for gi := len(groups) - 1; gi >= 0; gi-- {
				alts := groups[gi].alts
				v = append(v, alts[rem%len(alts)]...)
				rem /= len(alts)
			}
			// Restore document order of leaves (groups were visited reversed).
			sortByDocOrder(v)
			out[idx] = v
		}
	}
	clear(groups) // only out outlives this element
	x.groups = x.groups[:base]
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
