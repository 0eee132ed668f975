// Package tuple implements XML tree tuple extraction (Sect. 3.2 of the
// paper). A tree tuple is a maximal subtree τ of an XML tree XT such that
// the answer of every (tag or complete) path of XT on τ has size at most
// one — the XML analogue of a relational tuple (Arenas & Libkin).
//
// Extraction enumerates, for every element, the cross product over the
// distinct-label child groups of the alternatives contributed by each group
// (two children with the same label can never coexist in one tuple because
// their shared path would then have two answers; children with different
// labels always coexist by maximality). An element's alternatives depend on
// its children's alone, so they are made at its end tag, in the pass that
// reads raw XML (ExtractBytes) or walks a tree (Extract): no tree is built.
package tuple

import (
	"slices"
	"sync"

	"xmlclust/internal/xmltree"
)

// Leaf is one leaf of a document: its complete path and its answer.
type Leaf struct {
	Path   xmltree.Path
	Answer string
}

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

// Result carries the tree tuples of one document plus truncation
// diagnostics.
type Result struct {
	// Leaves are the document's leaves in the order the extractor met them;
	// their paths are read-only.
	Leaves []Leaf
	// Tuples lists, per tuple in enumeration order, the indices into Leaves
	// of the leaves it retains, in document order.
	Tuples [][]int32
	// Truncated reports that the full product exceeded the cap.
	Truncated bool
	// TotalCombinations is the untruncated number of tuples (saturating at
	// a large sentinel to avoid overflow).
	TotalCombinations int64
	// Depth is depth(XT), the length of the longest path.
	Depth int
}

const combinationCap = int64(1) << 50

// Extract enumerates the tree tuples of t, which it walks once.
func Extract(t *xmltree.Tree, opts Options) Result {
	x := newExtractor(opts)
	defer extractors.Put(x)
	if t.Root != nil {
		x.walk(t.Root)
	}
	return x.result()
}

// walk feeds x the subtree rooted at n, each leaf ranked by its Node.ID.
func (x *extractor) walk(n *xmltree.Node) {
	if n.IsLeaf() {
		x.leaf(n.Label, n.Value, n.ID)
		return
	}
	x.Open(n.Label)
	for _, c := range n.Children {
		x.walk(c)
	}
	x.Close()
}

// ExtractBytes enumerates the tree tuples of the XML document data in the
// pass that reads it: no tree is built. It fails as xmltree.ParseBytes
// does, in the same words.
func ExtractBytes(data []byte, opts Options) (Result, error) {
	x := newExtractor(opts)
	defer extractors.Put(x)
	if err := xmltree.Feed(data, x); err != nil {
		return Result{}, err
	}
	return x.result(), nil
}

// variant is the leaf set of one subtree alternative: ords[off:off+n] of
// its extractor, indices into extractor.leaves in document order. It holds
// no pointer, so the arenas of variants are no work for the collector.
type variant struct{ off, n int32 }

// group is the alternatives the children of one element that share a label
// contribute, and their untruncated count.
type group struct {
	alts  []variant
	total int64
}

// element is one open element: its path, where its groups start in
// extractor.groups, and the stamp that marks them.
type element struct {
	at            *pathNode
	groups, stamp int
}

// pathNode is a path the extractor has met: the path one symbol shorter,
// the last symbol and the paths one symbol longer. path spells it out, once
// a leaf is met on it, for every leaf on it to share, read-only. The
// children of an element that share a label share their path, so it holds
// their group: the group-th of extractor.groups while stamp is the
// element's.
type pathNode struct {
	parent *pathNode
	label  string
	depth  int
	path   xmltree.Path
	next   map[string]*pathNode
	stamp  int
	group  int
}

// extractor is the working memory of one extraction, pooled across calls.
// Nothing in it is made per element: paths are the nodes of a trie the
// extractor keeps from one document to the next, a child finds its group
// through its path, which carries the stamp of the element the group was
// opened for — stamped, not cleared, so grouping is linear in an element's
// children however many labels they carry — and the groups of the open
// elements stack up in one slice. The alternatives an element closes with
// are cut from an arena and their leaves stack up in another, both rewound
// for the next document.
type extractor struct {
	max    int
	root   *pathNode // the empty path
	paths  int       // nodes under root and symbols spelled out
	open   []element
	groups []group // zero beyond its length
	stamp  int     // of the element opened last; 0 is no element's
	leaves []Leaf
	orders []int // of the leaves, in document order
	alts   []variant
	ords   []int32
	// out and total are the document's alternatives once its root closed.
	out   []variant
	total int64
	depth int
}

var extractors = sync.Pool{New: func() any { return &extractor{root: &pathNode{}} }}

// maxPaths bounds the path trie a pooled extractor carries from one
// document to the next, as xmltree bounds its scanner's labels; a
// collection has a few hundred paths.
const maxPaths = 1 << 16

func newExtractor(opts Options) *extractor {
	x := extractors.Get().(*extractor)
	x.Reset()
	x.max = opts.MaxTuplesPerTree
	if x.max <= 0 {
		x.max = DefaultMaxTuplesPerTree
	}
	return x
}

// Reset drops the document read so far and rewinds the arenas, dropping
// what they point into.
func (x *extractor) Reset() {
	if x.paths > maxPaths {
		x.root, x.paths = &pathNode{}, 0
	}
	clear(x.open)
	clear(x.groups)
	clear(x.leaves)
	*x = extractor{
		max: x.max, root: x.root, paths: x.paths, open: x.open[:0], groups: x.groups[:0], stamp: x.stamp,
		leaves: x.leaves[:0], orders: x.orders[:0], alts: x.alts[:0], ords: x.ords[:0],
	}
}

// child returns the node of the path one symbol longer, label.
func (x *extractor) child(p *pathNode, label string) *pathNode {
	if c, ok := p.next[label]; ok {
		return c
	}
	if p.next == nil {
		p.next = map[string]*pathNode{}
	}
	c := &pathNode{parent: p, label: label, depth: p.depth + 1}
	p.next[label] = c
	x.paths++
	return c
}

// spell returns the symbols of the path of n.
func (x *extractor) spell(n *pathNode) xmltree.Path {
	if n.path == nil {
		n.path = make(xmltree.Path, n.depth)
		for p, d := n, n.depth; d > 0; p, d = p.parent, d-1 {
			n.path[d-1] = p.label
		}
		x.paths += n.depth
	}
	return n.path
}

// Open opens an element.
func (x *extractor) Open(label string) {
	x.stamp++
	x.open = append(x.open, element{at: x.child(x.top(), label), groups: len(x.groups), stamp: x.stamp})
	x.depth = max(x.depth, len(x.open))
}

// Leaf meets the next leaf of a document read from its bytes.
func (x *extractor) Leaf(label, value string) { x.leaf(label, value, len(x.leaves)) }

// leaf meets a leaf, its own one alternative; order ranks it in document
// order.
func (x *extractor) leaf(label, value string, order int) {
	at := x.child(x.top(), label)
	x.depth = max(x.depth, at.depth)
	x.leaves = append(x.leaves, Leaf{Path: x.spell(at), Answer: value})
	x.orders = append(x.orders, order)
	alt := cut(&x.alts, 1)
	alt[0] = variant{off: int32(len(x.ords)), n: 1}
	x.ords = append(x.ords, int32(len(x.leaves)-1))
	x.add(at, alt, 1)
}

// Close closes the innermost open element, whose alternatives are the
// mixed-radix cross product of its groups' — the last group the least
// significant digit — up to the cap. An empty element has one alternative
// that contributes no leaves.
func (x *extractor) Close() {
	e := x.open[len(x.open)-1]
	x.open = x.open[:len(x.open)-1]
	groups := x.groups[e.groups:]
	// The enumerable count is bounded by the product of the (possibly
	// already truncated) per-group alternative counts.
	total, enumerable := int64(1), int64(1)
	for _, g := range groups {
		total = satMul(total, g.total)
		enumerable = satMul(enumerable, int64(len(g.alts)))
	}
	var out []variant
	switch len(groups) {
	case 0:
		out = cut(&x.alts, 1)
		out[0] = variant{off: int32(len(x.ords))}
	case 1:
		// Under one label the element's alternatives are that group's as
		// they stand (variants are read-only once made).
		out = groups[0].alts
	default:
		// One variant per combination.
		out = cut(&x.alts, int(min(total, int64(x.max), enumerable)))
		for idx := range out {
			off, rem := len(x.ords), idx
			for gi := len(groups) - 1; gi >= 0; gi-- {
				alts := groups[gi].alts
				a := alts[rem%len(alts)]
				x.ords = append(x.ords, x.ords[a.off:a.off+a.n]...)
				rem /= len(alts)
			}
			// Restore document order (groups were visited reversed).
			v := x.ords[off:]
			for i := 1; i < len(v); i++ {
				for j := i; j > 0 && x.orders[v[j-1]] > x.orders[v[j]]; j-- {
					v[j-1], v[j] = v[j], v[j-1]
				}
			}
			out[idx] = variant{off: int32(off), n: int32(len(v))}
		}
	}
	clear(groups) // only out outlives this element
	x.groups = x.groups[:e.groups]
	x.add(e.at, out, total)
}

// add files the alternatives of a closed child, on path at, in its group
// among the children of the innermost open element; with none open, they
// are the document's.
func (x *extractor) add(at *pathNode, alts []variant, total int64) {
	if len(x.open) == 0 {
		x.out, x.total = alts, total
		return
	}
	if e := x.open[len(x.open)-1]; at.stamp != e.stamp {
		at.stamp, at.group = e.stamp, len(x.groups)
		x.groups = append(x.groups, group{})
	}
	g := &x.groups[at.group]
	if g.alts == nil {
		g.alts = alts // the child's own: nothing else holds it
	} else {
		g.alts = append(g.alts, alts...)
	}
	g.total = satAdd(g.total, total)
	if len(g.alts) > x.max {
		g.alts = g.alts[:x.max]
	}
}

// top is the path of the innermost open element.
func (x *extractor) top() *pathNode {
	if len(x.open) == 0 {
		return x.root
	}
	return x.open[len(x.open)-1].at
}

// result copies the document's tuples out of the arenas: the leaves, the
// tuples and their leaf indices are one allocation each.
func (x *extractor) result() Result {
	res := Result{TotalCombinations: x.total, Truncated: x.total > int64(len(x.out)), Depth: x.depth}
	n := int32(0)
	for _, v := range x.out {
		n += v.n
	}
	ords := make([]int32, n)
	res.Tuples = make([][]int32, len(x.out))
	for i, v := range x.out {
		res.Tuples[i] = ords[:v.n:v.n]
		ords = ords[copy(ords, x.ords[v.off:v.off+v.n]):]
	}
	res.Leaves = slices.Clone(x.leaves)
	return res
}

// cut returns n entries of an arena, capacity-clamped, so that appending to
// them copies instead of running into the next cut. A full arena is replaced,
// not grown: what was cut from it stays where it is.
func cut[T any](arena *[]T, n int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(2*cap(a), n, 64))
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
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
