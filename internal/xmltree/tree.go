// Package xmltree implements the labeled rooted tree model for XML documents
// from Sect. 3.1 of the paper: a tree T = ⟨rT, NT, ET, λT⟩ over the alphabet
// Σ = Tag ∪ Att ∪ {S}, where leaves carry attribute values or #PCDATA
// strings via the δ function, plus the associated notions of tag path,
// complete path, path answer and tree depth.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// NodeKind distinguishes the three label classes of Σ.
type NodeKind uint8

const (
	// Element is an internal node labeled with a tag name.
	Element NodeKind = iota
	// Attribute is a leaf labeled "@name" whose δ value is the attribute value.
	Attribute
	// Text is a leaf labeled with the distinguished symbol S whose δ value is
	// the #PCDATA content.
	Text
)

// TextLabel is the distinguished symbol S used to denote #PCDATA content.
const TextLabel = "S"

// Node is a node of an XML tree. Nodes are owned by their Tree and must not
// be shared across trees.
type Node struct {
	ID       int // position in Tree.Nodes (stable identifier)
	Kind     NodeKind
	Label    string // tag name, "@attr", or TextLabel
	Value    string // δ(n) for leaves; empty for elements
	Parent   *Node  // nil for the root
	Children []*Node
}

// IsLeaf reports whether n is a leaf in the XML-tree sense (attribute or
// text node). An element with no children is an empty element, not a leaf
// carrying content.
func (n *Node) IsLeaf() bool { return n.Kind != Element }

// Tree is an XML tree XT = ⟨T, δ⟩.
type Tree struct {
	// DocID identifies the source document within a collection.
	DocID int
	// Name is an optional human-readable identifier (e.g. file name).
	Name string
	// Root is the distinguished root rT.
	Root *Node
	// Nodes lists all nodes in document order; Nodes[i].ID == i.
	Nodes []*Node
	// depth is Depth() as the parser counted it; 0 = not known, walk.
	depth int
}

// NewTree creates an empty tree with the given root element label.
func NewTree(rootLabel string) *Tree {
	t := &Tree{}
	t.Root = t.NewNode(Element, rootLabel, "", nil)
	return t
}

// NewNode allocates a node, registers it in the tree and links it under
// parent (nil for the root).
func (t *Tree) NewNode(kind NodeKind, label, value string, parent *Node) *Node {
	n := &Node{ID: len(t.Nodes), Kind: kind, Label: label, Value: value, Parent: parent}
	t.Nodes = append(t.Nodes, n)
	t.depth = 0
	if parent != nil {
		parent.Children = append(parent.Children, n)
	}
	return n
}

// AddElement appends an element child.
func (t *Tree) AddElement(parent *Node, tag string) *Node {
	return t.NewNode(Element, tag, "", parent)
}

// AddAttribute appends an attribute leaf "@name" = value.
func (t *Tree) AddAttribute(parent *Node, name, value string) *Node {
	return t.NewNode(Attribute, "@"+name, value, parent)
}

// AddText appends a #PCDATA leaf.
func (t *Tree) AddText(parent *Node, value string) *Node {
	return t.NewNode(Text, TextLabel, value, parent)
}

// Path is an XML path: a sequence of symbols in Tag ∪ Att ∪ {S}, rendered
// with the paper's dotted notation (e.g. "dblp.inproceedings.author.S").
// Paths are interned per collection via PathTable; within this package they
// are plain symbol slices.
type Path []string

// String renders the dotted form.
func (p Path) String() string { return strings.Join(p, ".") }

// IsComplete reports whether the path is a complete path, i.e. its last
// symbol is an attribute name or S.
func (p Path) IsComplete() bool {
	if len(p) == 0 {
		return false
	}
	last := p[len(p)-1]
	return last == TextLabel || strings.HasPrefix(last, "@")
}

// ParsePath parses the dotted notation into a Path.
func ParsePath(s string) Path {
	if s == "" {
		return nil
	}
	return Path(strings.Split(s, "."))
}

// NodePath returns the label path from the root down to n.
func NodePath(n *Node) Path {
	depth := 0
	for cur := n; cur != nil; cur = cur.Parent {
		depth++
	}
	p := make(Path, depth)
	for cur := n; cur != nil; cur = cur.Parent {
		depth--
		p[depth] = cur.Label
	}
	return p
}

// Depth returns depth(XT): the length of the longest complete path. A
// parsed tree answers from the count its parser kept; a tree grown with
// NewNode is walked.
func (t *Tree) Depth() int {
	if t.depth > 0 {
		return t.depth
	}
	max := 0
	var walk func(n *Node, d int)
	walk = func(n *Node, d int) {
		if d > max {
			max = d
		}
		for _, c := range n.Children {
			walk(c, d+1)
		}
	}
	if t.Root != nil {
		walk(t.Root, 1)
	}
	return max
}

// Apply returns p(XT): all nodes reachable from the root by following the
// label sequence p.
func (t *Tree) Apply(p Path) []*Node {
	if t.Root == nil || len(p) == 0 || t.Root.Label != p[0] {
		return nil
	}
	frontier := []*Node{t.Root}
	for _, sym := range p[1:] {
		var next []*Node
		for _, n := range frontier {
			for _, c := range n.Children {
				if c.Label == sym {
					next = append(next, c)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return nil
		}
	}
	return frontier
}

// Answer returns the answer of p on the tree (Sect. 3.1): node identifiers
// for a tag path, leaf string values for a complete path.
func (t *Tree) Answer(p Path) []string {
	nodes := t.Apply(p)
	if len(nodes) == 0 {
		return nil
	}
	out := make([]string, 0, len(nodes))
	if p.IsComplete() {
		for _, n := range nodes {
			out = append(out, n.Value)
		}
	} else {
		for _, n := range nodes {
			out = append(out, fmt.Sprintf("n%d", n.ID))
		}
	}
	return out
}

// CompletePaths returns P_XT: the set of distinct complete paths, sorted.
func (t *Tree) CompletePaths() []Path {
	seen := map[string]Path{}
	for _, n := range t.Nodes {
		if n.IsLeaf() {
			p := NodePath(n)
			seen[p.String()] = p
		}
	}
	return sortPathMap(seen)
}

// MaximalTagPaths returns TP_XT: the distinct tag paths obtained by removing
// the last symbol of every complete path, sorted.
func (t *Tree) MaximalTagPaths() []Path {
	seen := map[string]Path{}
	for _, n := range t.Nodes {
		if n.IsLeaf() {
			p := NodePath(n)
			tp := p[:len(p)-1]
			seen[tp.String()] = tp
		}
	}
	return sortPathMap(seen)
}

func sortPathMap(m map[string]Path) []Path {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Path, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// Leaves returns the leaf nodes in document order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.IsLeaf() {
			out = append(out, n)
		}
	}
	return out
}

// Clone produces a deep copy of the tree (fresh nodes, same labels/values).
func (t *Tree) Clone() *Tree {
	c := &Tree{DocID: t.DocID, Name: t.Name}
	if t.Root == nil {
		return c
	}
	var cp func(n *Node, parent *Node) *Node
	cp = func(n *Node, parent *Node) *Node {
		nn := c.NewNode(n.Kind, n.Label, n.Value, parent)
		for _, ch := range n.Children {
			cp(ch, nn)
		}
		return nn
	}
	c.Root = cp(t.Root, nil)
	return c
}

// String renders an indented dump of the tree for debugging and examples.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch n.Kind {
		case Element:
			b.WriteString(n.Label)
		default:
			fmt.Fprintf(&b, "%s=%q", n.Label, n.Value)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if t.Root != nil {
		walk(t.Root, 0)
	}
	return b.String()
}
