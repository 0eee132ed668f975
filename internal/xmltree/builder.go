package xmltree

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// builder is the XML → tree state machine: the one place that knows how
// elements, attributes and character data map onto the tree model of
// Sect. 3.1 — an element is a node, an attribute an "@name" leaf, and the
// #PCDATA under an element its one S leaf, its runs joined with a space. It
// is fed tokens by either source — the byte scanner or the encoding/xml
// decoder — through start, attr, chars and end, and finish hands out the
// tree. Its stack is the stack of open elements.
//
// Nothing is allocated per token. Nodes are recorded in recs and pending
// character data in text, both scratch that survives from one document to
// the next; finish cuts the tree from three allocations of exactly the
// right size (the Tree, one []Node, one []*Node holding Tree.Nodes and every
// Children slice), or reuses those of a tree the caller is done with. The
// leaf values are the only per-node allocations.
type builder struct {
	recs  []rec   // the nodes so far, in document order; the index is the Node.ID
	stack []frame // the open elements, innermost last
	// text holds the pending character data of the open elements, one
	// region per frame, innermost last: only the innermost element ever
	// receives text, and it closes before the ones around it.
	text []byte
	val  []byte // scratch of value
}

// rec is one node of the tree under construction.
type rec struct {
	kind   NodeKind
	below  int32 // levels below the root, set by finish
	parent int   // index of the parent's rec, −1 for the root
	label  string
	value  string
}

// frame is one open element.
type frame struct {
	node int // rec of the element
	text int // where the element's pending character data starts in builder.text
}

func (b *builder) reset() {
	clear(b.recs) // drop the previous document's strings
	*b = builder{recs: b.recs[:0], stack: b.stack[:0], text: b.text[:0], val: b.val}
}

// start opens an element; the caller follows with one attr call per
// attribute before anything else.
func (b *builder) start(name string) error {
	// The deepest node an element can hold is a leaf one level down.
	if len(b.stack)+1 >= maxTreeDepth {
		return fmt.Errorf("xmltree: parse: tree deeper than %d levels", maxTreeDepth)
	}
	parent := -1
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1].node
	} else if len(b.recs) > 0 {
		return fmt.Errorf("xmltree: multiple root elements (second: %s)", name)
	}
	b.recs = append(b.recs, rec{kind: Element, parent: parent, label: name})
	b.stack = append(b.stack, frame{node: len(b.recs) - 1, text: len(b.text)})
	return nil
}

// attr adds an attribute leaf to the element start just opened; label is
// the leaf's label, "@name".
func (b *builder) attr(label string, raw []byte) {
	b.recs = append(b.recs, rec{kind: Attribute, parent: b.stack[len(b.stack)-1].node, label: label, value: b.value(raw)})
}

// chars takes one run of character data: the text between two pieces of
// markup. Runs under one element are joined with a space.
func (b *builder) chars(data []byte) {
	if len(b.stack) == 0 {
		return
	}
	if len(b.text) > b.stack[len(b.stack)-1].text {
		b.text = append(b.text, ' ')
	}
	b.text = append(b.text, data...)
}

// open returns the label of the innermost open element; ok is false when
// there is none.
func (b *builder) open() (label string, ok bool) {
	if len(b.stack) == 0 {
		return "", false
	}
	return b.recs[b.stack[len(b.stack)-1].node].label, true
}

// end closes the innermost open element, whose pending character data
// becomes its S leaf unless it is blank; it reports false when there is
// none.
func (b *builder) end() bool {
	if len(b.stack) == 0 {
		return false
	}
	f := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	v := b.value(b.text[f.text:])
	b.text = b.text[:f.text]
	if v != "" {
		b.recs = append(b.recs, rec{kind: Text, parent: f.node, label: TextLabel, value: v})
	}
	return true
}

// value is a leaf's δ value: raw with leading and trailing white space
// removed and every inner run of white space replaced by one space —
// strings.Join(strings.Fields(raw), " "), in one allocation.
func (b *builder) value(raw []byte) string {
	dst := b.val[:0]
	for i := 0; i < len(raw); {
		j, space := i, 0 // raw[i:j] is a field, ended by space bytes of white space
		for j < len(raw) && space == 0 {
			switch c := raw[j]; {
			case ' ' < c && c < utf8.RuneSelf:
				j++
			case c == ' ' || ('\t' <= c && c <= '\r'):
				space = 1
			case c < utf8.RuneSelf:
				j++
			default:
				if r, size := utf8.DecodeRune(raw[j:]); unicode.IsSpace(r) {
					space = size
				} else {
					j += size
				}
			}
		}
		if j > i {
			if len(dst) > 0 {
				dst = append(dst, ' ')
			}
			dst = append(dst, raw[i:j]...)
		}
		i = j + space
	}
	b.val = dst
	return string(dst)
}

// finish returns the tree of the document fed so far, built in the storage
// of reuse when that holds it (see ParseBytesInto).
func (b *builder) finish(reuse *Tree) (*Tree, error) {
	n := len(b.recs)
	if n == 0 {
		return nil, fmt.Errorf("xmltree: document has no root element")
	}
	t := reuse
	if t == nil || cap(t.slab) < n || cap(t.links) < 2*n-1 { // links: Tree.Nodes, then n−1 child links
		t = &Tree{slab: make([]Node, n), links: make([]*Node, 2*n-1)}
	}
	nodes, ptrs := t.slab[:n], t.links[:2*n-1]
	below := int32(0)
	for i, r := range b.recs {
		nodes[i] = Node{Kind: r.kind, Label: r.label, Value: r.value}
		ptrs[i] = &nodes[i]
		if i > 0 {
			// A parent precedes its children, so its level is already set.
			b.recs[i].below = b.recs[r.parent].below + 1
			below = max(below, b.recs[i].below)
			nodes[i].Parent = &nodes[r.parent]
			nodes[r.parent].ID++ // counts children until the next loop sets the real ID
		}
	}
	// Siblings are recorded in document order, so appending each node to
	// its parent fills every Children slice in place; the capacity of each
	// ends where the next begins, so growing one later reallocates it.
	links := ptrs[n:]
	for i := range nodes {
		if c := nodes[i].ID; c > 0 {
			nodes[i].Children = links[:0:c]
			links = links[c:]
		}
		nodes[i].ID = i
		if p := nodes[i].Parent; p != nil {
			p.Children = append(p.Children, &nodes[i])
		}
	}
	*t = Tree{Root: &nodes[0], Nodes: ptrs[:n:n], depth: int(below) + 1, slab: t.slab, links: t.links}
	return t, nil
}
