package xmltree

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// Handler receives a document in the terms of the tree model of Sect. 3.1,
// in document order: Open and Close bracket an element, and Leaf is an
// "@name" or S leaf of the innermost open element, with its δ value. Reset
// drops a document read in part.
type Handler interface {
	Open(label string)
	Leaf(label, value string)
	Close()
	Reset()
}

// builder is the XML → tree model state machine: the one place that knows
// how elements, attributes and character data map onto the tree model of
// Sect. 3.1 — an element is a node, an attribute an "@name" leaf, and the
// #PCDATA under an element its one S leaf, its runs joined with a space. It
// is fed tokens by either source — the byte scanner or the encoding/xml
// decoder — through start, attr, chars and end, and hands the document on
// to its Handler. Its stack is the stack of open elements.
//
// Nothing is allocated per token: pending character data is kept in text,
// scratch that survives from one document to the next. The leaf values are
// the only allocations.
type builder struct {
	h      Handler
	stack  []frame // the open elements, innermost last
	rooted bool    // the root element was opened
	// text holds the pending character data of the open elements, one
	// region per frame, innermost last: only the innermost element ever
	// receives text, and it closes before the ones around it.
	text []byte
	val  []byte // scratch of value
}

// frame is one open element.
type frame struct {
	label string
	text  int // where the element's pending character data starts in builder.text
}

func (b *builder) reset() {
	*b = builder{h: b.h, stack: b.stack[:0], text: b.text[:0], val: b.val}
	b.h.Reset()
}

// start opens an element; the caller follows with one attr call per
// attribute before anything else.
func (b *builder) start(name string) error {
	// The deepest node an element can hold is a leaf one level down.
	if len(b.stack)+1 >= maxTreeDepth {
		return fmt.Errorf("xmltree: parse: tree deeper than %d levels", maxTreeDepth)
	}
	if len(b.stack) == 0 && b.rooted {
		return fmt.Errorf("xmltree: multiple root elements (second: %s)", name)
	}
	b.rooted = true
	b.stack = append(b.stack, frame{label: name, text: len(b.text)})
	b.h.Open(name)
	return nil
}

// attr adds an attribute leaf to the element start just opened; label is
// the leaf's label, "@name".
func (b *builder) attr(label string, raw []byte) {
	b.h.Leaf(label, b.value(raw))
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
	return b.stack[len(b.stack)-1].label, true
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
		b.h.Leaf(TextLabel, v)
	}
	b.h.Close()
	return true
}

// finish reports whether the document fed so far had a root element.
func (b *builder) finish() error {
	if b.rooted {
		return nil
	}
	return fmt.Errorf("xmltree: document has no root element")
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

// treeBuilder is the Handler that builds a Tree. Nodes are recorded in recs,
// scratch that survives from one document to the next; tree cuts the tree
// from three allocations of exactly the right size (the Tree, one []Node,
// one []*Node holding Tree.Nodes and every Children slice).
type treeBuilder struct {
	recs []rec
	open int // rec of the innermost open element, −1 for none
}

// rec is one node of the tree under construction.
type rec struct {
	kind   NodeKind
	parent int // index of the parent's rec, −1 for the root
	label  string
	value  string
}

func (tb *treeBuilder) Reset() {
	clear(tb.recs) // drop the previous document's strings
	tb.recs, tb.open = tb.recs[:0], -1
}

func (tb *treeBuilder) Open(label string) {
	tb.recs = append(tb.recs, rec{kind: Element, parent: tb.open, label: label})
	tb.open = len(tb.recs) - 1
}

func (tb *treeBuilder) Leaf(label, value string) {
	kind := Attribute
	if label == TextLabel {
		kind = Text
	}
	tb.recs = append(tb.recs, rec{kind: kind, parent: tb.open, label: label, value: value})
}

func (tb *treeBuilder) Close() { tb.open = tb.recs[tb.open].parent }

// tree returns the tree of the document recorded; it has a root.
func (tb *treeBuilder) tree() *Tree {
	n := len(tb.recs)
	nodes, ptrs := make([]Node, n), make([]*Node, 2*n-1) // ptrs: Tree.Nodes, then n−1 child links
	for i, r := range tb.recs {
		nodes[i] = Node{Kind: r.kind, Label: r.label, Value: r.value}
		ptrs[i] = &nodes[i]
		if i > 0 {
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
	return &Tree{Root: &nodes[0], Nodes: ptrs[:n:n]}
}
