package xmltree

import (
	"fmt"
	"slices"
	"unicode"
	"unicode/utf8"
)

// builder is the XML → tree state machine: the one place that knows how
// elements, attributes and character data map onto the tree model under
// ParseOptions (strip, inline, MaxDepth, ConcatenateText). It is fed tokens
// by either source — the byte scanner or the encoding/xml decoder — through
// start, attr, chars and end, and finish hands out the tree.
//
// Nothing is allocated per token. Nodes are recorded in recs and pending
// character data in text, both scratch that survives from one document to
// the next; finish cuts the tree from three allocations of exactly the
// right size (the Tree, one []Node, one []*Node holding Tree.Nodes and every
// Children slice). The leaf values are the only per-node allocations.
type builder struct {
	opts ParseOptions

	recs  []rec   // the nodes so far, in document order; the index is the Node.ID
	stack []frame // open elements that are not inside a stripped subtree
	top   int     // innermost frame that is a tree node, −1 when there is none
	// text holds the pending character data of the open tree-node frames,
	// one region per frame, innermost last: only the innermost tree-node
	// frame ever receives text, and it closes before the ones around it.
	text      []byte
	val       []byte // scratch of value
	nodeDepth int    // open elements that are tree nodes (not inlined)
	skipDepth int    // >0 while inside a stripped subtree
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
	node  int // rec of the element; −1 when it is inlined or below MaxDepth, and its text hoists outward
	text  int // where the element's pending character data starts in builder.text
	outer int // builder.top as it was when the element opened
}

func (b *builder) reset(opts ParseOptions) {
	clear(b.recs) // drop the previous document's strings
	*b = builder{opts: opts, recs: b.recs[:0], stack: b.stack[:0], top: -1, text: b.text[:0], val: b.val}
}

// start opens an element. attrs reports whether the element became a tree
// node that takes attribute leaves; if so the caller follows with one attr
// call per attribute before anything else.
func (b *builder) start(name string) (attrs bool, err error) {
	if b.skipDepth > 0 {
		b.skipDepth++
		return false, nil
	}
	if slices.Contains(b.opts.StripTags, name) {
		b.skipDepth = 1
		return false, nil
	}
	if slices.Contains(b.opts.InlineTags, name) || (b.opts.MaxDepth > 0 && len(b.stack) >= b.opts.MaxDepth) {
		b.stack = append(b.stack, frame{node: -1})
		return false, nil
	}
	// The deepest node an element can hold is a leaf one level down.
	if b.nodeDepth++; b.nodeDepth >= maxTreeDepth {
		return false, fmt.Errorf("xmltree: parse: tree deeper than %d levels", maxTreeDepth)
	}
	parent := -1
	if b.top >= 0 {
		if !b.opts.ConcatenateText {
			// Text seen so far at the parent becomes its own leaf before
			// the child opens, preserving document order.
			b.flushText(b.stack[b.top])
		}
		parent = b.stack[b.top].node
	} else if len(b.recs) > 0 {
		return false, fmt.Errorf("xmltree: multiple root elements (second: %s)", name)
	}
	b.recs = append(b.recs, rec{kind: Element, parent: parent, label: name})
	b.stack = append(b.stack, frame{node: len(b.recs) - 1, text: len(b.text), outer: b.top})
	b.top = len(b.stack) - 1
	return b.opts.KeepAttributes, nil
}

// attr adds an attribute leaf to the element start just opened; label is
// the leaf's label, "@name".
func (b *builder) attr(label string, raw []byte) {
	b.recs = append(b.recs, rec{kind: Attribute, parent: b.stack[b.top].node, label: label, value: b.value(raw)})
}

// chars takes one run of character data: the text between two pieces of
// markup. Runs under one element are joined with a space.
func (b *builder) chars(data []byte) {
	if b.skipDepth > 0 || b.top < 0 {
		return
	}
	if len(b.text) > b.stack[b.top].text {
		b.text = append(b.text, ' ')
	}
	b.text = append(b.text, data...)
}

// end closes the innermost open element; it reports false when there is
// none.
func (b *builder) end() bool {
	if b.skipDepth > 0 {
		b.skipDepth--
		return true
	}
	if len(b.stack) == 0 {
		return false
	}
	f := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	if f.node >= 0 {
		b.nodeDepth--
		b.flushText(f)
		b.top = f.outer
	}
	return true
}

// flushText turns the pending character data of f — the innermost tree-node
// frame — into an S leaf, unless it is blank.
func (b *builder) flushText(f frame) {
	v := b.value(b.text[f.text:])
	b.text = b.text[:f.text]
	if v != "" {
		b.recs = append(b.recs, rec{kind: Text, parent: f.node, label: TextLabel, value: v})
	}
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

// finish returns the tree of the document fed so far.
func (b *builder) finish() (*Tree, error) {
	n := len(b.recs)
	if n == 0 {
		return nil, fmt.Errorf("xmltree: document has no root element")
	}
	nodes := make([]Node, n)
	ptrs := make([]*Node, 2*n-1) // Tree.Nodes, then the n−1 child links
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
	return &Tree{Root: &nodes[0], Nodes: ptrs[:n:n], depth: int(below) + 1}, nil
}
