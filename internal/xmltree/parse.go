package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// ParseOptions controls how raw XML is mapped onto the tree model.
type ParseOptions struct {
	// ConcatenateText merges all #PCDATA directly under one element into a
	// single S leaf (the paper does this for the Shakespeare speech lines).
	// When false, each non-blank text run becomes its own S leaf.
	ConcatenateText bool
	// KeepAttributes maps XML attributes to "@name" leaves. The paper's
	// model includes them (e.g. dblp.inproceedings.@key).
	KeepAttributes bool
	// StripTags lists element names to filter out entirely (with their
	// subtrees); used to drop stylistic/non-logical markup as done for the
	// IEEE and Wikipedia corpora (Sect. 5.2).
	StripTags []string
	// InlineTags lists element names whose tags are removed but whose
	// content is hoisted into the parent (typical for formatting markup such
	// as <b> or <it> inside text).
	InlineTags []string
	// MaxDepth, when positive, truncates the tree below the given depth.
	MaxDepth int
}

// DefaultParseOptions returns the configuration used throughout the paper
// reproduction: attributes kept, text concatenated per element.
func DefaultParseOptions() ParseOptions {
	return ParseOptions{ConcatenateText: true, KeepAttributes: true}
}

// maxTreeDepth bounds the depth of a tree Parse will build. Tree walks
// (Tree.Depth, tuple extraction, rendering) recurse once per level, and a
// goroutine's stack overflowing is fatal to the process, not a panic a
// caller can recover: a few megabytes of nested tags must fail here. The
// paper's collections are under 20 deep.
const maxTreeDepth = 10000

// Parse reads one XML document from r and builds its tree. A document whose
// tree would be deeper than maxTreeDepth is an error.
func Parse(r io.Reader, opts ParseOptions) (*Tree, error) {
	dec := xml.NewDecoder(r)
	dec.Strict = false
	dec.AutoClose = xml.HTMLAutoClose
	dec.Entity = xml.HTMLEntity

	strip := make(map[string]bool, len(opts.StripTags))
	for _, s := range opts.StripTags {
		strip[s] = true
	}
	inline := make(map[string]bool, len(opts.InlineTags))
	for _, s := range opts.InlineTags {
		inline[s] = true
	}

	t := &Tree{}
	// stack holds the chain of open elements; text accumulates per level
	// when ConcatenateText is on.
	type frame struct {
		node *Node // nil when the element is inlined (text hoists upward)
		text strings.Builder
	}
	var stack []*frame
	depth := 0
	nodeDepth := 0 // open elements that are tree nodes (not inlined)
	skipDepth := 0 // >0 while inside a stripped subtree

	currentNode := func() *Node {
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].node != nil {
				return stack[i].node
			}
		}
		return nil
	}
	currentFrame := func() *frame {
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].node != nil {
				return stack[i]
			}
		}
		return nil
	}
	flushText := func(f *frame) {
		if f == nil || f.node == nil {
			return
		}
		txt := strings.TrimSpace(f.text.String())
		f.text.Reset()
		if txt != "" {
			t.AddText(f.node, collapseSpace(txt))
		}
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch el := tok.(type) {
		case xml.StartElement:
			if skipDepth > 0 {
				skipDepth++
				continue
			}
			name := el.Name.Local
			if strip[name] {
				skipDepth = 1
				continue
			}
			depth++
			if inline[name] || (opts.MaxDepth > 0 && depth > opts.MaxDepth) {
				stack = append(stack, &frame{node: nil})
				continue
			}
			// The deepest node an element can hold is a leaf one level down.
			if nodeDepth++; nodeDepth >= maxTreeDepth {
				return nil, fmt.Errorf("xmltree: parse: tree deeper than %d levels", maxTreeDepth)
			}
			parent := currentNode()
			var n *Node
			if parent == nil {
				if t.Root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements (second: %s)", name)
				}
				n = t.NewNode(Element, name, "", nil)
				t.Root = n
			} else {
				if !opts.ConcatenateText {
					// Text seen so far at the parent becomes its own leaf
					// before the child opens, preserving document order.
					flushText(currentFrame())
				}
				n = t.AddElement(parent, name)
			}
			if opts.KeepAttributes {
				for _, a := range el.Attr {
					if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
						continue
					}
					t.AddAttribute(n, a.Name.Local, collapseSpace(strings.TrimSpace(a.Value)))
				}
			}
			stack = append(stack, &frame{node: n})
		case xml.EndElement:
			if skipDepth > 0 {
				skipDepth--
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", el.Name.Local)
			}
			depth--
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f.node != nil {
				nodeDepth--
				flushText(f)
			} else if f.text.Len() > 0 {
				// Inlined element: hoist pending text to the enclosing frame.
				if pf := currentFrame(); pf != nil {
					pf.text.WriteByte(' ')
					pf.text.WriteString(f.text.String())
				}
			}
		case xml.CharData:
			if skipDepth > 0 || len(stack) == 0 {
				continue
			}
			f := stack[len(stack)-1]
			target := f
			if f.node == nil {
				if cf := currentFrame(); cf != nil {
					target = cf
				}
			}
			if target.text.Len() > 0 {
				target.text.WriteByte(' ')
			}
			target.text.WriteString(string(el))
		}
	}
	if t.Root == nil {
		return nil, fmt.Errorf("xmltree: document has no root element")
	}
	return t, nil
}

// ParseString parses an XML document held in a string.
func ParseString(s string, opts ParseOptions) (*Tree, error) {
	return Parse(strings.NewReader(s), opts)
}

// MustParseString is ParseString that panics on error; for tests and
// examples operating on literal documents.
func MustParseString(s string, opts ParseOptions) *Tree {
	t, err := ParseString(s, opts)
	if err != nil {
		panic(err)
	}
	return t
}

// collapseSpace normalizes internal whitespace runs to single spaces.
func collapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
