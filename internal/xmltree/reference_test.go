package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// referenceParse is Parse as it was before the byte scanner and the shared
// builder: encoding/xml tokens, a *frame and a strings.Builder per element,
// nodes linked as they are made. It is kept, verbatim but for the charset
// reader, as the oracle of FuzzParse and the scanner tests: the tree model
// — what strip, inline, MaxDepth and ConcatenateText do, how text runs
// join, how values are trimmed and collapsed, which errors are raised in
// which words — is defined by this function, and both token sources of the
// real Parse must reproduce it node for node.
func referenceParse(r io.Reader, opts ParseOptions) (*Tree, error) {
	dec := xml.NewDecoder(r)
	dec.Strict = false
	dec.AutoClose = xml.HTMLAutoClose
	dec.Entity = xml.HTMLEntity
	dec.CharsetReader = charsetReader

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
			t.AddText(f.node, referenceCollapseSpace(txt))
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
					t.AddAttribute(n, a.Name.Local, referenceCollapseSpace(strings.TrimSpace(a.Value)))
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

func referenceCollapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
