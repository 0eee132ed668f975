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
// reader and the mapping settings Parse no longer has, as the oracle of
// FuzzParse and the scanner tests: the tree model — how text runs join, how
// values are trimmed and collapsed, which errors are raised in which words
// — is defined by this function, and both token sources of the real Parse
// must reproduce it node for node.
func referenceParse(r io.Reader) (*Tree, error) {
	dec := xml.NewDecoder(r)
	dec.Strict = false
	dec.AutoClose = xml.HTMLAutoClose
	dec.Entity = xml.HTMLEntity
	dec.CharsetReader = charsetReader

	t := &Tree{}
	// stack holds the chain of open elements; text accumulates per level.
	type frame struct {
		node *Node
		text strings.Builder
	}
	var stack []*frame

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
			name := el.Name.Local
			// The deepest node an element can hold is a leaf one level down.
			if len(stack)+1 >= maxTreeDepth {
				return nil, fmt.Errorf("xmltree: parse: tree deeper than %d levels", maxTreeDepth)
			}
			var n *Node
			if len(stack) == 0 {
				if t.Root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements (second: %s)", name)
				}
				n = t.NewNode(Element, name, "", nil)
				t.Root = n
			} else {
				n = t.AddElement(stack[len(stack)-1].node, name)
			}
			for _, a := range el.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				t.AddAttribute(n, a.Name.Local, referenceCollapseSpace(strings.TrimSpace(a.Value)))
			}
			stack = append(stack, &frame{node: n})
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", el.Name.Local)
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if txt := strings.TrimSpace(f.text.String()); txt != "" {
				t.AddText(f.node, referenceCollapseSpace(txt))
			}
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			f := stack[len(stack)-1]
			if f.text.Len() > 0 {
				f.text.WriteByte(' ')
			}
			f.text.WriteString(string(el))
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
