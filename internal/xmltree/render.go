package xmltree

import (
	"fmt"
	"io"
	"strings"
)

// Render writes the tree back out as indented XML. Attribute leaves become
// XML attributes on their parent element; text leaves become character
// data. Parse reads the output back into an equivalent tree (modulo
// whitespace normalization).
func Render(w io.Writer, t *Tree) error {
	if t.Root == nil {
		return fmt.Errorf("xmltree: render: empty tree")
	}
	if _, err := io.WriteString(w, "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"); err != nil {
		return err
	}
	return renderNode(w, t.Root, 0)
}

// RenderString renders to a string, panicking on writer errors (none occur
// with strings.Builder).
func RenderString(t *Tree) string {
	var b strings.Builder
	if err := Render(&b, t); err != nil {
		return ""
	}
	return b.String()
}

func renderNode(w io.Writer, n *Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	var attrs []*Node
	var children []*Node
	for _, c := range n.Children {
		if c.Kind == Attribute {
			attrs = append(attrs, c)
		} else {
			children = append(children, c)
		}
	}
	var b strings.Builder
	b.WriteString(indent)
	b.WriteByte('<')
	b.WriteString(n.Label)
	for _, a := range attrs {
		fmt.Fprintf(&b, " %s=%q", strings.TrimPrefix(a.Label, "@"), escapeXML(a.Value))
	}
	if len(children) == 0 {
		b.WriteString("/>\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	// Pure-text element renders inline.
	if len(children) == 1 && children[0].Kind == Text {
		fmt.Fprintf(&b, ">%s</%s>\n", escapeXML(children[0].Value), n.Label)
		_, err := io.WriteString(w, b.String())
		return err
	}
	b.WriteString(">\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, c := range children {
		if c.Kind == Text {
			if _, err := fmt.Fprintf(w, "%s  %s\n", indent, escapeXML(c.Value)); err != nil {
				return err
			}
			continue
		}
		if err := renderNode(w, c, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Label)
	return err
}

// xmlEscaper is built once: a Replacer is safe for concurrent use, and
// constructing one per value dominated the renderer's allocations.
var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escapeXML(s string) string { return xmlEscaper.Replace(s) }
