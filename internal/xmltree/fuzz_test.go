package xmltree

import (
	"fmt"
	"strings"
	"testing"
)

// treeDiff compares two trees node for node — ids, kinds, labels, values,
// parents, children and their order — then their depths, and describes the
// first difference.
func treeDiff(got, want *Tree) string {
	if got == nil || want == nil {
		return fmt.Sprintf("tree %v, want %v", got, want)
	}
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Sprintf("%d nodes, want %d\n%s\nwant\n%s", len(got.Nodes), len(want.Nodes), got, want)
	}
	id := func(n *Node) int {
		if n == nil {
			return -1
		}
		return n.ID
	}
	if id(got.Root) != 0 || id(want.Root) != 0 {
		return fmt.Sprintf("root ids %d and %d", id(got.Root), id(want.Root))
	}
	for i, w := range want.Nodes {
		g := got.Nodes[i]
		if g.ID != i || w.ID != i || g.Kind != w.Kind || g.Label != w.Label || g.Value != w.Value || id(g.Parent) != id(w.Parent) || len(g.Children) != len(w.Children) {
			return fmt.Sprintf("node %d is %+v, want %+v", i, *g, *w)
		}
		for j := range w.Children {
			if g.Children[j].ID != w.Children[j].ID || g.Children[j] != got.Nodes[g.Children[j].ID] {
				return fmt.Sprintf("node %d: child %d is node %d, want %d", i, j, g.Children[j].ID, w.Children[j].ID)
			}
		}
	}
	if got.Depth() != want.Depth() {
		return fmt.Sprintf("depth %d, want %d", got.Depth(), want.Depth())
	}
	return ""
}

// FuzzParse feeds arbitrary byte soup to the XML → tree mapping — the one
// mapping of Sect. 3.1, which every caller parses with. The parser may
// reject input with an error but must never panic, and any accepted
// document must come back with a usable root. It is also the gate of the
// byte scanner and of the builder both token sources share: whatever the
// scanner accepts, referenceParse — the encoding/xml parser this package had
// before either — must turn into the same tree node for node; so must the
// decoder-fed builder, error text included; and whatever Parse answers,
// tree or error text, must be its answer. The seed corpus is drawn from the
// package's test fixtures, the malformed/truncated shapes the error-path
// tests use, and the constructs on either side of the edge of the scanner's
// subset.
func FuzzParse(f *testing.F) {
	seeds := []string{
		paperDoc, // the Fig. 2 DBLP fixture shared with tree_test.go
		`<db><paper key="p1"><writer>alice</writer><name>mining patterns</name></paper></db>`,
		`<a><b>x</b><b>y</b><c attr="v">z</c></a>`,
		`<r>text <i>inline</i> tail<drop><deep/></drop></r>`,
		`<Speech><Speaker>HAMLET</Speaker><Line>To be, or not to be</Line></Speech>`,
		// Malformed and truncated shapes.
		``,
		`no xml here`,
		`<a/><b/>`,              // multiple roots
		`<a><b></a></b>`,        // crossed tags
		`<a><b>unterminated`,    // truncated mid-element
		`<a attr=>bad attr</a>`, // mangled attribute
		`<a>&unknown;</a>`,      // undefined entity
		`<?xml version="1.0"?>`, // prolog only
		`<a>` + strings.Repeat("<d>", 50) + "deep" + strings.Repeat("</d>", 50) + `</a>`,
		// One level past maxTreeDepth: rejected.
		strings.Repeat("<d>", maxTreeDepth) + "bomb",
		"<a>\xff\xfe binary \x00 soup</a>",
		`<a xmlns:x="u"><x:b x:k="v">ns</x:b></a>`,
		`<!-- comment only -->`,
		`<![CDATA[loose cdata]]>`,
		// The edge of the scanner's subset: what it must decline, and what
		// it must get right to accept.
		`<a k="1" k="2"/>`,                     // duplicate attribute: two leaves
		`<a><br>x</a>`,                         // HTML auto-close
		`<a><BR/><Link>x</Link></a>`,           // auto-close folds case
		`<a>x]]>y</a>`,                         // ]]> in text
		`<a k="x]]>y">]] ></a>`,                // ]]> in a value is fine
		`<?>`,                                  // no target
		`<a><?pi x?>t</a>`,                     // PI splits a text run
		`<a>s<!-- c -->t<!---->u</a>`,          // so do comments
		`<a><!-- -- --></a>`,                   // -- inside a comment
		"<a>\u00a0x\u0085 y\u2003z\u3000</a>",  // the spaces strings.Fields splits on
		"<a k=' \t v\r\n w '>l1\r\nl2\rl3</a>", // CRLF
		`<a>&#x41;&#65;&#x1F600;&amp;&lt;&gt;&apos;&quot;</a>`,
		`<a>&#0;</a>`, `<a>&#xD800;</a>`, `<a>&#xFFFE;</a>`, `<a>&#99999999999999999999;</a>`, `<a>&#x;</a>`, `<a>&#X41;</a>`,
		`<a>&bogus;</a>`, `<a>&amp</a>`, `<a>&;</a>`, `<a k="&lt;&bogus;"/>`,
		`<a>&uuml;&nbsp;&frac12;</a>`,              // the HTML entity table
		"\ufeff<a>bom</a>",                         // a BOM
		`<a><![CDATA[<raw> & ]]></a>`,              // CDATA
		`<!DOCTYPE a [<!ENTITY e "v">]><a>&e;</a>`, // DOCTYPE with an internal subset
		`<a xmlns="u"><b/></a>`, `<x:a xmlns:x="u"/>`, `<a x:k="v"/>`,
		`<a k="1<2"/>`, `<a k="1>2" j='"'/>`, // < and > in values
		`<a/>tail`, `<a/><!-- c --> `, `<a></a></a>`, // after the root closes
		"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><a>J\xfcrgen &uuml;</a>",
		`<?xml version="1.0" encoding="utf-8" standalone="yes"?><a/>`,
		`<?xml version='1.0' encoding='KOI8-R'?><a/>`,
		`<?xml version="1.1"?><a/>`, `<?xml encoding="latin1" version="1.0"?><a/>`, `<?xml?><a/>`,
		`<a k=v/>`, `<a k/>`, `<a k = "v"j="w" />`, `<a / >`, `<a></a >`, `<a></ a>`,
		`<1a/>`, `<a.b-c_d/>`, `<é/>`, `<a\u00e9/>`, `<a é="1"/>`,
		"<a>\x01</a>", "<a>\xc3</a>", "<a>\xef\xbf\xbe</a>", "<a>\xef\xbf\xbd</a>", "<a k='\x00'/>",
		`<a><b>x</a></b>`, `<a><b>x</a>`, `<`, `<a`, `<a k="v`, `<!-`, `<!--x`, `<?pi`,
		`<i><a>x</a></i>`, `<a><i>x<drop>y</drop></i>z<b>w</b></a>`, // text runs around children
		`<a><d><d><d><d>deep</d>e</d>f</d>g</d>h</a>`, // a text leaf at every level
		`<a><b></a></a>`, `<a><b><c></a></b></a>`, // an end tag naming an outer element
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		want, wantErr := referenceParse(strings.NewReader(doc))
		if got, ok := newParser().scanTree(nil, []byte(doc)); ok {
			if wantErr != nil {
				t.Fatalf("the scanner accepts %q, the reference refuses it: %v", doc, wantErr)
			}
			if diff := treeDiff(got, want); diff != "" {
				t.Fatalf("scanner and reference disagree on %q: %s", doc, diff)
			}
		}
		decoded, err := newParser().decodeTree(nil, []byte(doc))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("the decoder-fed builder says %v on %q, the reference %v", err, doc, wantErr)
		}
		if diff := treeDiff(decoded, want); err == nil && diff != "" {
			t.Fatalf("decoder and reference disagree on %q: %s", doc, diff)
		}
		tree, err := ParseString(doc)
		if err != nil {
			if wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("Parse fails on %q with %q, the reference says %v", doc, err, wantErr)
			}
			return
		}
		if diff := treeDiff(tree, want); wantErr != nil || diff != "" {
			t.Fatalf("Parse and the reference disagree on %q: %v %s", doc, wantErr, diff)
		}
		if tree == nil || tree.Root == nil {
			t.Fatalf("nil tree/root without error for %q", doc)
		}
		// The accepted tree must be internally consistent enough for the
		// downstream pipeline: walkable and renderable.
		if d := tree.Depth(); d < 1 {
			t.Fatalf("accepted tree has depth %d for %q", d, doc)
		}
	})
}
