package xmltree

import (
	"strings"
	"testing"
)

// fuzzOptionSets are the ParseOptions shapes FuzzParse exercises: the
// default mapping, per-text-run leaves, and the strip/inline/depth knobs
// used for the IEEE and Wikipedia corpora.
var fuzzOptionSets = []ParseOptions{
	DefaultParseOptions(),
	{ConcatenateText: false, KeepAttributes: true},
	{ConcatenateText: true, StripTags: []string{"drop", "style"}, InlineTags: []string{"i", "b"}},
	{ConcatenateText: false, MaxDepth: 3},
}

// FuzzParse feeds arbitrary byte soup to the XML → tree mapping. The
// parser may reject input with an error but must never panic, and any
// accepted document must come back with a usable root. The seed corpus is
// drawn from the package's test fixtures plus the malformed/truncated
// shapes the error-path tests use.
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
		// One level past maxTreeDepth: rejected by the default mapping,
		// accepted (flattened) where MaxDepth truncates the tree first.
		strings.Repeat("<d>", maxTreeDepth) + "bomb",
		"<a>\xff\xfe binary \x00 soup</a>",
		`<a xmlns:x="u"><x:b x:k="v">ns</x:b></a>`,
		`<!-- comment only -->`,
		`<![CDATA[loose cdata]]>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, opts := range fuzzOptionSets {
			tree, err := ParseString(doc, opts)
			if err != nil {
				continue
			}
			if tree == nil || tree.Root == nil {
				t.Fatalf("nil tree/root without error for %q", doc)
			}
			// The accepted tree must be internally consistent enough for the
			// downstream pipeline: walkable and renderable.
			if d := tree.Depth(); d < 1 {
				t.Fatalf("accepted tree has depth %d for %q", d, doc)
			}
		}
	})
}
