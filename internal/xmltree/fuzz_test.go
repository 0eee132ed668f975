package xmltree

import (
	"fmt"
	"os"
	"strconv"
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
// subset (testdata/seeds.txt, which FuzzExtract starts from too).
func FuzzParse(f *testing.F) {
	seeds := append(readSeeds(f, "testdata/seeds.txt"),
		`<a>`+strings.Repeat("<d>", 50)+"deep"+strings.Repeat("</d>", 50)+`</a>`,
		// One level past maxTreeDepth: rejected.
		strings.Repeat("<d>", maxTreeDepth)+"bomb")
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		want, wantErr := referenceParse(strings.NewReader(doc))
		if got, ok := newParser().scanTree([]byte(doc)); ok {
			if wantErr != nil {
				t.Fatalf("the scanner accepts %q, the reference refuses it: %v", doc, wantErr)
			}
			if diff := treeDiff(got, want); diff != "" {
				t.Fatalf("scanner and reference disagree on %q: %s", doc, diff)
			}
		}
		decoded, err := newParser().decodeTree([]byte(doc))
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

// readSeeds returns the documents of a seed file: one Go-quoted string a
// line, lines that start with # being comments.
func readSeeds(tb testing.TB, path string) []string {
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var seeds []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("%s: %q: %v", path, line, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}
