package xmltree

import (
	"strings"
	"testing"
)

// paperDoc is the Fig. 2 DBLP example, abridged.
const paperDoc = `<?xml version="1.0"?>
<dblp>
  <inproceedings key="conf/kdd/ZakiA03">
    <author>M.J. Zaki</author>
    <author>C.C. Aggarwal</author>
    <title>XRules: an effective structural classifier for XML data</title>
    <year>2003</year>
    <booktitle>KDD</booktitle>
    <pages>316-325</pages>
  </inproceedings>
  <inproceedings key="conf/kdd/Zaki02">
    <author>M.J. Zaki</author>
    <title>Efficiently mining frequent trees in a forest</title>
    <year>2002</year>
    <booktitle>KDD</booktitle>
    <pages>71-80</pages>
  </inproceedings>
</dblp>`

func mustPaperTree(t *testing.T) *Tree {
	t.Helper()
	tree, err := ParseString(paperDoc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return tree
}

func TestParsePaperExample(t *testing.T) {
	tree := mustPaperTree(t)
	if tree.Root.Label != "dblp" {
		t.Fatalf("root = %q", tree.Root.Label)
	}
	if got := len(tree.Root.Children); got != 2 {
		t.Fatalf("root children = %d, want 2", got)
	}
	// First inproceedings: @key + 2 authors + title + year + booktitle + pages.
	first := tree.Root.Children[0]
	if len(first.Children) != 7 {
		t.Fatalf("first record children = %d, want 7", len(first.Children))
	}
	if first.Children[0].Kind != Attribute || first.Children[0].Label != "@key" {
		t.Errorf("attribute leaf missing: %+v", first.Children[0])
	}
}

func TestAnswerTagAndCompletePaths(t *testing.T) {
	tree := mustPaperTree(t)
	// Tag path answers are node identifiers (Example 1).
	titles := tree.Answer(ParsePath("dblp.inproceedings.title"))
	if len(titles) != 2 {
		t.Fatalf("title tag path answers = %v", titles)
	}
	// Complete path answers are leaf strings.
	authors := tree.Answer(ParsePath("dblp.inproceedings.author.S"))
	want := map[string]bool{"M.J. Zaki": true, "C.C. Aggarwal": true}
	if len(authors) != 3 {
		t.Fatalf("author answers = %v", authors)
	}
	for _, a := range authors {
		if !want[a] {
			t.Errorf("unexpected author %q", a)
		}
	}
	keys := tree.Answer(ParsePath("dblp.inproceedings.@key"))
	if len(keys) != 2 || keys[0] != "conf/kdd/ZakiA03" {
		t.Errorf("keys = %v", keys)
	}
}

func TestAnswerMissingPath(t *testing.T) {
	tree := mustPaperTree(t)
	if got := tree.Answer(ParsePath("dblp.article.title.S")); got != nil {
		t.Errorf("missing path answered %v", got)
	}
	if got := tree.Answer(ParsePath("wrongroot.title")); got != nil {
		t.Errorf("wrong root answered %v", got)
	}
}

func TestDepth(t *testing.T) {
	tree := mustPaperTree(t)
	// dblp → inproceedings → author → S is 4 levels.
	if got := tree.Depth(); got != 4 {
		t.Errorf("depth = %d, want 4", got)
	}
}

// TestCompleteAndTagPaths: P_XT of Fig. 2 is the set of its leaves' paths,
// each complete, and dropping the last symbol of one gives a tag path.
func TestCompleteAndTagPaths(t *testing.T) {
	tree := mustPaperTree(t)
	cps := map[string]bool{}
	for _, l := range tree.Leaves() {
		p := NodePath(l)
		cps[p.String()] = true
		if !p.IsComplete() {
			t.Errorf("path %v should be complete", p)
		}
		if p[:len(p)-1].IsComplete() {
			t.Errorf("tag path %v claims to be complete", p[:len(p)-1])
		}
	}
	wantCPs := map[string]bool{
		"dblp.inproceedings.@key":        true,
		"dblp.inproceedings.author.S":    true,
		"dblp.inproceedings.title.S":     true,
		"dblp.inproceedings.year.S":      true,
		"dblp.inproceedings.booktitle.S": true,
		"dblp.inproceedings.pages.S":     true,
	}
	if len(cps) != len(wantCPs) {
		t.Fatalf("complete paths = %v", cps)
	}
	for p := range cps {
		if !wantCPs[p] {
			t.Errorf("unexpected complete path %v", p)
		}
	}
}

func TestNodePathAndLeaves(t *testing.T) {
	tree := mustPaperTree(t)
	leaves := tree.Leaves()
	if len(leaves) != 13 {
		t.Fatalf("leaves = %d, want 13", len(leaves))
	}
	for _, l := range leaves {
		p := NodePath(l)
		if p[0] != "dblp" {
			t.Errorf("leaf path %v does not start at root", p)
		}
		if !p.IsComplete() {
			t.Errorf("leaf path %v not complete", p)
		}
	}
}

// TestParseTextConcatenation: the runs of character data under one element,
// split by its children, comments and processing instructions, are joined
// with a space into its one S leaf; a child's text stays the child's.
func TestParseTextConcatenation(t *testing.T) {
	doc := `<a><b>first<i>inline</i>second<!-- c -->third<?pi x?>fourth</b></a>`
	tree, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Answer(ParsePath("a.b.S")); len(got) != 1 || got[0] != "first second third fourth" {
		t.Errorf("a.b.S = %q, want one leaf \"first second third fourth\"", got)
	}
	if got := tree.Answer(ParsePath("a.b.i.S")); len(got) != 1 || got[0] != "inline" {
		t.Errorf("a.b.i.S = %q, want [inline]", got)
	}
}

// TestParseSeparateTextRuns: text on either side of a child element is one
// S leaf, the element's last child, after the child and its attributes.
func TestParseSeparateTextRuns(t *testing.T) {
	tree, err := ParseString(`<a k="v">one<b>mid</b>two</a>`)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, c := range tree.Root.Children {
		labels = append(labels, c.Label)
	}
	if got := strings.Join(labels, " "); got != "@k b S" {
		t.Errorf("children of a are %s, want @k b S", got)
	}
	if got := tree.Answer(ParsePath("a.S")); len(got) != 1 || got[0] != "one two" {
		t.Errorf("a.S = %q, want one leaf \"one two\"", got)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString(""); err == nil {
		t.Error("empty document should fail")
	}
	if _, err := ParseString("no xml here"); err == nil {
		t.Error("non-XML should fail")
	}
}

// nested returns n nested <a> elements around one text leaf.
func nested(n int) string {
	return strings.Repeat("<a>", n) + "x" + strings.Repeat("</a>", n)
}

// TestParseDepthLimit pins the bound that keeps the recursive tree walks
// off a fatal stack overflow: the deepest tree Parse builds has exactly
// maxTreeDepth levels, one more element is an error, and the error arrives
// without building the rest of a depth bomb.
func TestParseDepthLimit(t *testing.T) {
	tree, err := ParseString(nested(maxTreeDepth - 1))
	if err != nil {
		t.Fatalf("tree of depth %d rejected: %v", maxTreeDepth, err)
	}
	if d := tree.Depth(); d != maxTreeDepth {
		t.Fatalf("Depth() = %d, want %d", d, maxTreeDepth)
	}
	if _, err := ParseString(nested(maxTreeDepth)); err == nil {
		t.Fatalf("tree of depth %d accepted", maxTreeDepth+1)
	}
	// 2.2 M levels, 15.4 MB: under cxkserve's 16 MB body cap.
	if _, err := ParseString(nested(2_200_000)); err == nil {
		t.Fatal("depth bomb accepted")
	}
}

func TestParseWhitespaceNormalization(t *testing.T) {
	doc := "<a><b>  lots   of\n\t spaces  </b></a>"
	tree, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Answer(ParsePath("a.b.S"))
	if len(got) != 1 || got[0] != "lots of spaces" {
		t.Errorf("whitespace not normalized: %q", got)
	}
}

func TestApplyEmptyAndRootOnly(t *testing.T) {
	tree := mustPaperTree(t)
	if got := tree.Apply(nil); got != nil {
		t.Errorf("empty path applied: %v", got)
	}
	if got := tree.Apply(ParsePath("dblp")); len(got) != 1 || got[0] != tree.Root {
		t.Errorf("root path = %v", got)
	}
}

func TestPathString(t *testing.T) {
	p := ParsePath("dblp.inproceedings.author.S")
	if p.String() != "dblp.inproceedings.author.S" {
		t.Errorf("roundtrip failed: %q", p.String())
	}
	if len(p) != 4 {
		t.Errorf("len = %d", len(p))
	}
	if ParsePath("") != nil {
		t.Error("empty string should parse to nil path")
	}
}

func TestRenderRoundtrip(t *testing.T) {
	tree := mustPaperTree(t)
	out := RenderString(tree)
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	// Answers must survive the roundtrip.
	for _, path := range []string{
		"dblp.inproceedings.@key",
		"dblp.inproceedings.author.S",
		"dblp.inproceedings.booktitle.S",
	} {
		a1 := tree.Answer(ParsePath(path))
		a2 := re.Answer(ParsePath(path))
		if len(a1) != len(a2) {
			t.Fatalf("path %s: %v vs %v", path, a1, a2)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Errorf("path %s answer %d: %q vs %q", path, i, a1[i], a2[i])
			}
		}
	}
}

func TestRenderEscapes(t *testing.T) {
	tree := NewTree("a")
	tree.AddText(tree.Root, `tricky <text> & "quotes"`)
	out := RenderString(tree)
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse escaped: %v\n%s", err, out)
	}
	got := re.Answer(ParsePath("a.S"))
	if len(got) != 1 || got[0] != `tricky <text> & "quotes"` {
		t.Errorf("escape roundtrip: %q", got)
	}
}

func TestMultipleRootsRejected(t *testing.T) {
	if _, err := ParseString("<a/><b/>"); err == nil {
		t.Error("multiple roots should fail")
	}
}

func TestTreeString(t *testing.T) {
	tree := NewTree("root")
	tree.AddAttribute(tree.Root, "id", "1")
	child := tree.AddElement(tree.Root, "child")
	tree.AddText(child, "hello")
	s := tree.String()
	for _, frag := range []string{"root", `@id="1"`, "child", `S="hello"`} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}
