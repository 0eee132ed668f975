package tuple_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/tuple"
	"xmlclust/internal/xmltree"
)

// FuzzExtract holds the extraction of raw XML in the pass that reads it
// against the tree-walk oracle on the parsed tree: the same tuples (leaf
// for leaf, in order, with their paths and answers), Truncated,
// TotalCombinations and depth, at caps that truncate everywhere, somewhere
// and nowhere — or the error xmltree.ParseBytes gives, in the same words.
// Each input also runs with CDATA appended, which the byte scanner declines,
// so the extractor is fed by encoding/xml after a Reset. The seeds are
// FuzzParse's plus one rendered document per generator.
func FuzzExtract(f *testing.F) {
	raw, err := os.ReadFile("../xmltree/testdata/seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			s, err := strconv.Unquote(line)
			if err != nil {
				f.Fatalf("seeds.txt: %q: %v", line, err)
			}
			f.Add(s)
		}
	}
	f.Add(strings.Repeat("<d>", 10000) + "bomb")
	for _, name := range dataset.Names() {
		gen, _ := dataset.ByName(name)
		f.Add(xmltree.RenderString(gen(dataset.Spec{Docs: 4, Seed: 1}).Trees[0]))
	}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, data := range []string{doc, doc + "<![CDATA[]]>"} {
			tree, perr := xmltree.ParseString(data)
			for _, max := range []int{1, 3, 17, 0} {
				res, err := tuple.ExtractBytes([]byte(data), tuple.Options{MaxTuplesPerTree: max})
				if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
					t.Fatalf("%q: ExtractBytes fails with %v, ParseBytes with %v", data, err, perr)
				}
				if err != nil {
					continue
				}
				if d := tuple.SameAsOracle(tree, res, max); d != "" {
					t.Fatalf("%q, max %d: %s", data, max, d)
				}
			}
		}
	})
}
