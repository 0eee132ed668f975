package xmltree_test

import (
	"bytes"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/xmltree"
)

// TestGeneratedDocumentsScan pins the fast path on the traffic that is
// parsed most: every document the four generators render — what ingest and
// serve read — is read by the byte scanner, none by the encoding/xml
// fallback.
func TestGeneratedDocumentsScan(t *testing.T) {
	sizes := map[string]int{"DBLP": 400, "IEEE": 40, "Wikipedia": 100, "Shakespeare": 14} // 554 documents
	for _, seed := range []int64{1, 1000003} {
		docs := 0
		for _, name := range dataset.Names() {
			gen, _ := dataset.ByName(name)
			for i, tree := range gen(dataset.Spec{Docs: sizes[name], Seed: seed}).Trees {
				docs++
				var b bytes.Buffer
				if err := xmltree.Render(&b, tree); err != nil {
					t.Fatal(err)
				}
				if !xmltree.Scans(b.Bytes()) {
					t.Errorf("seed %d: the scanner declines %s document %d:\n%s", seed, name, i, b.Bytes())
				}
			}
		}
		if docs != 554 {
			t.Errorf("seed %d: %d documents rendered, want 554", seed, docs)
		}
	}
}
