package txn_test

import (
	"bytes"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/txn"
)

// TestLoadAllocations: Load slices arenas, so what it allocates does not grow
// with the corpus beyond the groups of the two maps it sizes up front: eight
// times the documents must cost well under a fiftieth of an allocation per
// extra item, where replaying Intern cost more than one.
func TestLoadAllocations(t *testing.T) {
	allocs := func(docs int) (perLoad float64, items int) {
		c := dataset.DBLP(dataset.Spec{Docs: docs, Seed: 7}).BuildCorpus(dataset.ByHybrid, 0, 1)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		perLoad = testing.AllocsPerRun(5, func() {
			if _, err := txn.Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		return perLoad, c.Items.Len()
	}
	small, smallItems := allocs(500)
	large, largeItems := allocs(4000)
	perItem := (large - small) / float64(largeItems-smallItems)
	t.Logf("Load: %.0f allocations for %d items, %.0f for %d: %.4f per extra item", small, smallItems, large, largeItems, perItem)
	if perItem >= 0.02 {
		t.Fatalf("Load allocates %.4f objects per extra item, want < 0.02", perItem)
	}
}
