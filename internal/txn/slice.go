package txn

import (
	"fmt"
	"math"

	"xmlclust/internal/fnv"
	"xmlclust/internal/xmltree"
)

// ColumnarSlice is a standalone, gob-encodable extract of a subset of corpus
// transactions in the block layout of the persisted corpus (an item-id
// column with span offsets) plus the tag-path column of those ids from the
// item table — the unit the elastic peer fabric streams when handing a
// partition slice to a joining peer.
//
// Every process of a distributed session loads the same corpus, so the
// receiver does not install the blocks: it rebuilds the same slice locally
// and verifies the transfer column-by-column (VerifyColumnarSlice),
// turning a diverging corpus or partition into a typed error instead of
// silently wrong clustering.
type ColumnarSlice struct {
	// Indices are the corpus transaction indices, in slice order.
	Indices []int
	// Offsets delimit spans: span i is [Offsets[i], Offsets[i+1]).
	Offsets []int32
	// ItemIDs and TagPathIDs are the concatenated column blocks.
	ItemIDs    []ItemID
	TagPathIDs []xmltree.PathID
}

// ColumnarSlice extracts the column blocks of the given transaction
// indices.
func (c *Corpus) ColumnarSlice(idxs []int) (*ColumnarSlice, error) {
	cs := &ColumnarSlice{
		Indices: append([]int(nil), idxs...),
		Offsets: make([]int32, 1, len(idxs)+1),
	}
	for _, idx := range idxs {
		if idx < 0 || idx >= len(c.Transactions) {
			return nil, fmt.Errorf("txn: slice index %d outside corpus of %d transactions", idx, len(c.Transactions))
		}
		tr := c.Transactions[idx]
		cs.ItemIDs = append(cs.ItemIDs, tr.Items...)
		c.Items.mu.RLock()
		for _, id := range tr.Items {
			cs.TagPathIDs = append(cs.TagPathIDs, c.Items.tagPaths[id])
		}
		c.Items.mu.RUnlock()
		if len(cs.ItemIDs) > math.MaxInt32 {
			return nil, fmt.Errorf("txn: columnar slice exceeds int32 positions")
		}
		cs.Offsets = append(cs.Offsets, int32(len(cs.ItemIDs)))
	}
	return cs, nil
}

// Spans returns the number of transactions the slice covers.
func (cs *ColumnarSlice) Spans() int { return len(cs.Indices) }

// Bytes returns the approximate encoded size of the slice (diagnostics and
// rebalance accounting).
func (cs *ColumnarSlice) Bytes() int64 {
	return int64(8*len(cs.Indices) + 4*len(cs.Offsets) + 4*len(cs.ItemIDs) + 4*len(cs.TagPathIDs))
}

// Fingerprint hashes the slice (FNV-1a over indices, offsets and both
// column blocks) so peers can cross-check a transfer cheaply before the
// full column comparison.
func (cs *ColumnarSlice) Fingerprint() uint64 {
	h := fnv.Offset
	for _, idx := range cs.Indices {
		h = fnv.Mix(h, uint64(idx))
	}
	h = fnv.Mix(h, ^uint64(0))
	for _, o := range cs.Offsets {
		h = fnv.Mix(h, uint64(o))
	}
	h = fnv.Mix(h, ^uint64(0))
	for _, id := range cs.ItemIDs {
		h = fnv.Mix(h, uint64(id))
	}
	h = fnv.Mix(h, ^uint64(0))
	for _, tp := range cs.TagPathIDs {
		h = fnv.Mix(h, uint64(tp))
	}
	return h
}

// VerifyColumnarSlice checks a received slice against this corpus: the same
// indices must produce identical column blocks. A mismatch means the sender
// and receiver loaded diverging corpora (or partitions) and continuing
// would cluster silently wrong data.
func (c *Corpus) VerifyColumnarSlice(cs *ColumnarSlice) error {
	mine, err := c.ColumnarSlice(cs.Indices)
	if err != nil {
		return err
	}
	if len(mine.Offsets) != len(cs.Offsets) || len(mine.ItemIDs) != len(cs.ItemIDs) ||
		len(mine.TagPathIDs) != len(cs.TagPathIDs) {
		return fmt.Errorf("txn: columnar slice shape diverges from local corpus (%d/%d/%d vs %d/%d/%d positions)",
			len(cs.Offsets), len(cs.ItemIDs), len(cs.TagPathIDs),
			len(mine.Offsets), len(mine.ItemIDs), len(mine.TagPathIDs))
	}
	for i, o := range mine.Offsets {
		if cs.Offsets[i] != o {
			return fmt.Errorf("txn: columnar slice span %d diverges from local corpus", i)
		}
	}
	for i, id := range mine.ItemIDs {
		if cs.ItemIDs[i] != id {
			return fmt.Errorf("txn: columnar slice item column diverges at position %d", i)
		}
	}
	for i, tp := range mine.TagPathIDs {
		if cs.TagPathIDs[i] != tp {
			return fmt.Errorf("txn: columnar slice tag-path column diverges at position %d", i)
		}
	}
	return nil
}
