package txn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// persistFormat versions the on-disk corpus encoding. Format 2 stores the
// transaction set as columnar blocks (one flat id arena plus an offset
// table and three per-transaction columns), which gob encodes as contiguous
// slices instead of a length-prefixed struct per transaction. Format 1, the
// array-of-structs layout it replaced, is no longer read: Load reports it as
// version skew like any other unknown format.
const persistFormat = 2

// ErrCorruptCorpus tags every structural-corruption error Load returns —
// truncated streams, offset tables that do not tile the arena, spans with
// out-of-range or unsorted ids, dangling constituents, inconsistent
// interning tables. Callers distinguish "this stream is damaged" from
// version skew ("unsupported corpus format", not wrapped) and plain I/O
// with errors.Is.
var ErrCorruptCorpus = errors.New("corrupt corpus stream")

// wireCorpus is the gob representation of a preprocessed corpus. Trees are
// not persisted — a corpus is self-contained for clustering (the
// transactions and weighted items carry everything the algorithms read).
type wireCorpus struct {
	Format int
	Paths  []string
	Terms  []string
	Items  []wireItem
	// Transactions is never written and never read. It was the format-1
	// array-of-structs block and stays declared because gob's type
	// descriptor — the first bytes of every stream — names every field of
	// wireCorpus: dropping it would change the bytes of every saved corpus.
	Transactions []wireTransaction
	// Columnar transaction blocks: TxnItems is the flat arena of item ids,
	// transaction i spanning [TxnOffsets[i], TxnOffsets[i+1]); docs, tuple
	// indices and labels are parallel per-transaction columns. Tag paths are
	// not persisted — they are a column of the item table.
	TxnItems      []ItemID
	TxnOffsets    []int32
	TxnDocs       []int32
	TxnTuples     []int32
	TxnLabels     []int32
	TruncatedDocs int
	MaxDepth      int
}

type wireItem struct {
	Path         int32
	Answer       string
	Vector       []vector.Entry
	Synthetic    bool
	Constituents []ItemID
}

// wireTransaction only completes the gob type descriptor of wireCorpus (see
// wireCorpus.Transactions).
type wireTransaction struct {
	Items      []ItemID
	Doc        int
	TupleIndex int
	Label      int
}

// Save serializes the corpus (without source trees) so preprocessing can be
// done once and reused across clustering runs. The columnar blocks are
// derived from Transactions, so a corpus saves the same bytes however it was
// assembled — built, loaded or written as a literal.
func (c *Corpus) Save(w io.Writer) error {
	wc := wireCorpus{
		Format:        persistFormat,
		TruncatedDocs: c.TruncatedDocs,
		MaxDepth:      c.MaxDepth,
	}
	wc.Paths = make([]string, c.Paths.Len())
	for i := range wc.Paths {
		wc.Paths[i] = c.Paths.Path(xmltree.PathID(i)).String()
	}
	wc.Terms = make([]string, c.Terms.Len())
	for i := range wc.Terms {
		wc.Terms[i] = c.Terms.Term(int32(i))
	}
	wc.Items = make([]wireItem, c.Items.Len())
	for i := range wc.Items {
		it := c.Items.Get(ItemID(i))
		wc.Items[i] = wireItem{
			Path:         int32(it.Path),
			Answer:       it.Answer,
			Vector:       it.Vector.Entries(),
			Synthetic:    it.Synthetic,
			Constituents: it.Constituents,
		}
	}
	total := 0
	for _, tr := range c.Transactions {
		total += len(tr.Items)
	}
	wc.TxnItems = make([]ItemID, 0, total)
	wc.TxnOffsets = make([]int32, 1, len(c.Transactions)+1)
	wc.TxnDocs = make([]int32, 0, len(c.Transactions))
	wc.TxnTuples = make([]int32, 0, len(c.Transactions))
	wc.TxnLabels = make([]int32, 0, len(c.Transactions))
	for _, tr := range c.Transactions {
		wc.TxnItems = append(wc.TxnItems, tr.Items...)
		wc.TxnOffsets = append(wc.TxnOffsets, int32(len(wc.TxnItems)))
		wc.TxnDocs = append(wc.TxnDocs, int32(tr.Doc))
		wc.TxnTuples = append(wc.TxnTuples, int32(tr.TupleIndex))
		wc.TxnLabels = append(wc.TxnLabels, int32(tr.Label))
	}
	if err := gob.NewEncoder(w).Encode(wc); err != nil {
		return fmt.Errorf("txn: save corpus: %w", err)
	}
	return nil
}

// corrupt wraps a corruption description with the typed sentinel.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("txn: load corpus: %w: %s", ErrCorruptCorpus, fmt.Sprintf(format, args...))
}

// Load deserializes a corpus written by Save. The returned corpus has no
// source trees; everything the clustering pipeline needs is restored,
// including interning-table identities. Damaged streams fail with an error
// wrapping ErrCorruptCorpus, never a panic or a silently short corpus.
func Load(r io.Reader) (*Corpus, error) {
	var wc wireCorpus
	if err := gob.NewDecoder(r).Decode(&wc); err != nil {
		return nil, fmt.Errorf("txn: load corpus: %w: %w", ErrCorruptCorpus, err)
	}
	if wc.Format != persistFormat {
		return nil, fmt.Errorf("txn: unsupported corpus format %d", wc.Format)
	}
	paths := xmltree.NewPathTable()
	for i, p := range wc.Paths {
		if id := paths.Intern(xmltree.ParsePath(p)); int(id) != i {
			return nil, corrupt("path table at %d (%q)", i, p)
		}
	}
	terms := NewTermTable()
	for i, t := range wc.Terms {
		if id := terms.Intern(t); int(id) != i {
			return nil, corrupt("term table at %d (%q)", i, t)
		}
	}
	items := NewItemTable(paths)
	for i, wi := range wc.Items {
		if wi.Path < 0 || int(wi.Path) >= paths.Len() {
			return nil, corrupt("item %d references unknown path %d", i, wi.Path)
		}
		var id ItemID
		if wi.Synthetic {
			for _, cid := range wi.Constituents {
				if cid < 0 || int(cid) >= i {
					return nil, corrupt("synthetic item %d references unknown constituent %d", i, cid)
				}
			}
			id = items.InternSynthetic(xmltree.PathID(wi.Path), wi.Answer, vector.FromEntries(wi.Vector), wi.Constituents)
		} else {
			id = items.Intern(xmltree.PathID(wi.Path), wi.Answer)
			items.SetVector(id, vector.FromEntries(wi.Vector))
		}
		if int(id) != i {
			return nil, corrupt("item table at %d", i)
		}
	}
	c := &Corpus{
		Paths:         paths,
		Items:         items,
		Terms:         terms,
		TruncatedDocs: wc.TruncatedDocs,
		MaxDepth:      wc.MaxDepth,
	}
	if err := loadTransactions(c, &wc); err != nil {
		return nil, err
	}
	return c, nil
}

// loadTransactions validates and restores the columnar blocks: the offset
// table must tile the id arena exactly, the per-transaction columns must
// agree on the transaction count, and every span must hold strictly
// ascending ids within the item table. Transactions alias the one decoded
// arena, capacity-clamped so no span can grow into its neighbor.
func loadTransactions(c *Corpus, wc *wireCorpus) error {
	nTx := 0
	switch {
	case len(wc.TxnOffsets) == 0:
		if len(wc.TxnItems) != 0 {
			return corrupt("columnar block has %d item positions but no offset table", len(wc.TxnItems))
		}
	default:
		if wc.TxnOffsets[0] != 0 {
			return corrupt("columnar offset table starts at %d, want 0", wc.TxnOffsets[0])
		}
		if got := int(wc.TxnOffsets[len(wc.TxnOffsets)-1]); got != len(wc.TxnItems) {
			return corrupt("columnar offset table ends at %d, arena has %d positions", got, len(wc.TxnItems))
		}
		nTx = len(wc.TxnOffsets) - 1
	}
	if len(wc.TxnDocs) != nTx || len(wc.TxnTuples) != nTx || len(wc.TxnLabels) != nTx {
		return corrupt("columnar transaction columns disagree: %d offsets vs %d docs, %d tuples, %d labels",
			nTx, len(wc.TxnDocs), len(wc.TxnTuples), len(wc.TxnLabels))
	}
	nItems := c.Items.Len()
	for i := 0; i < nTx; i++ {
		// lo ≥ 0 by induction: the table starts at 0 and no span is negative.
		lo, hi := wc.TxnOffsets[i], wc.TxnOffsets[i+1]
		if hi < lo {
			return corrupt("transaction %d spans [%d, %d): negative length", i, lo, hi)
		}
		if int(hi) > len(wc.TxnItems) {
			return corrupt("transaction %d spans [%d, %d) beyond the arena of %d positions", i, lo, hi, len(wc.TxnItems))
		}
		span := wc.TxnItems[lo:hi:hi]
		var prev ItemID = -1
		for _, id := range span {
			if id < 0 || int(id) >= nItems {
				return corrupt("transaction %d references unknown item %d", i, id)
			}
			if id <= prev {
				return corrupt("transaction %d span not strictly ascending at item %d", i, id)
			}
			prev = id
		}
		c.Transactions = append(c.Transactions, &Transaction{
			Items:      span,
			Doc:        int(wc.TxnDocs[i]),
			TupleIndex: int(wc.TxnTuples[i]),
			Label:      int(wc.TxnLabels[i]),
		})
	}
	return nil
}
