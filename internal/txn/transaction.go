package txn

import (
	"slices"
	"sort"

	"xmlclust/internal/tuple"
	"xmlclust/internal/xmltree"
)

// Transaction is the item set Iτ of one tree tuple (or of a synthetic
// cluster representative). Items are sorted ascending and distinct.
type Transaction struct {
	Items []ItemID
	// Doc is the source document id; -1 for synthetic representatives.
	Doc int
	// TupleIndex is the tuple's enumeration index within its document.
	TupleIndex int
	// Label is the ground-truth class index when known, else -1.
	Label int
}

// NewTransaction builds a transaction from possibly unsorted, possibly
// duplicated item ids.
func NewTransaction(items []ItemID, doc, tupleIndex, label int) *Transaction {
	return &Transaction{Items: sortedSet(append([]ItemID(nil), items...)), Doc: doc, TupleIndex: tupleIndex, Label: label}
}

// sortedSet sorts ids in place and drops repeats; the set is the returned
// prefix.
func sortedSet(ids []ItemID) []ItemID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Len returns the number of items.
func (t *Transaction) Len() int { return len(t.Items) }

// Contains reports whether the transaction holds item id.
func (t *Transaction) Contains(id ItemID) bool {
	i := sort.Search(len(t.Items), func(i int) bool { return t.Items[i] >= id })
	return i < len(t.Items) && t.Items[i] == id
}

// UnionSize returns |a ∪ b| for the two sorted item sets.
func UnionSize(a, b *Transaction) int {
	i, j, n := 0, 0, 0
	for i < len(a.Items) && j < len(b.Items) {
		switch {
		case a.Items[i] == b.Items[j]:
			i++
			j++
		case a.Items[i] < b.Items[j]:
			i++
		default:
			j++
		}
		n++
	}
	return n + (len(a.Items) - i) + (len(b.Items) - j)
}

// Equal reports whether two transactions hold exactly the same item set.
func (t *Transaction) Equal(o *Transaction) bool {
	if o == nil || len(t.Items) != len(o.Items) {
		return false
	}
	for i := range t.Items {
		if t.Items[i] != o.Items[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Transaction) Clone() *Transaction {
	return &Transaction{
		Items:      append([]ItemID(nil), t.Items...),
		Doc:        t.Doc,
		TupleIndex: t.TupleIndex,
		Label:      t.Label,
	}
}

// Corpus bundles a preprocessed XML collection: interning tables, the
// transaction set S and provenance metadata. A Corpus is immutable after
// the weighting stage, except for the concurrent-safe interning of
// synthetic representative items during clustering.
type Corpus struct {
	Paths *xmltree.PathTable
	Items *ItemTable
	Terms *TermTable
	// Transactions is the set S of XML transactions for the collection.
	Transactions []*Transaction
	// TruncatedDocs counts documents whose tuple enumeration hit the cap.
	TruncatedDocs int
	// MaxDepth is the maximum tree depth over the collection.
	MaxDepth int
}

// BuildOptions configures corpus construction.
type BuildOptions struct {
	Tuple tuple.Options
	// Labels optionally assigns a ground-truth class per document (indexed
	// by DocID); transactions inherit their document's label.
	Labels []int
}

// Build parses nothing: it takes already-parsed trees, extracts tree tuples
// and constructs the transactional corpus. Vectors are zero until
// weighting.Apply is run. Build is the batch driver over Builder; streaming
// callers use Builder (or internal/corpus) directly and never hold the
// whole tree slice.
func Build(trees []*xmltree.Tree, opts BuildOptions) *Corpus {
	b := NewBuilder(opts)
	for _, t := range trees {
		b.Add(t)
	}
	return b.Finish()
}

// MaxTransactionLen returns |trmax| over a set of transactions (0 if empty).
func MaxTransactionLen(trs []*Transaction) int {
	max := 0
	for _, tr := range trs {
		if tr.Len() > max {
			max = tr.Len()
		}
	}
	return max
}
