// Package txn implements the transactional model for XML tree tuples
// (Sect. 3.3 of the paper): the item domain is built over the leaves of the
// tree tuple collection — each item is a pair ⟨complete path, answer⟩ — and
// every tree tuple becomes a transaction, i.e. the set of items of its
// leaves. Items are interned collection-wide so that identical
// path/answer combinations map to one identifier (cf. Fig. 4(b)).
//
// A transaction has one sparse form: Transaction.Items, the sorted ids of
// its items. What the similarity engines read about an item — its tag path
// and its TCU vector — sits in two flat columns of the ItemTable indexed by
// id, so resolving a transaction (ItemTable.ResolveColumns) is one pass over
// contiguous arrays under one lock. Those columns are the columnar layout;
// nothing per corpus mirrors them, and the corpus file is those columns:
// checksummed blocks of offset columns and arenas (layout in persist.go).
// Load checks every index, then slices the arenas — one string, one array
// per column, capacity-clamped spans — so a loaded table keeps growing.
//
// Interning is once per leaf node. A tree tuple collection repeats its
// leaves — a leaf outside every repeated group is retained by every tuple
// of its document — so the builder resolves each distinct leaf node of a
// document to its item id once (LeafInterner, a scratch indexed by
// Node.ID) and the tuples copy ids. Leaves are first met in tuple order,
// which is the order a per-occurrence loop would intern them in, so path
// and item ids do not depend on the shortcut. tuple.Extract works to the
// same contract: the Path of a leaf is computed once per node and shared,
// read-only, by every tuple.Leaf that refers to the node. A document's
// leaves are resolved under one write lock of the ItemTable, and its
// transactions and their item ids are allocated as one block each, the
// Items spans capacity-clamped like Load's.
package txn

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// ItemID identifies an interned tree tuple item.
type ItemID int32

// Item is an XML tree tuple item ⟨p, Aτ(p)⟩ plus the derived artifacts the
// clustering pipeline needs: the interned tag-path prefix for structural
// similarity and the ttf.itf-weighted TCU vector for content similarity.
type Item struct {
	ID      ItemID
	Path    xmltree.PathID // complete path p
	TagPath xmltree.PathID // p without its trailing @attr/S symbol
	Answer  string         // the answer string (TCU raw text)
	// Vector is the weighted textual content unit vector. It is assigned
	// once by the weighting stage (or at conflation time for synthetic
	// items) and read-only afterwards.
	Vector vector.Sparse
	// Synthetic marks items created by conflateItems during representative
	// generation rather than extracted from a document.
	Synthetic bool
	// Constituents lists the raw (non-synthetic) items a synthetic item was
	// conflated from, sorted ascending; nil for raw items. Keeping the
	// decomposition lets repeated conflation stay exact (no double-counted
	// content when representatives are themselves merged).
	Constituents []ItemID
}

// Flatten returns the raw constituent ids of an item: itself when raw, its
// Constituents when synthetic.
func (i *Item) Flatten() []ItemID {
	if i.Constituents == nil {
		return []ItemID{i.ID}
	}
	return i.Constituents
}

type itemKey struct {
	path   xmltree.PathID
	answer string
}

// ItemTable interns items by (complete path, answer). It is safe for
// concurrent use: peers conflate representative items concurrently.
//
// Besides the canonical *Item records the table maintains two parallel
// columns — tag paths and TCU vectors indexed by id — so the similarity
// engines' bulk resolution reads flat arrays instead of dereferencing an
// Item per element. The columns are plain derived copies of the Item
// fields, kept in lock step by Intern/InternSynthetic/SetVector.
type ItemTable struct {
	paths *xmltree.PathTable

	mu    sync.RWMutex
	byKey map[itemKey]ItemID
	items []*Item
	// Columns of items, indexed by id.
	tagPaths []xmltree.PathID
	vecs     []vector.Sparse
	// vecVer counts SetVector calls, so a holder of copied vector headers
	// notices a weighting pass that rewrote vectors in place (VecVersion).
	vecVer atomic.Uint64
}

// NewItemTable creates an empty table bound to a path table.
func NewItemTable(paths *xmltree.PathTable) *ItemTable {
	return &ItemTable{paths: paths, byKey: make(map[itemKey]ItemID)}
}

// Paths returns the bound path table.
func (it *ItemTable) Paths() *xmltree.PathTable { return it.paths }

// Intern returns the id of the item ⟨path, answer⟩, registering it if new.
func (it *ItemTable) Intern(path xmltree.PathID, answer string) ItemID {
	key := itemKey{path: path, answer: answer}
	it.mu.RLock()
	id, ok := it.byKey[key]
	it.mu.RUnlock()
	if ok {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.internLocked(key)
}

// internLocked is Intern under the write lock. The lock order is ItemTable
// before PathTable: a new item looks up its tag path with the lock held.
func (it *ItemTable) internLocked(key itemKey) ItemID {
	if id, ok := it.byKey[key]; ok {
		return id
	}
	return it.add(&Item{Path: key.path, Answer: key.answer})
}

// add registers a new item under the write lock: it assigns the id and the
// tag path and extends the columns.
func (it *ItemTable) add(item *Item) ItemID {
	item.ID = ItemID(len(it.items))
	item.TagPath = it.paths.TagPath(item.Path)
	it.items = append(it.items, item)
	it.tagPaths = append(it.tagPaths, item.TagPath)
	it.vecs = append(it.vecs, item.Vector)
	it.byKey[itemKey{path: item.Path, answer: item.Answer}] = item.ID
	return item.ID
}

// Lookup returns the id of the item ⟨path, answer⟩ if it is interned.
func (it *ItemTable) Lookup(path xmltree.PathID, answer string) (ItemID, bool) {
	it.mu.RLock()
	id, ok := it.byKey[itemKey{path: path, answer: answer}]
	it.mu.RUnlock()
	return id, ok
}

// InternSynthetic interns a conflated item carrying a pre-merged vector and
// its raw constituent decomposition. The answer must already be the
// canonical merged-answer key so equal conflations intern to equal ids.
func (it *ItemTable) InternSynthetic(path xmltree.PathID, answer string, vec vector.Sparse, constituents []ItemID) ItemID {
	it.mu.Lock()
	defer it.mu.Unlock()
	if id, ok := it.byKey[itemKey{path: path, answer: answer}]; ok {
		return id
	}
	return it.add(&Item{
		Path:         path,
		Answer:       answer,
		Vector:       vec,
		Synthetic:    true,
		Constituents: append([]ItemID(nil), constituents...),
	})
}

// Get returns the item for id. The returned pointer is shared; callers must
// treat it as read-only (except the weighting stage, which runs before any
// concurrent access).
func (it *ItemTable) Get(id ItemID) *Item {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return it.items[id]
}

// Resolve fills out (which must have len(ids)) with the items of ids under
// a single lock acquisition — the bulk form of Get for loops that
// dereference whole transactions at once.
func (it *ItemTable) Resolve(ids []ItemID, out []*Item) {
	it.mu.RLock()
	for i, id := range ids {
		out[i] = it.items[id]
	}
	it.mu.RUnlock()
}

// ResolveColumns fills tps and vecs (each len(ids)) with the tag-path and
// vector columns of ids under one lock acquisition — how both Eq. 4 engines
// fetch the operands of a transaction: no *Item is touched, and the copied
// headers stay valid however the table grows.
func (it *ItemTable) ResolveColumns(ids []ItemID, tps []xmltree.PathID, vecs []vector.Sparse) {
	it.mu.RLock()
	for i, id := range ids {
		tps[i] = it.tagPaths[id]
		vecs[i] = it.vecs[id]
	}
	it.mu.RUnlock()
}

// SameVectors reports whether vecs (len(ids)) still are the table's vectors
// of ids — vector.Same position by position, under one lock acquisition. A
// holder of copied vector headers calls it after VecVersion moved to learn
// whether the rewrite touched any of its items.
func (it *ItemTable) SameVectors(ids []ItemID, vecs []vector.Sparse) bool {
	it.mu.RLock()
	defer it.mu.RUnlock()
	for i, id := range ids {
		if !vector.Same(it.vecs[id], vecs[i]) {
			return false
		}
	}
	return true
}

// VecVersion returns the monotone count of SetVector calls. sim.RepIndex
// records it at Build and, once it has moved, checks with SameVectors whether
// the vectors its postings were built from are still the table's.
func (it *ItemTable) VecVersion() uint64 { return it.vecVer.Load() }

// Len returns the number of interned items.
func (it *ItemTable) Len() int {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return len(it.items)
}

// SetVector assigns the weighted TCU vector of an item (weighting stage).
func (it *ItemTable) SetVector(id ItemID, v vector.Sparse) {
	it.mu.Lock()
	it.items[id].Vector = v
	it.vecs[id] = v
	it.mu.Unlock()
	it.vecVer.Add(1)
}

// MergedAnswerKey canonicalizes a set of answers for conflated items: the
// distinct answers, sorted, joined with the unit separator.
func MergedAnswerKey(answers []string) string {
	distinct := make([]string, 0, len(answers))
	for _, a := range answers {
		if a != "" {
			distinct = append(distinct, a)
		}
	}
	slices.Sort(distinct)
	return strings.Join(slices.Compact(distinct), "\x1f")
}

// String renders an item for debugging.
func (i *Item) String() string {
	return fmt.Sprintf("e%d⟨%v,%q⟩", i.ID, i.Path, i.Answer)
}
