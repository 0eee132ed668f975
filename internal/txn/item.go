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
// Interning is once per leaf. A tree tuple collection repeats its leaves —
// a leaf outside every repeated group is retained by every tuple of its
// document — so the builder resolves each distinct leaf of a document to its
// item id once (Transactions, with a scratch indexed like
// tuple.Result.Leaves) and the tuples copy ids. Leaves are first met in
// tuple order, which is the order a per-occurrence loop would intern them
// in, so path and item ids do not depend on the shortcut. A document's
// leaves are resolved under one write lock of the ItemTable, and its
// transactions and their item ids are allocated as one block each, the
// Items spans capacity-clamped like Load's. The index behind interning is
// two-level: the complete path id picks a map, and that map is keyed by the
// answer alone, so a lookup hashes one string and no struct. Columns that
// grow by an item or a document at a time double their capacity when full
// (grow): what a build allocates for one is then about twice its final size,
// where append's quarter steps allocate five times it.
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

// ItemTable interns items by (complete path, answer). It is safe for
// concurrent use: a pass's workers conflate representative items concurrently.
//
// The index is one map per complete path, from answer to id, in a slice
// indexed by path id; a path no item uses yet has no map. The columns grow
// by doubling.
//
// Besides the canonical *Item records the table maintains two parallel
// columns — tag paths and TCU vectors indexed by id — so the similarity
// engines' bulk resolution reads flat arrays instead of dereferencing an
// Item per element. The columns are plain derived copies of the Item
// fields, kept in lock step by Intern/InternSynthetic/SetVector.
//
// A table can also be a stage over another (Stage), which holds items apart
// from it: a job's synthetic items, or a classified document's unseen ones.
type ItemTable struct {
	paths *xmltree.PathTable

	mu      sync.RWMutex
	byPath  []map[string]ItemID // by complete path id: answer → id
	columns                     // the table's own rows, from id base on
	// A stage's parent and base, and the parent's own rows below base as
	// they were at (re)stage time; zero for a table that is not a stage.
	parent *ItemTable
	base   ItemID
	below  columns
	// vecVer counts SetVector calls, so a holder of copied vector headers
	// notices a weighting pass that rewrote vectors in place (VecVersion).
	vecVer atomic.Uint64
}

// columns are rows of items: the records, their tag paths and vectors.
type columns struct {
	items    []*Item
	tagPaths []xmltree.PathID
	vecs     []vector.Sparse
}

// row locates id: the columns holding it — its own, or a stage's captured
// rows of its parent — and its index there.
func (it *ItemTable) row(id ItemID) (*columns, ItemID) {
	if id >= it.base {
		return &it.columns, id - it.base
	}
	return &it.below, id
}

// rlock read-locks the table for reading the rows of ids, and reports
// whether it did: a stage's rows below its base are fixed until it is
// restaged, so workers reading only those never meet on its lock.
func (it *ItemTable) rlock(ids []ItemID) bool {
	for _, id := range ids {
		if id >= it.base {
			it.mu.RLock()
			return true
		}
	}
	return false
}

// NewItemTable creates an empty table bound to a path table.
func NewItemTable(paths *xmltree.PathTable) *ItemTable {
	return &ItemTable{paths: paths}
}

// Paths returns the bound path table.
func (it *ItemTable) Paths() *xmltree.PathTable { return it.paths }

// Intern returns the id of the item ⟨path, answer⟩, registering it if new.
func (it *ItemTable) Intern(path xmltree.PathID, answer string) ItemID {
	it.mu.RLock()
	id, ok := find(it, path, answer)
	it.mu.RUnlock()
	if ok {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.internLocked(path, answer)
}

// find looks ⟨path, answer⟩ up in the table's own index, under its lock. The
// conversion of a byte answer in the map index copies nothing.
func find[K string | []byte](it *ItemTable, path xmltree.PathID, answer K) (ItemID, bool) {
	if int(path) >= len(it.byPath) {
		return 0, false
	}
	id, ok := it.byPath[path][string(answer)]
	return id, ok
}

// internLocked is Intern under the write lock; a stage also looks in its
// parent. The lock order is stage before parent, and ItemTable before
// PathTable: a new item looks up its tag path with the lock held.
func (it *ItemTable) internLocked(path xmltree.PathID, answer string) ItemID {
	if id, ok := find(it, path, answer); ok {
		return id
	}
	if id, ok := inParent(it, path, answer); ok {
		return id
	}
	return it.add(Item{Path: path, Answer: answer})
}

// add registers a new item under the write lock: it assigns the id and the
// tag path, extends the columns and indexes the item under its path. The
// record is the one a restaged stage left in the slot, overwritten, or a new
// one.
func (it *ItemTable) add(rec Item) ItemID {
	n := len(it.items)
	it.items = grow(it.items, 1)[:n+1]
	item := it.items[n]
	if item == nil {
		item = new(Item)
		it.items[n] = item
	}
	*item = rec
	item.ID = it.base + ItemID(n)
	item.TagPath = it.paths.TagPath(item.Path)
	it.tagPaths = append(grow(it.tagPaths, 1), item.TagPath)
	it.vecs = append(grow(it.vecs, 1), item.Vector)
	if n := int(item.Path) + 1; n > len(it.byPath) {
		it.byPath = append(it.byPath, make([]map[string]ItemID, n-len(it.byPath))...)
	}
	m := it.byPath[item.Path]
	if m == nil {
		m = make(map[string]ItemID)
		it.byPath[item.Path] = m
	}
	m[item.Answer] = item.ID
	return item.ID
}

// grow returns s with room for n more elements. A full slice doubles its
// capacity, where append would grow a long one by a quarter.
func grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, max(2*cap(s), len(s)+n, 16)), s...)
	}
	return s
}

// Lookup returns the id of the item ⟨path, answer⟩ if it is interned.
func (it *ItemTable) Lookup(path xmltree.PathID, answer string) (ItemID, bool) {
	return lookup(it, path, answer)
}

// LookupBytes is Lookup with the answer as bytes; it allocates nothing.
func (it *ItemTable) LookupBytes(path xmltree.PathID, answer []byte) (ItemID, bool) {
	return lookup(it, path, answer)
}

func lookup[K string | []byte](it *ItemTable, path xmltree.PathID, answer K) (ItemID, bool) {
	if id, ok := inParent(it, path, answer); ok {
		return id, true
	}
	it.mu.RLock()
	id, ok := find(it, path, answer)
	it.mu.RUnlock()
	return id, ok
}

// inParent looks ⟨path, answer⟩ up in a stage's parent. An id at or above the
// base, interned by another job since, is not the stage's: its row was not
// captured.
func inParent[K string | []byte](it *ItemTable, path xmltree.PathID, answer K) (ItemID, bool) {
	if it.parent == nil {
		return 0, false
	}
	id, ok := lookup(it.parent, path, answer)
	return id, ok && id < it.base
}

// InternSynthetic interns a conflated item carrying a pre-merged vector and
// its raw constituent decomposition. The answer must already be the
// canonical merged-answer key so equal conflations intern to equal ids.
func (it *ItemTable) InternSynthetic(path xmltree.PathID, answer string, vec vector.Sparse, constituents []ItemID) ItemID {
	if id, ok := inParent(it, path, answer); ok {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if id, ok := find(it, path, answer); ok {
		return id
	}
	return it.add(Item{
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
	if id < it.base {
		c, j := it.row(id)
		return c.items[j]
	}
	it.mu.RLock()
	defer it.mu.RUnlock()
	return it.items[id-it.base]
}

// Resolve fills out (which must have len(ids)) with the items of ids under
// a single lock acquisition — the bulk form of Get for loops that
// dereference whole transactions at once.
func (it *ItemTable) Resolve(ids []ItemID, out []*Item) {
	locked := it.rlock(ids)
	for i, id := range ids {
		c, j := it.row(id)
		out[i] = c.items[j]
	}
	if locked {
		it.mu.RUnlock()
	}
}

// ResolveColumns fills tps and vecs (each len(ids)) with the tag-path and
// vector columns of ids under one lock acquisition — how both Eq. 4 engines
// fetch the operands of a transaction: no *Item is touched, and the copied
// headers stay valid however the table grows.
func (it *ItemTable) ResolveColumns(ids []ItemID, tps []xmltree.PathID, vecs []vector.Sparse) {
	locked := it.rlock(ids)
	for i, id := range ids {
		c, j := it.row(id)
		tps[i] = c.tagPaths[j]
		vecs[i] = c.vecs[j]
	}
	if locked {
		it.mu.RUnlock()
	}
}

// SameVectors reports whether vecs (len(ids)) still are the table's vectors
// of ids — vector.Same position by position, under one lock acquisition. A
// holder of copied vector headers calls it after VecVersion moved to learn
// whether the rewrite touched any of its items.
func (it *ItemTable) SameVectors(ids []ItemID, vecs []vector.Sparse) bool {
	it.mu.RLock()
	defer it.mu.RUnlock()
	for i, id := range ids {
		if c, j := it.row(id); !vector.Same(c.vecs[j], vecs[i]) {
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
	return int(it.base) + len(it.items)
}

// SetVector assigns the weighted TCU vector of an item (weighting stage).
func (it *ItemTable) SetVector(id ItemID, v vector.Sparse) {
	it.mu.Lock()
	c, i := it.row(id)
	c.items[i].Vector = v
	c.vecs[i] = v
	it.mu.Unlock()
	it.vecVer.Add(1)
}

// Stage returns a stage over it, for items it is not to hold: ids below
// Base, it.Len() at the call, read through to it, and new items get ids from
// Base on; for a key it holds below Base, Lookup and interning give its id.
// Rows below Base are read as they were when the stage was based, without
// its lock: interning only appends to a table, and a corpus does not change
// while it is clustered or classified against. It must not itself be a stage:
// a stage reads its parent's rows, not theirs.
func (it *ItemTable) Stage() *ItemTable {
	if it.parent != nil {
		panic("txn: a stage over a stage")
	}
	st := &ItemTable{paths: it.paths, parent: it}
	st.Restage()
	return st
}

// Restage empties a stage and rebases it on its parent's current length,
// keeping its buffers and its records: the next item staged in a slot
// overwrites the record there, so an *Item taken before is not to be read
// after. It must not run concurrently with other use.
func (it *ItemTable) Restage() {
	it.parent.mu.RLock()
	below := it.parent.columns
	it.parent.mu.RUnlock()
	it.mu.Lock()
	defer it.mu.Unlock()
	it.below, it.base = below, ItemID(len(below.items))
	for _, m := range it.byPath {
		clear(m) // in place: the next use stages about as many items
	}
	it.items, it.tagPaths, it.vecs = it.items[:0], it.tagPaths[:0], it.vecs[:0]
}

// Base returns the first id a stage hands out (0 for a table that is not a
// stage); ids below it are its parent's. Only Restage moves it.
func (it *ItemTable) Base() ItemID { return it.base }

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
