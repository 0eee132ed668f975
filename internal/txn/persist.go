package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// The corpus file, format 3: the columns of the corpus, little-endian.
//
//	header          "CXKC", u32 format
//	block           u64 payload length, payload, u32 CRC-32C of the payload
//	1 counts        u64 × 7: paths, terms, items, transactions, TruncatedDocs,
//	                MaxDepth, the longest block's length (sizes Load's scratch)
//	2 paths         offsets, the dotted path strings end to end
//	3 terms         offsets, the term strings
//	4 items         complete-path ids, synthetic flags (u8), answer offsets, answers
//	5 vectors       offsets, every item's term ids, then their weights (Float64bits)
//	6 constituents  offsets, every synthetic item's raw item ids
//	7 transactions  docs, tuple indices, labels, offsets, every span's item ids
//
// Ids, offsets and the per-transaction columns are u32. An offset column has
// one entry more than the spans it delimits and its arena is the rest of its
// block, so no length is stored twice. Source trees are not persisted: the
// transactions and weighted items carry all that clustering reads, and a
// corpus is regenerable from its XML, which is why older formats are not read.
//
// Load slices what it has checked: answers and terms are substrings of one
// string each; vectors, constituents and transaction spans sub-slices of one
// array each; Items and Transactions live in one slab each. The tables keep
// growing safely: every sub-slice is capacity-clamped, so an append copies
// instead of running into its neighbour; new items are allocated apart and the
// slab never moves, so *Item pointers stay valid; vectors are replaced whole.
const (
	persistMagic  = "CXKC"
	persistFormat = 3
	// maxBlockPrealloc bounds what a declared length may allocate before its
	// bytes arrive (it is untrusted input); a longer block grows as it is read.
	maxBlockPrealloc = 4 << 20
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrCorruptCorpus tags every structural-corruption error Load returns —
// truncated streams, failed checksums, offset columns that do not tile their
// arena, out-of-range or unsorted ids, dangling constituents, inconsistent
// interning tables, a stream without the magic (which is what a file of an
// older format is). Callers distinguish "this stream is damaged" from version
// skew ("unsupported corpus format", not wrapped) and plain I/O with errors.Is.
var ErrCorruptCorpus = errors.New("corrupt corpus stream")

// saveWindow is the most of the corpus file Save holds at once: every block
// streams through one window of this size, however long the block is.
const saveWindow = 64 << 10

// blockWriter streams blocks through one fixed window. Each block's length
// is written from the counting pass ahead of its payload, so the payload is
// never held whole: whenever the window fills, its first saveWindow bytes are
// written, and the block's running checksum takes the payload among them.
type blockWriter struct {
	w       io.Writer
	lengths []int  // every block's length as counted
	block   int    // the open block's index into lengths (−1 before the first)
	buf     []byte // the window: bytes not written yet, fewer than saveWindow between calls
	from    int    // where the open block's payload starts in buf (0 once some of it is written)
	sent    int    // the open block's payload bytes already written
	crc     uint32 // CRC-32C of the open block's payload already written
	err     error  // the first failure; nothing is written after it
}

func (bw *blockWriter) u32(v int) {
	if bw.buf = le.AppendUint32(bw.buf, uint32(v)); len(bw.buf) >= saveWindow {
		bw.spill()
	}
}

func (bw *blockWriter) u64(v uint64) {
	if bw.buf = le.AppendUint64(bw.buf, v); len(bw.buf) >= saveWindow {
		bw.spill()
	}
}

// text appends s a window's room at a time, so a long string never grows it.
func (bw *blockWriter) text(s string) {
	for len(s) > 0 {
		k := min(len(s), saveWindow-len(bw.buf))
		bw.buf = append(bw.buf, s[:k]...)
		s = s[k:]
		bw.spill()
	}
}

// spill writes the window's first saveWindow bytes once it holds them, and
// keeps the few that ran past.
func (bw *blockWriter) spill() {
	if len(bw.buf) < saveWindow {
		return
	}
	bw.crc = crc32.Update(bw.crc, castagnoli, bw.buf[bw.from:saveWindow])
	bw.sent += saveWindow - bw.from
	bw.from = 0
	bw.write(bw.buf[:saveWindow])
	bw.buf = bw.buf[:copy(bw.buf, bw.buf[saveWindow:])]
}

func (bw *blockWriter) write(b []byte) {
	if bw.err == nil {
		_, bw.err = bw.w.Write(b)
	}
}

// end closes the open block, if any, with its checksum, and opens the next
// one by its counted length. A block that streamed other than its counted
// length would make the file unreadable: Save fails instead.
func (bw *blockWriter) end() {
	if bw.block >= 0 {
		bw.crc = crc32.Update(bw.crc, castagnoli, bw.buf[bw.from:])
		if n, want := bw.sent+len(bw.buf)-bw.from, bw.lengths[bw.block]; n != want && bw.err == nil {
			bw.err = fmt.Errorf("block %d streamed %d bytes where %d were counted", bw.block, n, want)
		}
		crc := bw.crc
		bw.from = len(bw.buf) // the checksum is not payload
		bw.u32(int(crc))
	}
	if bw.block++; bw.block < len(bw.lengths) {
		bw.u64(uint64(bw.lengths[bw.block]))
		bw.from, bw.sent, bw.crc = len(bw.buf), 0, 0
	}
}

// u32s appends a column of n values.
func (bw *blockWriter) u32s(n int, at func(i int) int) {
	for i := 0; i < n; i++ {
		bw.u32(at(i))
	}
}

// offsets appends the n+1 offsets that delimit spans of the given lengths.
func (bw *blockWriter) offsets(n int, length func(i int) int) {
	off := 0
	bw.u32(0)
	bw.u32s(n, func(i int) int { off += length(i); return off })
}

// strings appends an offset column and the n strings it delimits.
func (bw *blockWriter) strings(n int, at func(i int) string) {
	bw.offsets(n, func(i int) int { return len(at(i)) })
	for i := 0; i < n; i++ {
		bw.text(at(i))
	}
}

// ids appends an offset column and the n id lists it delimits.
func (bw *blockWriter) ids(n int, of func(i int) []ItemID) {
	bw.offsets(n, func(i int) int { return len(of(i)) })
	for i := 0; i < n; i++ {
		for _, id := range of(i) {
			bw.u32(int(id))
		}
	}
}

// fits reports whether a column of n entries, or an arena of n positions, is
// within what the file's 32-bit offsets address (held to the range of ids).
func fits(column string, n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("%s: %d entries are beyond the format's 32-bit offsets", column, n)
	}
	return nil
}

// Save serializes the corpus (without source trees) so preprocessing can be
// done once and reused across clustering runs. Every block is derived from
// the tables and Transactions, so a corpus saves the same bytes however it
// was assembled — built, loaded or written as a literal. A counting pass
// sizes every block first, so each block's length is written ahead of its
// payload, which streams through one fixed window of saveWindow bytes with a
// running checksum: however large the corpus, Save holds at most that window
// of the file, and nothing is allocated per item or per transaction.
func (c *Corpus) Save(w io.Writer) error {
	c.Items.mu.RLock()
	items := c.Items.items
	c.Items.mu.RUnlock()
	c.Terms.mu.RLock()
	terms := c.Terms.terms
	c.Terms.mu.RUnlock()
	txns, n, nt := c.Transactions, len(items), len(c.Transactions)
	paths := make([]string, c.Paths.Len())
	for i := range paths {
		paths[i] = c.Paths.Path(xmltree.PathID(i)).String()
	}
	vec := func(i int) []vector.Entry { return items[i].Vector.Entries() }
	parts := func(i int) []ItemID { return items[i].Constituents }
	span := func(i int) []ItemID { return txns[i].Items }

	err := fits("transactions", nt)
	total := func(arena string, spans int, length func(i int) int) (sum int) {
		for i := 0; i < spans; i++ {
			sum += length(i)
		}
		if err == nil {
			err = fits(arena, sum)
		}
		return sum
	}
	sizes := [...]int{
		7 * 8,
		4*(len(paths)+1) + total("path strings", len(paths), func(i int) int { return len(paths[i]) }),
		4*(len(terms)+1) + total("term strings", len(terms), func(i int) int { return len(terms[i]) }),
		4*n + n + 4*(n+1) + total("answers", n, func(i int) int { return len(items[i].Answer) }),
		4*(n+1) + 12*total("vector entries", n, func(i int) int { return len(vec(i)) }),
		4*(n+1) + 4*total("constituents", n, func(i int) int { return len(parts(i)) }),
		12*nt + 4*(nt+1) + 4*total("transaction items", nt, func(i int) int { return len(span(i)) }),
	}
	if err != nil {
		return fmt.Errorf("txn: save corpus: %w", err)
	}
	longest, stream := slices.Max(sizes[:]), 8
	for _, size := range sizes {
		stream += 8 + size + 4
	}
	if g, ok := w.(interface{ Grow(n int) }); ok {
		g.Grow(stream) // a buffer in memory grows once, not window by window
	}
	bw := blockWriter{w: w, lengths: sizes[:], block: -1, buf: make([]byte, 0, min(stream, saveWindow)+8)}
	bw.buf = append(bw.buf, persistMagic...)
	bw.u32(persistFormat)
	bw.end() // opens the first block

	for _, v := range [...]int{len(paths), len(terms), n, nt, c.TruncatedDocs, c.MaxDepth, min(longest, math.MaxInt32)} {
		bw.u64(uint64(v))
	}
	bw.end()
	bw.strings(len(paths), func(i int) string { return paths[i] })
	bw.end()
	bw.strings(len(terms), func(i int) string { return terms[i] })
	bw.end()

	bw.u32s(n, func(i int) int { return int(items[i].Path) })
	for _, it := range items {
		bw.buf = append(bw.buf, 0)
		if it.Synthetic {
			bw.buf[len(bw.buf)-1] = 1
		}
		bw.spill()
	}
	bw.strings(n, func(i int) string { return items[i].Answer })
	bw.end()

	bw.offsets(n, func(i int) int { return len(vec(i)) })
	for i := range items {
		for _, e := range vec(i) {
			bw.u32(int(e.Term))
		}
	}
	for i := range items {
		for _, e := range vec(i) {
			bw.u64(math.Float64bits(e.Weight))
		}
	}
	bw.end()
	bw.ids(n, parts)
	bw.end()

	bw.u32s(nt, func(i int) int { return txns[i].Doc })
	bw.u32s(nt, func(i int) int { return txns[i].TupleIndex })
	bw.u32s(nt, func(i int) int { return txns[i].Label })
	bw.ids(nt, span)
	bw.end()
	bw.write(bw.buf)
	if bw.err != nil {
		return fmt.Errorf("txn: save corpus: %w", bw.err)
	}
	return nil
}

// corrupt wraps a corruption description with the typed sentinel.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("txn: load corpus: %w: %s", ErrCorruptCorpus, fmt.Sprintf(format, args...))
}

// blockReader reads one block at a time into one scratch buffer and hands out
// its columns. The first failure sticks: every later call is a no-op that
// returns nothing, so Load checks err once per block, before it indexes.
type blockReader struct {
	r   io.Reader
	buf []byte // scratch: the current block and its checksum
	b   []byte // the block's columns not handed out yet
	err error
}

func (br *blockReader) fail(format string, args ...any) {
	if br.err == nil {
		br.err = corrupt(format, args...)
	}
}

// next reads the next block and verifies its checksum.
func (br *blockReader) next(name string) {
	if len(br.b) != 0 {
		br.fail("%d bytes too many in the block before %s", len(br.b), name)
	}
	if br.err != nil {
		return
	}
	var head [8]byte
	_, err := io.ReadFull(br.r, head[:])
	n := le.Uint64(head[:])
	if err == nil && n > math.MaxInt-4 {
		err = fmt.Errorf("a length of %d bytes", n)
	}
	buf := br.buf[:0]
	for need := int(n) + 4; err == nil && len(buf) < need; {
		step := min(need-len(buf), max(len(buf), maxBlockPrealloc))
		if len(buf)+step > cap(buf) {
			buf = append(make([]byte, 0, len(buf)+step), buf...)
		}
		buf = buf[:len(buf)+step]
		_, err = io.ReadFull(br.r, buf[len(buf)-step:])
	}
	if err != nil {
		br.err = fmt.Errorf("txn: load corpus: %w: %s block: %w", ErrCorruptCorpus, name, err)
		return
	}
	br.buf, br.b = buf, buf[:n]
	if crc32.Checksum(br.b, castagnoli) != le.Uint32(buf[n:]) {
		br.fail("%s block fails its checksum", name)
	}
}

// col hands out the next n entries of the given width. n is a count the
// stream declared: it is checked against the bytes the block still holds
// before anything is sized by it.
func (br *blockReader) col(n, width int) []byte {
	if br.err == nil && (n < 0 || n > len(br.b)/width) {
		br.fail("a column of %d entries of %d bytes where %d bytes are left in the block", n, width, len(br.b))
	}
	if br.err != nil {
		return nil
	}
	c := br.b[:n*width]
	br.b = br.b[n*width:]
	return c
}

// count hands out one value of the counts block.
func (br *blockReader) count() int {
	c := br.col(1, 8)
	if br.err == nil && le.Uint64(c) > math.MaxInt32 {
		br.fail("a count of %d", le.Uint64(c))
	}
	if br.err != nil {
		return 0
	}
	return int(le.Uint64(c))
}

// spans hands out an offset column for n spans and, as their arena, the rest
// of the block in entries of the given width. The offsets start at 0, never
// descend and end at the arena's length, so every span is inside it.
func (br *blockReader) spans(n, width int) (offs, arena []byte) {
	offs = br.col(n+1, 4)
	arena, br.b = br.b, nil
	for i, prev := 0, 0; br.err == nil && i <= n; i++ {
		o := u32at(offs, i)
		if o < prev || i == 0 && o != 0 {
			br.fail("offset %d of %d is %d after %d", i, n, o, prev)
		} else if i == n && o*width != len(arena) {
			br.fail("%d offsets end at entry %d of an arena of %d bytes in entries of %d", n+1, o, len(arena), width)
		}
		prev = o
	}
	if br.err != nil {
		return nil, nil
	}
	return offs, arena
}

// strings hands out the rest of the block as n strings: substrings of one
// copy of it.
func (br *blockReader) strings(n int) func(i int) string {
	offs, arena := br.spans(n, 1)
	s := string(arena)
	return func(i int) string { return s[u32at(offs, i):u32at(offs, i+1)] }
}

// ids hands out the rest of the block as n id lists: an offset column and the
// one array they are spans of.
func (br *blockReader) ids(n int) (offs []byte, ids []ItemID) {
	offs, arena := br.spans(n, 4)
	ids = make([]ItemID, len(arena)/4)
	for i := range ids {
		ids[i] = ItemID(i32at(arena, i))
	}
	return offs, ids
}

func u32at(col []byte, i int) int { return int(le.Uint32(col[4*i:])) }
func i32at(col []byte, i int) int { return int(int32(le.Uint32(col[4*i:]))) }

// Load deserializes a corpus written by Save. The returned corpus has no
// source trees; everything the clustering pipeline needs is restored,
// including interning-table identities. Damaged streams fail with an error
// wrapping ErrCorruptCorpus, never a panic or a silently short corpus: beyond
// the checksums, every offset column tiles its arena; path ids, item ids and
// constituents are in range (a constituent below its synthetic item, none on
// a raw item); spans and vector terms ascend strictly; no path, term or
// ⟨path, answer⟩ pair is listed twice; the tag path of every complete path is
// in the path table. What Load allocates does not grow with the number of
// items or transactions, the groups of the maps it sizes up front aside. The
// term map and the item index are filled on one helper goroutine beside the
// decoding of the vectors, constituents and transactions; Load waits for it
// before it returns, success or not.
func Load(r io.Reader) (*Corpus, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("txn: load corpus: %w: header: %w", ErrCorruptCorpus, err)
	}
	if string(head[:4]) != persistMagic {
		return nil, corrupt("no %q magic: not a corpus file, or one saved before format %d — regenerate it from its XML", persistMagic, persistFormat)
	}
	if v := le.Uint32(head[4:]); v != persistFormat {
		return nil, fmt.Errorf("txn: unsupported corpus format %d (this reader is format %d; regenerate the corpus from its XML)", v, persistFormat)
	}
	br := &blockReader{r: r}
	br.next("counts")
	nPaths, nTerms, nItems, nTxns := br.count(), br.count(), br.count(), br.count()
	c := &Corpus{Paths: xmltree.NewPathTable(), TruncatedDocs: br.count(), MaxDepth: br.count()}
	br.buf = make([]byte, 0, min(br.count()+4, maxBlockPrealloc)) // the scratch, sized once where the file is honest

	br.next("paths")
	str := br.strings(nPaths)
	if br.err != nil {
		return nil, br.err
	}
	tagOf := make([]xmltree.PathID, nPaths)
	for i := range tagOf {
		if id := c.Paths.Intern(xmltree.ParsePath(str(i))); int(id) != i {
			return nil, corrupt("path table at %d (%q)", i, str(i))
		}
	}
	for i := range tagOf {
		tagOf[i] = c.Paths.TagPath(xmltree.PathID(i))
	}
	if c.Paths.Len() != nPaths {
		return nil, corrupt("path table lacks the tag path of one of its complete paths")
	}

	br.next("terms")
	str = br.strings(nTerms)
	if br.err != nil {
		return nil, br.err
	}
	c.Terms = &TermTable{byStr: make(map[string]int32, nTerms), terms: make([]string, nTerms)}
	for i := range c.Terms.terms {
		c.Terms.terms[i] = str(i)
	}
	// A helper fills the term map and the item index while this goroutine
	// decodes the rest. It reads the terms and, once the item table is sent,
	// the items' ID, Path and Answer, which nothing writes after the send. It
	// counts the items of each path first, so every path's map is allocated
	// once at its size, and then the inserts that add a pair: a pair listed
	// twice adds one.
	tables := make(chan *ItemTable, 1)
	helped := make(chan struct{})
	indexed := 0
	go func() {
		defer close(helped)
		for i, term := range c.Terms.terms {
			c.Terms.byStr[term] = int32(i)
		}
		t := <-tables
		if t == nil {
			return
		}
		perPath := make([]int, nPaths)
		for _, item := range t.items {
			perPath[item.Path]++
		}
		t.byPath = make([]map[string]ItemID, nPaths)
		for p, n := range perPath {
			if n > 0 {
				t.byPath[p] = make(map[string]ItemID, n)
			}
		}
		for _, item := range t.items {
			m := t.byPath[item.Path]
			n := len(m)
			if m[item.Answer] = item.ID; len(m) > n {
				indexed++
			}
		}
	}()
	err := c.loadItems(br, tagOf, nItems, nTxns, tables)
	close(tables)
	<-helped
	if err != nil {
		return nil, err
	}
	if len(c.Terms.byStr) != nTerms {
		return nil, corrupt("term table lists a term twice")
	}
	if indexed != nItems {
		return nil, corrupt("item table lists a ⟨path, answer⟩ pair twice")
	}
	return c, nil
}

// loadItems decodes the items, vectors, constituents and transactions blocks
// into c. It sends the item table to tables once the item slab is filled, and
// after that writes only the items' Vector and Constituents.
func (c *Corpus) loadItems(br *blockReader, tagOf []xmltree.PathID, nItems, nTxns int, tables chan<- *ItemTable) error {
	br.next("items")
	pathIDs, flags := br.col(nItems, 4), br.col(nItems, 1)
	str := br.strings(nItems)
	if br.err != nil {
		return br.err
	}
	slab := make([]Item, nItems)
	c.Items = &ItemTable{paths: c.Paths, columns: columns{items: make([]*Item, nItems),
		tagPaths: make([]xmltree.PathID, nItems), vecs: make([]vector.Sparse, nItems)}}
	for i := range slab {
		p := u32at(pathIDs, i)
		if p >= len(tagOf) {
			return corrupt("item %d references unknown path %d", i, p)
		}
		it := &slab[i]
		*it = Item{ID: ItemID(i), Path: xmltree.PathID(p), TagPath: tagOf[p], Answer: str(i), Synthetic: flags[i] != 0}
		c.Items.items[i], c.Items.tagPaths[i] = it, it.TagPath
	}
	tables <- c.Items

	br.next("vectors")
	offs, arena := br.spans(nItems, 12)
	if br.err != nil {
		return br.err
	}
	entries := make([]vector.Entry, len(arena)/12)
	weights := arena[4*len(entries):]
	for k := range entries {
		entries[k] = vector.Entry{Term: int32(i32at(arena, k)), Weight: math.Float64frombits(le.Uint64(weights[8*k:]))}
	}
	for i := range slab {
		lo, hi := u32at(offs, i), u32at(offs, i+1)
		for k := lo + 1; k < hi; k++ { // what vector.FromEntries panics on
			if entries[k-1].Term >= entries[k].Term {
				return corrupt("item %d: vector terms not strictly ascending", i)
			}
		}
		if lo < hi {
			slab[i].Vector = vector.FromEntries(entries[lo:hi:hi])
			c.Items.vecs[i] = slab[i].Vector
		}
	}

	br.next("constituents")
	offs, ids := br.ids(nItems)
	if br.err != nil {
		return br.err
	}
	for i := range slab {
		lo, hi := u32at(offs, i), u32at(offs, i+1)
		if lo == hi {
			continue // Constituents stays nil, which is what marks an item raw
		}
		if !slab[i].Synthetic {
			return corrupt("raw item %d has constituents", i)
		}
		slab[i].Constituents = ids[lo:hi:hi]
		for _, cid := range ids[lo:hi] {
			if cid < 0 || int(cid) >= i {
				return corrupt("synthetic item %d references unknown constituent %d", i, cid)
			}
		}
	}

	br.next("transactions")
	docs, tuples, labels := br.col(nTxns, 4), br.col(nTxns, 4), br.col(nTxns, 4)
	offs, ids = br.ids(nTxns)
	if br.err != nil {
		return br.err
	}
	trs := make([]Transaction, nTxns)
	c.Transactions = make([]*Transaction, nTxns)
	for i := range trs {
		lo, hi := u32at(offs, i), u32at(offs, i+1)
		prev := ItemID(-1)
		for _, id := range ids[lo:hi] {
			if id < 0 || int(id) >= nItems {
				return corrupt("transaction %d references unknown item %d", i, id)
			}
			if id <= prev {
				return corrupt("transaction %d span not strictly ascending at item %d", i, id)
			}
			prev = id
		}
		trs[i] = Transaction{Items: ids[lo:hi:hi], Doc: i32at(docs, i), TupleIndex: i32at(tuples, i), Label: i32at(labels, i)}
		c.Transactions[i] = &trs[i]
	}
	return nil
}
