package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// The blocks of a format-3 stream, in file order.
const (
	blkCounts = iota
	blkPaths
	blkTerms
	blkItems
	blkVectors
	blkConstituents
	blkTransactions
	numBlocks
)

// splitBlocks cuts a saved stream into copies of its block payloads and
// returns, beside them, the stream offset at which each block starts (plus
// the stream's length), checking the framing on the way.
func splitBlocks(t testing.TB, stream []byte) (blocks [][]byte, starts []int) {
	t.Helper()
	if len(stream) < 8 || string(stream[:4]) != persistMagic {
		t.Fatalf("stream of %d bytes has no header", len(stream))
	}
	at := 8
	for at < len(stream) {
		starts = append(starts, at)
		n := int(binary.LittleEndian.Uint64(stream[at:]))
		payload := stream[at+8 : at+8+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(stream[at+8+n:]) {
			t.Fatalf("block %d of the saved stream fails its checksum", len(blocks))
		}
		blocks = append(blocks, bytes.Clone(payload))
		at += 8 + n + 4
	}
	if len(blocks) != numBlocks {
		t.Fatalf("saved stream has %d blocks, want %d", len(blocks), numBlocks)
	}
	return blocks, append(starts, len(stream))
}

// joinBlocks frames payloads into a stream, lengths and checksums computed
// afresh — so that what a damaged payload trips is the check on its content.
func joinBlocks(format uint32, blocks [][]byte) []byte {
	stream := binary.LittleEndian.AppendUint32([]byte(persistMagic), format)
	for _, b := range blocks {
		stream = binary.LittleEndian.AppendUint64(stream, uint64(len(b)))
		stream = append(stream, b...)
		stream = binary.LittleEndian.AppendUint32(stream, crc32.Checksum(b, castagnoli))
	}
	return stream
}

func savedStream(t testing.TB, c *Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func savedBlocks(t testing.TB, c *Corpus) [][]byte {
	t.Helper()
	blocks, _ := splitBlocks(t, savedStream(t, c))
	return blocks
}

// corruptionCorpus is the paper corpus dressed so that every block has
// something to damage: a two-term vector on every item, a vocabulary with
// two terms one byte apart, two raw items that share an answer under paths
// one byte apart, and a synthetic item. It returns the ids of those three.
func corruptionCorpus(t testing.TB) (c *Corpus, twinA, twinB, syn ItemID) {
	t.Helper()
	tree, err := xmltree.ParseString(paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	c = Build([]*xmltree.Tree{tree}, BuildOptions{})
	twinA = c.Items.Intern(c.Paths.Intern(xmltree.ParsePath("x.ya.S")), "same")
	twinB = c.Items.Intern(c.Paths.Intern(xmltree.ParsePath("x.yb.S")), "same")
	for _, term := range []string{"zaki", "zakj", "mine", "tree"} {
		c.Terms.Intern(term)
	}
	for i := 0; i < c.Items.Len(); i++ {
		c.Items.SetVector(ItemID(i), vector.FromMap(map[int32]float64{int32(i % 3): 1.5, 3: 0.25 + float64(i)}))
	}
	it0 := c.Items.Get(0)
	syn = c.Items.InternSynthetic(it0.Path, MergedAnswerKey([]string{"a", "b"}),
		vector.FromMap(map[int32]float64{2: 1}), []ItemID{0, 1})
	c.TruncatedDocs = 2
	return c, twinA, twinB, syn
}

// corruptionCase is one damaged stream and a word its error must mention.
type corruptionCase struct {
	name    string
	stream  []byte
	mention string
}

// corruptionCases damages the saved corruptionCorpus once per check Load
// makes on the content of a block, checksums recomputed so that check — not
// the checksum — is what has to fire.
func corruptionCases(t testing.TB) []corruptionCase {
	t.Helper()
	c, twinA, twinB, syn := corruptionCorpus(t)
	base := savedBlocks(t, c)
	nPaths, n, nt := c.Paths.Len(), c.Items.Len(), len(c.Transactions)
	// Byte offsets of the columns inside their blocks.
	itemFlags, answerOffs := 4*n, 5*n
	txnOffs, txnArena := 12*nt, 12*nt+4*(nt+1)
	positions := (len(base[blkTransactions]) - txnArena) / 4
	get := func(b []byte, at, i int) uint32 { return binary.LittleEndian.Uint32(b[at+4*i:]) }
	put := func(b []byte, at, i int, v uint32) { binary.LittleEndian.PutUint32(b[at+4*i:], v) }
	flip := func(b []byte, at int, from, to byte) {
		if at < 0 || b[at] != from {
			t.Fatalf("expected %q at byte %d of the block", from, at)
		}
		b[at] = to
	}
	cases := []struct {
		name    string
		mutate  func(b [][]byte)
		mention string
	}{
		// The transactions block.
		{"offsets-start-nonzero", func(b [][]byte) { put(b[blkTransactions], txnOffs, 0, 1) }, "offset 0"},
		{"offsets-end-short", func(b [][]byte) { put(b[blkTransactions], txnOffs, nt, uint32(positions-1)) }, "arena"},
		{"offsets-end-long", func(b [][]byte) { put(b[blkTransactions], txnOffs, nt, uint32(positions+1)) }, "arena"},
		{"offsets-decreasing", func(b [][]byte) {
			put(b[blkTransactions], txnOffs, 2, get(b[blkTransactions], txnOffs, 1)-1)
		}, "offset 2"},
		// An interior offset past the arena: rejected before anything is sliced.
		{"offsets-overshoot", func(b [][]byte) { put(b[blkTransactions], txnOffs, 1, uint32(positions)+1000000) }, "offset"},
		{"item-id-out-of-range", func(b [][]byte) { put(b[blkTransactions], txnArena, 0, uint32(n+7)) }, "unknown item"},
		{"item-id-negative", func(b [][]byte) { put(b[blkTransactions], txnArena, 0, 0xFFFFFFFE) }, "unknown item -2"},
		{"span-not-ascending", func(b [][]byte) {
			x, y := get(b[blkTransactions], txnArena, 0), get(b[blkTransactions], txnArena, 1)
			put(b[blkTransactions], txnArena, 0, y)
			put(b[blkTransactions], txnArena, 1, x)
		}, "ascending"},
		{"span-duplicate-id", func(b [][]byte) {
			put(b[blkTransactions], txnArena, 1, get(b[blkTransactions], txnArena, 0))
		}, "ascending"},
		// The per-transaction columns share one count, so a column of another
		// length shifts everything behind it: the offsets no longer tile.
		{"docs-column-short", func(b [][]byte) { b[blkTransactions] = b[blkTransactions][4:] }, ""},
		{"labels-column-long", func(b [][]byte) {
			tx := b[blkTransactions]
			b[blkTransactions] = append(append(bytes.Clone(tx[:txnOffs]), 0, 0, 0, 0), tx[txnOffs:]...)
		}, ""},
		{"items-without-offsets", func(b [][]byte) {
			put(b[blkCounts], 24, 0, 0) // no transactions declared: one offset, then an arena nothing delimits
			b[blkTransactions] = b[blkTransactions][txnOffs+4*nt:]
			put(b[blkTransactions], 0, 0, 0)
		}, "arena"},
		{"transaction-count-beyond-block", func(b [][]byte) { put(b[blkCounts], 24, 0, 1<<20) }, "column of 1048576"},
		// The counts block.
		{"item-count-beyond-block", func(b [][]byte) { put(b[blkCounts], 16, 0, 1<<20) }, "column of 1048576"},
		{"count-beyond-int32", func(b [][]byte) { put(b[blkCounts], 16, 1, 1<<8) }, "count of"},
		{"counts-block-long", func(b [][]byte) { b[blkCounts] = append(b[blkCounts], 0, 0, 0, 0, 0, 0, 0, 0) }, "too many"},
		{"counts-block-short", func(b [][]byte) { b[blkCounts] = b[blkCounts][:40] }, "column of 1"},
		// The string tables.
		{"path-duplicate", func(b [][]byte) {
			flip(b[blkPaths], bytes.Index(b[blkPaths], []byte("x.yb.S"))+3, 'b', 'a')
		}, "path table at"},
		{"tag-path-missing", func(b [][]byte) {
			flip(b[blkPaths], bytes.LastIndex(b[blkPaths], []byte("x.yb"))+3, 'b', 'c')
		}, "tag path"},
		{"path-offsets-descend", func(b [][]byte) { put(b[blkPaths], 0, 1, get(b[blkPaths], 0, 2)+1) }, "offset 2"},
		{"path-offsets-overrun", func(b [][]byte) { put(b[blkPaths], 0, nPaths, get(b[blkPaths], 0, nPaths)+1) }, "arena"},
		{"term-duplicate", func(b [][]byte) {
			flip(b[blkTerms], bytes.Index(b[blkTerms], []byte("zakj"))+3, 'j', 'i')
		}, "term twice"},
		// The item columns.
		{"item-path-out-of-range", func(b [][]byte) { put(b[blkItems], 0, 0, uint32(nPaths)) }, "unknown path"},
		{"item-key-duplicate", func(b [][]byte) {
			put(b[blkItems], 0, int(twinB), get(b[blkItems], 0, int(twinA)))
		}, "pair twice"},
		{"answer-offsets-under-run", func(b [][]byte) {
			put(b[blkItems], answerOffs, n, get(b[blkItems], answerOffs, n)-1)
		}, "arena"},
		{"raw-item-with-constituents", func(b [][]byte) { flip(b[blkItems], itemFlags+int(syn), 1, 0) }, "raw item"},
		{"vector-terms-unsorted", func(b [][]byte) {
			vec := 4 * (n + 1) // item 0's two term ids open the arena
			x, y := get(b[blkVectors], vec, 0), get(b[blkVectors], vec, 1)
			put(b[blkVectors], vec, 0, y)
			put(b[blkVectors], vec, 1, x)
		}, "vector terms"},
		{"vector-terms-duplicate", func(b [][]byte) {
			put(b[blkVectors], 4*(n+1), 1, get(b[blkVectors], 4*(n+1), 0))
		}, "vector terms"},
		{"vector-arena-ragged", func(b [][]byte) { b[blkVectors] = append(b[blkVectors], 0) }, "arena"},
		{"constituent-forward", func(b [][]byte) {
			put(b[blkConstituents], len(b[blkConstituents])-4, 0, uint32(syn))
		}, "constituent"},
		{"constituent-negative", func(b [][]byte) {
			put(b[blkConstituents], len(b[blkConstituents])-4, 0, 0xFFFFFFFF)
		}, "constituent -1"},
	}
	out := make([]corruptionCase, len(cases))
	for i, tc := range cases {
		blocks := make([][]byte, len(base))
		for j := range base {
			blocks[j] = bytes.Clone(base[j])
		}
		tc.mutate(blocks)
		out[i] = corruptionCase{tc.name, joinBlocks(persistFormat, blocks), tc.mention}
	}
	return out
}

// mustBeCorrupt loads a damaged stream and insists on the typed error.
func mustBeCorrupt(t *testing.T, stream []byte, mention string) {
	t.Helper()
	c, err := Load(bytes.NewReader(stream))
	if err == nil {
		t.Fatalf("damaged stream loaded a corpus of %d transactions", len(c.Transactions))
	}
	if !errors.Is(err, ErrCorruptCorpus) {
		t.Fatalf("error does not wrap ErrCorruptCorpus: %v", err)
	}
	if !strings.Contains(err.Error(), mention) {
		t.Fatalf("error %q does not mention %q", err, mention)
	}
}

// TestStreamHelpersRoundtrip: the helpers the corruption tests lean on put an
// undamaged stream back together byte for byte, so a rejection further down
// is the damage and not the helper.
func TestStreamHelpersRoundtrip(t *testing.T) {
	c, _, _, _ := corruptionCorpus(t)
	stream := savedStream(t, c)
	blocks, _ := splitBlocks(t, stream)
	if !bytes.Equal(joinBlocks(persistFormat, blocks), stream) {
		t.Fatal("split and joined stream differs from the saved one")
	}
	roundtrip(t, c)
}

// TestLoadTruncatedColumnarStream: cutting the stream at any point — the
// fixed fractions, every block boundary, inside every block's length, payload
// and checksum — must yield a readable error wrapping ErrCorruptCorpus, never
// a panic, never a silently short corpus.
func TestLoadTruncatedColumnarStream(t *testing.T) {
	c, _, _, _ := corruptionCorpus(t)
	stream := savedStream(t, c)
	_, starts := splitBlocks(t, stream)
	type cut struct {
		name string
		n    int
	}
	cuts := []cut{
		{"empty", 0},
		{"header-only", 8},
		{"quarter", len(stream) / 4},
		{"half", len(stream) / 2},
		{"three-quarters", 3 * len(stream) / 4},
		{"one-byte-short", len(stream) - 1},
		{"inside-header", 5},
	}
	for i := 0; i < numBlocks; i++ {
		lo, hi := starts[i], starts[i+1]
		cuts = append(cuts,
			cut{fmt.Sprintf("block-%d-boundary", i), lo},
			cut{fmt.Sprintf("block-%d-inside-length", i), lo + 3},
			cut{fmt.Sprintf("block-%d-after-length", i), lo + 8},
			cut{fmt.Sprintf("block-%d-inside-payload", i), (lo + 8 + hi - 4) / 2},
			cut{fmt.Sprintf("block-%d-inside-checksum", i), hi - 2})
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) { mustBeCorrupt(t, stream[:tc.n], "") })
	}
}

// TestLoadFlippedByte: one flipped bit anywhere in a block — its length, its
// payload or its checksum — is caught, by the checksum where nothing else
// would notice.
func TestLoadFlippedByte(t *testing.T) {
	c, _, _, _ := corruptionCorpus(t)
	stream := savedStream(t, c)
	_, starts := splitBlocks(t, stream)
	for i := 0; i < numBlocks; i++ {
		lo, hi := starts[i], starts[i+1]
		for name, at := range map[string]int{"length": lo, "payload-first": lo + 8, "payload-middle": (lo + 8 + hi - 4) / 2,
			"payload-last": hi - 5, "checksum": hi - 1} {
			t.Run(fmt.Sprintf("block-%d-%s", i, name), func(t *testing.T) {
				damaged := bytes.Clone(stream)
				damaged[at] ^= 0x10
				mention := "checksum"
				if name == "length" {
					mention = "" // a wrong length misframes: the checksum or the end of the stream reports it
				}
				mustBeCorrupt(t, damaged, mention)
			})
		}
	}
}

// TestLoadCorruptColumnarBlocks: each structurally-damaged block must be
// rejected with ErrCorruptCorpus and a message naming the damage.
func TestLoadCorruptColumnarBlocks(t *testing.T) {
	for _, tc := range corruptionCases(t) {
		t.Run(tc.name, func(t *testing.T) { mustBeCorrupt(t, tc.stream, tc.mention) })
	}
}

// TestLoadDeclaredSizesAreUntrusted: a length or a count sizes nothing before
// the bytes it promises are there. Forty bytes that declare a 4 GiB block
// fail as corrupt having allocated no more than the preallocation cap.
func TestLoadDeclaredSizesAreUntrusted(t *testing.T) {
	stream := binary.LittleEndian.AppendUint32([]byte(persistMagic), persistFormat)
	stream = binary.LittleEndian.AppendUint64(stream, 4<<30)
	stream = append(stream, make([]byte, 24)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustBeCorrupt(t, stream, "counts block")
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxBlockPrealloc {
		t.Fatalf("loading a 40-byte stream allocated %d bytes", got)
	}
	stream = binary.LittleEndian.AppendUint64(stream[:8], math.MaxUint64)
	mustBeCorrupt(t, stream, "counts block")
}

// TestLoadFormatVersionSkewIsNotCorruption pins the error taxonomy: another
// format number under the right magic — a future one, or a retired one — is
// version skew, reported without the corruption sentinel so callers can tell
// "upgrade your reader" from "your file is damaged".
func TestLoadFormatVersionSkewIsNotCorruption(t *testing.T) {
	c, _, _, _ := corruptionCorpus(t)
	blocks := savedBlocks(t, c)
	for _, format := range []uint32{persistFormat + 41, persistFormat + 1, 2, 1} {
		_, err := Load(bytes.NewReader(joinBlocks(format, blocks)))
		if err == nil {
			t.Fatalf("format %d loaded", format)
		}
		if errors.Is(err, ErrCorruptCorpus) {
			t.Fatalf("format %d: version skew misreported as corruption: %v", format, err)
		}
		if want := fmt.Sprintf("unsupported corpus format %d", format); !strings.Contains(err.Error(), want) {
			t.Fatalf("format %d: error %q does not say %q", format, err, want)
		}
	}
}

// TestSaveChecksOffsetWidth: a column past what the file's 32-bit offsets can
// address fails at Save with an error naming it, instead of wrapping into a
// file Load rejects.
func TestSaveChecksOffsetWidth(t *testing.T) {
	if err := fits("transaction items", math.MaxInt32); err != nil {
		t.Fatalf("the largest addressable column refused: %v", err)
	}
	err := fits("transaction items", math.MaxInt32+1)
	if err == nil || errors.Is(err, ErrCorruptCorpus) || !strings.Contains(err.Error(), "transaction items") {
		t.Fatalf("a column of 2^31 entries: %v, want a plain error naming it", err)
	}
}

// walkCorpus resolves every index a corpus holds — the items of every
// transaction, every item's paths, vector and constituents — so that an
// out-of-range one that slipped past Load panics here.
func walkCorpus(c *Corpus) (entries int) {
	for _, tr := range c.Transactions {
		for _, id := range tr.Items {
			_ = c.Items.Get(id).Answer
		}
	}
	for i := 0; i < c.Items.Len(); i++ {
		it := c.Items.Get(ItemID(i))
		_, _ = c.Paths.Path(it.Path), c.Paths.Path(it.TagPath)
		entries += len(it.Vector.Entries())
		for _, cid := range it.Constituents {
			_ = c.Items.Get(cid).Answer
		}
	}
	for i := 0; i < c.Terms.Len(); i++ {
		_ = c.Terms.Term(int32(i))
	}
	return entries
}

// TestLoadedCorpusGrowsSafely: what Load hands out are sub-slices of shared
// arrays, every one capacity-clamped, so the growth a loaded corpus sees —
// conflation, a refresh's SetVector, documents added through ReopenBuilder —
// never writes into a neighbour, and the grown corpus still saves to a fixed
// point of Load∘Save.
func TestLoadedCorpusGrowsSafely(t *testing.T) {
	built, _, _, syn := corruptionCorpus(t)
	c := roundtrip(t, built)
	for i := 0; i < c.Items.Len(); i++ {
		it := c.Items.Get(ItemID(i))
		if e := it.Vector.Entries(); cap(e) != len(e) {
			t.Fatalf("item %d: vector of %d entries has capacity %d", i, len(e), cap(e))
		}
		if cap(it.Constituents) != len(it.Constituents) {
			t.Fatalf("item %d: %d constituents have capacity %d", i, len(it.Constituents), cap(it.Constituents))
		}
		if (it.Constituents == nil) == it.Synthetic {
			t.Fatalf("item %d: synthetic %v with constituents %v", i, it.Synthetic, it.Constituents)
		}
	}
	for i, tr := range c.Transactions {
		if cap(tr.Items) != len(tr.Items) {
			t.Fatalf("transaction %d: %d items have capacity %d", i, len(tr.Items), cap(tr.Items))
		}
	}
	first := c.Items.Get(0)
	s := c.Items.Get(syn)
	grown := c.Items.InternSynthetic(s.Path, MergedAnswerKey([]string{"a", "b", "c"}), s.Vector, append(s.Constituents, 2))
	c.Items.SetVector(1, vector.FromMap(map[int32]float64{0: 2}))
	b := ReopenBuilder(c, 1, BuildOptions{})
	b.Add(xmltree.MustParseString(`<dblp><article key="k"><author>M.J. Zaki</author></article></dblp>`))
	b.Finish()
	if c.Items.Get(0) != first || c.Items.Get(syn) != s {
		t.Fatal("growing the table moved the items it was loaded with")
	}
	if got := c.Items.Get(grown).Constituents; len(got) != 3 || len(s.Constituents) != 2 {
		t.Fatalf("constituents after growth: %v beside %v", got, s.Constituents)
	}
	again := roundtrip(t, c)
	for i, tr := range built.Transactions {
		if !tr.Equal(again.Transactions[i]) {
			t.Fatalf("transaction %d changed under growth", i)
		}
	}
	for i := 0; i < built.Items.Len(); i++ {
		if i != 1 && !vector.Equal(built.Items.Get(ItemID(i)).Vector, again.Items.Get(ItemID(i)).Vector) {
			t.Fatalf("item %d: vector changed under growth", i)
		}
	}
	walkCorpus(again)
}

// TestLoadHelperLeavesNoGoroutine: Load fills its term map and item index on
// a helper goroutine and waits for it on every return. A duplicate term and
// a duplicate ⟨path, answer⟩ pair, which only the helper's maps reveal, and
// every block damaged or cut short after the helper started fail with
// ErrCorruptCorpus, and no failure leaves a goroutine behind.
func TestLoadHelperLeavesNoGoroutine(t *testing.T) {
	cases := corruptionCases(t)
	c, _, _, _ := corruptionCorpus(t)
	stream := savedStream(t, c)
	_, starts := splitBlocks(t, stream)
	for b := blkItems; b < numBlocks; b++ {
		cases = append(cases, corruptionCase{fmt.Sprintf("cut-in-block-%d", b), stream[:starts[b]+12], ""})
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		mustBeCorrupt(t, tc.stream, tc.mention)
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines before Load, %d after it failed", tc.name, before, n)
		}
	}
}
