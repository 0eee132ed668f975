package txn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// roundtrip saves c, loads it back and checks that the loaded corpus saves
// the very bytes it was loaded from — the stream is pinned as a fixed point
// of Load∘Save, with no reference to any in-memory layout.
func roundtrip(t *testing.T, c *Corpus) *Corpus {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, again.Bytes()) {
		t.Fatalf("re-saved corpus differs from the %d-byte stream it was loaded from (%d bytes)", len(saved), again.Len())
	}
	return back
}

func TestPersistRoundtrip(t *testing.T) {
	c := buildPaperCorpus(t)
	// Give a couple of items vectors and add a synthetic one, as a
	// clustered corpus would have.
	c.Items.SetVector(0, vector.FromMap(map[int32]float64{1: 0.5, 3: 1.5}))
	c.Terms.Intern("zaki")
	c.Terms.Intern("mine")
	it0 := c.Items.Get(0)
	syn := c.Items.InternSynthetic(it0.Path, MergedAnswerKey([]string{"a", "b"}),
		vector.FromMap(map[int32]float64{2: 1}), []ItemID{0, 1})

	back := roundtrip(t, c)
	if back.Items.Len() != c.Items.Len() {
		t.Fatalf("items %d != %d", back.Items.Len(), c.Items.Len())
	}
	if back.Paths.Len() != c.Paths.Len() || back.Terms.Len() != c.Terms.Len() {
		t.Fatal("table sizes differ")
	}
	if len(back.Transactions) != len(c.Transactions) {
		t.Fatal("transaction counts differ")
	}
	for i, tr := range c.Transactions {
		if !tr.Equal(back.Transactions[i]) {
			t.Fatalf("transaction %d differs", i)
		}
		if back.Transactions[i].Doc != tr.Doc || back.Transactions[i].Label != tr.Label {
			t.Fatalf("transaction %d metadata differs", i)
		}
	}
	for i := 0; i < c.Items.Len(); i++ {
		a, b := c.Items.Get(ItemID(i)), back.Items.Get(ItemID(i))
		if a.Answer != b.Answer || a.Path != b.Path || a.Synthetic != b.Synthetic {
			t.Fatalf("item %d differs: %+v vs %+v", i, a, b)
		}
		if !vector.Equal(a.Vector, b.Vector) {
			t.Fatalf("item %d vector differs", i)
		}
	}
	// Synthetic constituents survive.
	bs := back.Items.Get(syn)
	if len(bs.Constituents) != 2 || bs.Constituents[0] != 0 || bs.Constituents[1] != 1 {
		t.Fatalf("synthetic constituents = %v", bs.Constituents)
	}
	// Interning identity: every pair is found and re-interns to its id; a
	// new answer, and a first item under a path the file did not index,
	// get the next ids.
	n := c.Items.Len()
	for id := ItemID(0); int(id) < n; id++ {
		it := c.Items.Get(id)
		if got, ok := back.Items.Lookup(it.Path, it.Answer); !ok || got != id || back.Items.Intern(it.Path, it.Answer) != id {
			t.Errorf("item %d found as %d, %v after Load", id, got, ok)
		}
	}
	fresh := back.Paths.Intern(xmltree.ParsePath("dblp.new.S"))
	if a, b := back.Items.Intern(it0.Path, "no item's answer"), back.Items.Intern(fresh, "x"); a != ItemID(n) || b != ItemID(n+1) {
		t.Errorf("new items after Load got %d and %d, want %d and %d", a, b, n, n+1)
	}
}

func TestPersistEmptyCorpus(t *testing.T) {
	c := Build(nil, BuildOptions{})
	back := roundtrip(t, c)
	if len(back.Transactions) != 0 || back.Items.Len() != 0 {
		t.Error("empty corpus roundtrip not empty")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a corpus stream")); !errors.Is(err, ErrCorruptCorpus) {
		t.Errorf("garbage: %v, want ErrCorruptCorpus", err)
	}
	if _, err := Load(bytes.NewReader(nil)); !errors.Is(err, ErrCorruptCorpus) {
		t.Errorf("empty stream: %v, want ErrCorruptCorpus", err)
	}
	// What a file of the retired gob format looks like to this reader: a
	// stream without the magic, reported as such with the way out.
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct{ Format int }{2}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&old)
	if !errors.Is(err, ErrCorruptCorpus) || !strings.Contains(err.Error(), "regenerate it from its XML") {
		t.Errorf("gob stream: %v, want ErrCorruptCorpus naming the way out", err)
	}
}

func TestLoadWrongFormat(t *testing.T) {
	c := buildPaperCorpus(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestLoadFutureFormat(t *testing.T) {
	// A corpus written by a future release bumps persistFormat; today's
	// reader must reject it with a readable error, not a misread of blocks
	// it does not know: the version check fires before any block is read.
	stream := binary.LittleEndian.AppendUint32([]byte(persistMagic), persistFormat+41)
	_, err := Load(bytes.NewReader(append(stream, "blocks of a layout yet to come"...)))
	if err == nil {
		t.Fatal("future persistFormat must not load")
	}
	if !strings.Contains(err.Error(), "unsupported corpus format") {
		t.Fatalf("unhelpful error for future format: %v", err)
	}
}

func TestLoadRejectsDanglingConstituents(t *testing.T) {
	c := buildPaperCorpus(t)
	it0 := c.Items.Get(0)
	c.Items.InternSynthetic(it0.Path, MergedAnswerKey([]string{"x", "y"}),
		vector.FromMap(map[int32]float64{0: 1}), []ItemID{0, 1})
	blocks := savedBlocks(t, c)
	// Corrupt the synthetic item's decomposition — the last two ids of the
	// constituent arena — to a forward reference.
	cons := blocks[blkConstituents]
	binary.LittleEndian.PutUint32(cons[len(cons)-4:], uint32(c.Items.Len()+5))
	if _, err := Load(bytes.NewReader(joinBlocks(persistFormat, blocks))); !errors.Is(err, ErrCorruptCorpus) {
		t.Fatalf("dangling synthetic constituent: %v, want ErrCorruptCorpus", err)
	} else if !strings.Contains(err.Error(), "constituent") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestPersistRoundtripWeightedSyntheticCorpus(t *testing.T) {
	// Full-pipeline round trip: weighted vectors plus several synthetic
	// conflations, including a re-conflation that merges a synthetic item's
	// constituents with a fresh raw item — the shape representatives take
	// after a few collaborative rounds.
	c := buildPaperCorpus(t)
	for i := 0; i < c.Items.Len(); i++ {
		// Stand-in weighted vectors (package txn cannot import weighting).
		c.Items.SetVector(ItemID(i), vector.FromMap(map[int32]float64{int32(i): 1.5, int32(i + 1): 0.25}))
	}
	it0, it1, it2 := c.Items.Get(0), c.Items.Get(1), c.Items.Get(2)
	syn1 := c.Items.InternSynthetic(it0.Path,
		MergedAnswerKey([]string{it0.Answer, it1.Answer}),
		vector.Scale(vector.Add(it0.Vector, it1.Vector), 0.5),
		[]ItemID{it0.ID, it1.ID})
	syn2 := c.Items.InternSynthetic(it0.Path,
		MergedAnswerKey([]string{it0.Answer, it1.Answer, it2.Answer}),
		vector.Scale(vector.Add(c.Items.Get(syn1).Vector, it2.Vector), 0.5),
		append(append([]ItemID(nil), c.Items.Get(syn1).Constituents...), it2.ID))

	back := roundtrip(t, c)
	for _, id := range []ItemID{syn1, syn2} {
		a, b := c.Items.Get(id), back.Items.Get(id)
		if !b.Synthetic {
			t.Fatalf("item %d lost Synthetic flag", id)
		}
		if a.Answer != b.Answer {
			t.Fatalf("item %d answer %q != %q", id, a.Answer, b.Answer)
		}
		if len(a.Constituents) != len(b.Constituents) {
			t.Fatalf("item %d constituents %v != %v", id, a.Constituents, b.Constituents)
		}
		for i := range a.Constituents {
			if a.Constituents[i] != b.Constituents[i] {
				t.Fatalf("item %d constituents %v != %v", id, a.Constituents, b.Constituents)
			}
		}
		if !vector.Equal(a.Vector, b.Vector) {
			t.Fatalf("item %d vector differs after roundtrip", id)
		}
	}
	// The restored table re-conflates to the same id (interning identity).
	s := back.Items.Get(syn1)
	if got := back.Items.InternSynthetic(s.Path, s.Answer, s.Vector, s.Constituents); got != syn1 {
		t.Fatalf("re-conflation interned %d, want %d", got, syn1)
	}
}

func TestPersistPreservesMaxDepthAndTruncation(t *testing.T) {
	tree, _ := xmltree.ParseString(paperDoc)
	c := Build([]*xmltree.Tree{tree}, BuildOptions{})
	c.TruncatedDocs = 3
	back := roundtrip(t, c)
	if back.MaxDepth != c.MaxDepth || back.TruncatedDocs != 3 {
		t.Errorf("metadata lost: %+v", back)
	}
}

// windowWriter records the Writes Save makes, and fails the k-th (k > 0).
type windowWriter struct {
	k, calls, largest int
	got               bytes.Buffer
}

var errWriteFails = errors.New("the write fails")

func (w *windowWriter) Write(p []byte) (int, error) {
	w.calls++
	w.largest = max(w.largest, len(p))
	if w.calls == w.k {
		return 0, errWriteFails
	}
	return w.got.Write(p)
}

// TestSaveStreamsThroughWindow: Save holds one window of the file, not its
// longest block. Through a writer that records its Writes, none is longer
// than the window, and the bytes are a bytes.Buffer's save. Through a writer
// that fails its k-th Write, for every k the save makes — the writes tile
// the stream, so each block boundary falls in one of them — Save returns
// that error and writes nothing after it. A block that streams other than
// its counted length fails the save.
func TestSaveStreamsThroughWindow(t *testing.T) {
	long, err := xmltree.ParseString("<doc><title>" + strings.Repeat("long ", saveWindow/4) + "</title></doc>")
	if err != nil {
		t.Fatal(err)
	}
	c := Build(append(builderTestTrees(t, 2000), long), BuildOptions{})
	want := savedStream(t, c)
	roundtrip(t, c)
	_, starts := splitBlocks(t, want)
	windows := map[int]bool{}
	for _, at := range starts {
		windows[at/saveWindow] = true
	}
	if len(windows) < 4 {
		t.Fatalf("the %d block boundaries fall in %d windows of the stream, want at least 4", len(starts), len(windows))
	}

	var rec windowWriter
	if err := c.Save(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.largest > saveWindow || !bytes.Equal(rec.got.Bytes(), want) {
		t.Fatalf("Save wrote %d bytes in Writes of up to %d, want the %d of a buffer's save in Writes of up to %d",
			rec.got.Len(), rec.largest, len(want), saveWindow)
	}
	for k := 1; k <= rec.calls; k++ {
		w := windowWriter{k: k}
		if err := c.Save(&w); !errors.Is(err, errWriteFails) || w.calls != k || !bytes.HasPrefix(want, w.got.Bytes()) {
			t.Fatalf("write %d of %d fails: Save returned %v after %d writes", k, rec.calls, err, w.calls)
		}
	}

	bw := blockWriter{w: &rec, lengths: []int{8}, block: -1}
	bw.end()
	bw.u32(1)
	bw.end()
	if bw.err == nil || !strings.Contains(bw.err.Error(), "block 0 streamed 4 bytes where 8 were counted") {
		t.Fatalf("a block 4 bytes short of its count: %v", bw.err)
	}
}
