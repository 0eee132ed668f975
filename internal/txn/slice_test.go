package txn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlclust/internal/xmltree"
)

// randomXMLDoc produces a small random document over a deliberately tiny
// tag and answer vocabulary, so repeated values intern to the same item
// across documents.
func randomXMLDoc(rng *rand.Rand) string {
	tags := []string{"title", "author", "year"}
	answers := []string{"alpha", "beta", "gamma", "delta"}
	doc := "<dblp>"
	for e := 0; e < 1+rng.Intn(3); e++ {
		doc += "<inproceedings>"
		for l := 0; l < 1+rng.Intn(4); l++ {
			tag := tags[rng.Intn(len(tags))]
			doc += fmt.Sprintf("<%s>%s</%s>", tag, answers[rng.Intn(len(answers))], tag)
		}
		doc += "</inproceedings>"
	}
	return doc + "</dblp>"
}

func sliceTestCorpus(t *testing.T, n int) *Corpus {
	t.Helper()
	b := NewBuilder(BuildOptions{})
	rng := rand.New(rand.NewSource(7))
	for d := 0; d < n; d++ {
		tree, err := xmltree.ParseString(randomXMLDoc(rng), xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatal(err)
		}
		b.Add(tree)
	}
	return b.Finish()
}

// TestColumnarSliceMatchesTransactions: the extracted blocks must mirror
// the transactions span by span, tag paths included.
func TestColumnarSliceMatchesTransactions(t *testing.T) {
	c := sliceTestCorpus(t, 12)
	idxs := []int{3, 0, 7, 7, 11}
	cs, err := c.ColumnarSlice(idxs)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Spans() != len(idxs) {
		t.Fatalf("slice covers %d spans, want %d", cs.Spans(), len(idxs))
	}
	for i, idx := range idxs {
		tr := c.Transactions[idx]
		lo, hi := cs.Offsets[i], cs.Offsets[i+1]
		if int(hi-lo) != len(tr.Items) {
			t.Fatalf("span %d has %d positions, transaction %d has %d", i, hi-lo, idx, len(tr.Items))
		}
		for p, id := range cs.ItemIDs[lo:hi] {
			if id != tr.Items[p] {
				t.Fatalf("span %d position %d: item %v vs %v", i, p, id, tr.Items[p])
			}
			if cs.TagPathIDs[lo+int32(p)] != c.Items.Get(id).TagPath {
				t.Fatalf("span %d position %d: tag path diverges from item table", i, p)
			}
		}
	}
}

// TestColumnarSliceGobAndVerify: a slice must survive the wire (gob) and
// verify against a receiver that loaded the same corpus; tampering with any
// column must be detected.
func TestColumnarSliceGobAndVerify(t *testing.T) {
	c := sliceTestCorpus(t, 10)
	cs, err := c.ColumnarSlice([]int{1, 4, 9, 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cs); err != nil {
		t.Fatal(err)
	}
	var back ColumnarSlice
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != cs.Fingerprint() {
		t.Fatal("fingerprint changed across gob round-trip")
	}
	if err := c.VerifyColumnarSlice(&back); err != nil {
		t.Fatalf("faithful transfer rejected: %v", err)
	}
	if back.Bytes() <= 0 {
		t.Error("slice reports no wire size")
	}

	tampered := back
	tampered.ItemIDs = append([]ItemID(nil), back.ItemIDs...)
	tampered.ItemIDs[0]++
	err = c.VerifyColumnarSlice(&tampered)
	if err == nil || !strings.Contains(err.Error(), "item column") {
		t.Fatalf("tampered item column not detected: %v", err)
	}
	if tampered.Fingerprint() == back.Fingerprint() {
		t.Error("fingerprint blind to item column change")
	}
}

// TestColumnarSliceBadIndex: out-of-range indices are a caller bug surfaced
// as an error, not a panic.
func TestColumnarSliceBadIndex(t *testing.T) {
	c := sliceTestCorpus(t, 3)
	if _, err := c.ColumnarSlice([]int{0, len(c.Transactions)}); err == nil {
		t.Fatal("index past the corpus must fail")
	}
	if _, err := c.ColumnarSlice([]int{-1}); err == nil {
		t.Fatal("negative index must fail")
	}
}
