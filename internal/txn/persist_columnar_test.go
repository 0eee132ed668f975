package txn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// savedPaperStream builds the paper corpus and returns its format-2 gob
// stream plus the decoded wire envelope, for tests that mutate one block
// and re-encode.
func savedPaperStream(t *testing.T) ([]byte, wireCorpus) {
	t.Helper()
	c := buildPaperCorpus(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var wc wireCorpus
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&wc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), wc
}

func reencode(t *testing.T, wc wireCorpus) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wc); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestLoadTruncatedColumnarStream: cutting the format-2 stream at any
// point must yield a readable error wrapping ErrCorruptCorpus — never a
// panic, never a silently short corpus.
func TestLoadTruncatedColumnarStream(t *testing.T) {
	stream, _ := savedPaperStream(t)
	cuts := []struct {
		name string
		n    int
	}{
		{"empty", 0},
		{"header-only", 8},
		{"quarter", len(stream) / 4},
		{"half", len(stream) / 2},
		{"three-quarters", 3 * len(stream) / 4},
		{"one-byte-short", len(stream) - 1},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Load(bytes.NewReader(stream[:tc.n]))
			if err == nil {
				t.Fatalf("truncation at %d/%d bytes loaded a corpus with %d transactions",
					tc.n, len(stream), len(c.Transactions))
			}
			if !errors.Is(err, ErrCorruptCorpus) {
				t.Fatalf("truncation error does not wrap ErrCorruptCorpus: %v", err)
			}
		})
	}
}

// TestLoadCorruptColumnarBlocks: each structurally-damaged columnar block
// must be rejected with ErrCorruptCorpus and a message naming the damage.
func TestLoadCorruptColumnarBlocks(t *testing.T) {
	_, base := savedPaperStream(t)
	if len(base.TxnOffsets) < 3 || len(base.TxnItems) < 3 {
		t.Fatalf("paper corpus too small to corrupt meaningfully: %d offsets, %d items",
			len(base.TxnOffsets), len(base.TxnItems))
	}
	// Locate a span with at least two positions for the ordering cases.
	wide := -1
	for i := 0; i+1 < len(base.TxnOffsets); i++ {
		if base.TxnOffsets[i+1]-base.TxnOffsets[i] >= 2 {
			wide = i
			break
		}
	}
	if wide < 0 {
		t.Fatal("no transaction with ≥2 items in the paper corpus")
	}
	cases := []struct {
		name    string
		mutate  func(wc *wireCorpus)
		mention string
	}{
		{
			name:    "offsets-start-nonzero",
			mutate:  func(wc *wireCorpus) { wc.TxnOffsets[0] = 1 },
			mention: "starts at",
		},
		{
			name:    "offsets-end-short",
			mutate:  func(wc *wireCorpus) { wc.TxnOffsets[len(wc.TxnOffsets)-1]-- },
			mention: "ends at",
		},
		{
			name: "offsets-decreasing",
			mutate: func(wc *wireCorpus) {
				wc.TxnOffsets[wide+1] = base.TxnOffsets[wide] - 1
				// Keep the final offset consistent so only the negative span fires.
				if wide+1 == len(wc.TxnOffsets)-1 {
					wc.TxnItems = wc.TxnItems[:wc.TxnOffsets[wide+1]]
				}
			},
			mention: "negative length",
		},
		{
			// An interior offset past the arena with a consistent final one:
			// the span must be rejected before it is sliced.
			name:    "offsets-overshoot",
			mutate:  func(wc *wireCorpus) { wc.TxnOffsets[1] = int32(len(wc.TxnItems)) + 1000000 },
			mention: "beyond the arena",
		},
		{
			name: "item-id-out-of-range",
			mutate: func(wc *wireCorpus) {
				wc.TxnItems[0] = ItemID(len(wc.Items) + 7)
			},
			mention: "unknown item",
		},
		{
			name: "item-id-negative",
			mutate: func(wc *wireCorpus) {
				wc.TxnItems[0] = -2
			},
			mention: "unknown item",
		},
		{
			name: "span-not-ascending",
			mutate: func(wc *wireCorpus) {
				lo := base.TxnOffsets[wide]
				wc.TxnItems[lo], wc.TxnItems[lo+1] = wc.TxnItems[lo+1], wc.TxnItems[lo]
			},
			mention: "ascending",
		},
		{
			name: "span-duplicate-id",
			mutate: func(wc *wireCorpus) {
				lo := base.TxnOffsets[wide]
				wc.TxnItems[lo+1] = wc.TxnItems[lo]
			},
			mention: "ascending",
		},
		{
			name: "docs-column-short",
			mutate: func(wc *wireCorpus) {
				wc.TxnDocs = wc.TxnDocs[:len(wc.TxnDocs)-1]
			},
			mention: "columns disagree",
		},
		{
			name: "labels-column-long",
			mutate: func(wc *wireCorpus) {
				wc.TxnLabels = append(wc.TxnLabels, 0)
			},
			mention: "columns disagree",
		},
		{
			name: "items-without-offsets",
			mutate: func(wc *wireCorpus) {
				wc.TxnOffsets = nil
				wc.TxnDocs, wc.TxnTuples, wc.TxnLabels = nil, nil, nil
			},
			mention: "no offset table",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wc := base
			wc.TxnItems = append([]ItemID(nil), base.TxnItems...)
			wc.TxnOffsets = append([]int32(nil), base.TxnOffsets...)
			wc.TxnDocs = append([]int32(nil), base.TxnDocs...)
			wc.TxnTuples = append([]int32(nil), base.TxnTuples...)
			wc.TxnLabels = append([]int32(nil), base.TxnLabels...)
			tc.mutate(&wc)
			_, err := Load(reencode(t, wc))
			if err == nil {
				t.Fatal("corrupted block loaded cleanly")
			}
			if !errors.Is(err, ErrCorruptCorpus) {
				t.Fatalf("error does not wrap ErrCorruptCorpus: %v", err)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("error %q does not mention %q", err, tc.mention)
			}
		})
	}
}

// TestLoadFormatVersionSkewIsNotCorruption pins the error taxonomy: an
// unknown format number — a future one, or the retired format 1 — is version
// skew, reported without the corruption sentinel so callers can tell
// "upgrade your reader" from "your file is damaged".
func TestLoadFormatVersionSkewIsNotCorruption(t *testing.T) {
	_, wc := savedPaperStream(t)
	for _, format := range []int{persistFormat + 41, 1} {
		wc.Format = format
		_, err := Load(reencode(t, wc))
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

// TestSaveKeepsGobDescriptor: the gob type descriptor heads
// every saved corpus, so the never-populated wireCorpus.Transactions is part
// of the bytes files are compared by; deleting the field would change them.
func TestSaveKeepsGobDescriptor(t *testing.T) {
	stream, wc := savedPaperStream(t)
	if !bytes.Contains(stream, []byte("\x0cTransactions")) {
		t.Fatal("saved stream's type descriptor no longer names the Transactions field")
	}
	if wc.Transactions != nil {
		t.Fatalf("Save populated the retired format-1 block with %d records", len(wc.Transactions))
	}
}
