package fabric

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlclust/internal/core"
	"xmlclust/internal/txn"
	"xmlclust/internal/xmltree"
)

func testState(round, epoch int) *core.SessionState {
	return &core.SessionState{
		Epoch: epoch, Round: round, Rounds: round, K: 2,
		Zs:     [][]int{{0}, {1}},
		Assign: []int{0, 1, 0},
		Sizes:  []int{2, 1},
		Global: []core.WireTxn{{}, {}}, LocalRp: []core.WireTxn{{}, {}},
	}
}

func TestStoreSaveLoadLatest(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const fp = 0xfeedface
	if _, err := st.Load(1, 0, fp); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store: want ErrNoCheckpoint, got %v", err)
	}
	for _, r := range []int{0, 2, 4} {
		if err := st.Save(1, fp, testState(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Save(3, fp, testState(7, 0)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 2, 4} {
		got, err := st.Load(1, r, fp)
		if err != nil {
			t.Fatal(err)
		}
		if got.Round != r || got.K != 2 || len(got.Assign) != 3 {
			t.Fatalf("loaded state diverges: %+v", got)
		}
	}
	if _, err := st.Load(3, 4, fp); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("slot 3 round 4: want ErrNoCheckpoint, got %v", err)
	}
	// Overwriting a round is idempotent (recovery replays boundaries), and
	// the newest write is the one that loads.
	if err := st.Save(1, fp, testState(2, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(1, 2, fp)
	if err != nil || got.Epoch != 1 {
		t.Fatalf("overwrite not visible: epoch %d, %v", got.Epoch, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(st.Dir(), "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

func TestStoreFingerprintMismatch(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(0, 111, testState(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(0, 1, 222); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("want ErrCheckpointMismatch, got %v", err)
	}
	if _, err := st.Load(0, 9, 111); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing round: want ErrNoCheckpoint, got %v", err)
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Stray files (aborted temp writes, user debris) must not break a save
	// or a restore.
	for _, name := range []string{"ckpt-12345.tmp", "notes.txt", "ckpt-x-ry.gob"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Save(0, 1, testState(3, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(0, 3, 1)
	if err != nil || got.Round != 3 {
		t.Fatalf("Load = %+v, %v; want round 3", got, err)
	}
}

func TestConfigFingerprintDistinguishes(t *testing.T) {
	base := ConfigFingerprint(4, 3, 0.5, 0.6, 7, 100, 42)
	variants := []uint64{
		ConfigFingerprint(5, 3, 0.5, 0.6, 7, 100, 42),
		ConfigFingerprint(4, 4, 0.5, 0.6, 7, 100, 42),
		ConfigFingerprint(4, 3, 0.4, 0.6, 7, 100, 42),
		ConfigFingerprint(4, 3, 0.5, 0.7, 7, 100, 42),
		ConfigFingerprint(4, 3, 0.5, 0.6, 8, 100, 42),
		ConfigFingerprint(4, 3, 0.5, 0.6, 7, 101, 42),
		ConfigFingerprint(4, 3, 0.5, 0.6, 7, 100, 43),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collides with the base fingerprint", i)
		}
	}
	if again := ConfigFingerprint(4, 3, 0.5, 0.6, 7, 100, 42); again != base {
		t.Error("fingerprint is not deterministic")
	}
}

// goldenCorpus is the fixed two-document corpus of the golden values; the
// answer of every name element is the given text.
func goldenCorpus(t *testing.T, name string) *txn.Corpus {
	t.Helper()
	var trees []*xmltree.Tree
	for i, doc := range []string{
		`<db><paper key="p0"><writer>alice</writer><name>%s</name></paper></db>`,
		`<db><paper key="p1"><writer>bob</writer><name>%s</name><name>second %s</name></paper></db>`,
	} {
		tree, err := xmltree.ParseString(strings.ReplaceAll(doc, "%s", fmt.Sprintf("%s %d", name, i)))
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	return txn.Build(trees, txn.BuildOptions{})
}

// TestFingerprintGoldenValues pins the FNV-1a folds bit for bit:
// PartitionFingerprint travels in StartMsg between processes and
// ConfigFingerprint is persisted in every checkpoint, so a change of either
// value silently splits a mixed-version deployment or orphans a store. The
// second corpus differs from the first in answer text only.
func TestFingerprintGoldenValues(t *testing.T) {
	corpus := goldenCorpus(t, "mining")
	if n := len(corpus.Transactions); n != 3 {
		t.Fatalf("golden corpus has %d transactions, want 3", n)
	}
	split := [][]int{{0, 2}, {1}}
	part := core.PartitionFingerprint(corpus, split)
	if want := uint64(0xeaedc97ce3f25063); part != want {
		t.Errorf("PartitionFingerprint = %#x, want %#x", part, want)
	}
	if other := core.PartitionFingerprint(goldenCorpus(t, "routing"), split); other != 0x1b6bc839e8490570 {
		t.Errorf("PartitionFingerprint (other answers) = %#x, want %#x", other, uint64(0x1b6bc839e8490570))
	}
	cfg := ConfigFingerprint(4, 3, 0.5, 0.6, 7, 100, part)
	if want := uint64(0x4d4419df9c135af8); cfg != want {
		t.Errorf("ConfigFingerprint = %#x, want %#x", cfg, want)
	}
}
