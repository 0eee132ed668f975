package fabric

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"xmlclust/internal/core"
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
	if _, err := st.Latest(1, fp); !errors.Is(err, ErrNoCheckpoint) {
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
	rounds, err := st.Rounds(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || rounds[0] != 0 || rounds[2] != 4 {
		t.Fatalf("slot 1 rounds = %v", rounds)
	}
	latest, err := st.LatestRound(1)
	if err != nil || latest != 4 {
		t.Fatalf("LatestRound = %d, %v; want 4", latest, err)
	}
	got, err := st.Load(1, 2, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 2 || got.K != 2 || len(got.Assign) != 3 {
		t.Fatalf("loaded state diverges: %+v", got)
	}
	// Overwriting a round is idempotent (recovery replays boundaries).
	if err := st.Save(1, fp, testState(2, 1)); err != nil {
		t.Fatal(err)
	}
	got, err = st.Load(1, 2, fp)
	if err != nil || got.Epoch != 1 {
		t.Fatalf("overwrite not visible: epoch %d, %v", got.Epoch, err)
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
	if _, err := st.Latest(0, 222); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("Latest: want ErrCheckpointMismatch, got %v", err)
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
	// Stray files (aborted temp writes, user debris) must not break scans.
	for _, name := range []string{"ckpt-12345.tmp", "notes.txt", "ckpt-x-ry.gob"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Save(0, 1, testState(3, 0)); err != nil {
		t.Fatal(err)
	}
	latest, err := st.LatestRound(0)
	if err != nil || latest != 3 {
		t.Fatalf("LatestRound = %d, %v; want 3", latest, err)
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

// TestFingerprintGoldenValues pins the FNV-1a fold bit for bit:
// PartitionFingerprint travels in StartMsg between processes and
// ConfigFingerprint is persisted in every checkpoint, so a change of either
// value silently splits a mixed-version deployment or orphans a store.
func TestFingerprintGoldenValues(t *testing.T) {
	part := core.PartitionFingerprint([][]int{{0, 2, 5}, {1, 3, 4}})
	if want := uint64(0x165600243ee54394); part != want {
		t.Errorf("PartitionFingerprint = %#x, want %#x", part, want)
	}
	cfg := ConfigFingerprint(4, 3, 0.5, 0.6, 7, 100, part)
	if want := uint64(0xf5b7d43e31a7b0b6); cfg != want {
		t.Errorf("ConfigFingerprint = %#x, want %#x", cfg, want)
	}
}
