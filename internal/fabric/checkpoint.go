package fabric

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"xmlclust/internal/core"
	"xmlclust/internal/fnv"
)

// Typed checkpoint failures, matched with errors.Is.
var (
	// ErrCheckpointMismatch reports a checkpoint written under a different
	// run configuration (k, f, γ, seed, corpus, partition or peer count):
	// restoring it would replay a different protocol and diverge silently.
	ErrCheckpointMismatch = errors.New("fabric: checkpoint configuration mismatch")
	// ErrNoCheckpoint reports that no restorable checkpoint exists for the
	// requested slot (or round).
	ErrNoCheckpoint = errors.New("fabric: no checkpoint")
)

// ConfigFingerprint condenses the run parameters a checkpoint depends on
// into one comparable value (FNV-1a). partitionHash is
// core.PartitionFingerprint, which digests the corpus content as well as the
// split, so two processes with equal fingerprints loaded the same data and
// replay byte-identically from any common checkpoint; everything else is
// ErrCheckpointMismatch territory.
func ConfigFingerprint(k, peers int, f, gamma float64, seed int64, txns int, partitionHash uint64) uint64 {
	h := fnv.Offset
	for _, v := range [...]uint64{
		uint64(k), uint64(peers), math.Float64bits(f), math.Float64bits(gamma),
		uint64(seed), uint64(txns), partitionHash,
	} {
		h = fnv.Mix(h, v)
	}
	return h
}

// checkpoint is the on-disk envelope: the session state plus the identity
// needed to refuse restoring it into the wrong run.
type checkpoint struct {
	Fingerprint uint64
	Slot        int
	State       core.SessionState
}

// Store persists round-boundary checkpoints, one gob file per (slot,
// round), written atomically (temp file synced, then renamed) so a crash
// mid-write never leaves a truncated checkpoint that a restore would trip
// over.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("fabric: checkpoint store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: checkpoint dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(slot, round int) string {
	return filepath.Join(st.dir, fmt.Sprintf("ckpt-%d-r%d.gob", slot, round))
}

// Save persists a boundary state for the slot under the given
// configuration fingerprint.
func (st *Store) Save(slot int, fp uint64, state *core.SessionState) error {
	tmp, err := os.CreateTemp(st.dir, "ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("fabric: checkpoint temp: %w", err)
	}
	cp := checkpoint{Fingerprint: fp, Slot: slot, State: *state}
	if err := gob.NewEncoder(tmp).Encode(&cp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: checkpoint encode: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), st.path(slot, state.Round)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: checkpoint publish: %w", err)
	}
	return nil
}

// Load restores the slot's state at the given round. A checkpoint written
// under a different configuration fails with ErrCheckpointMismatch; a
// missing file with ErrNoCheckpoint.
func (st *Store) Load(slot, round int, fp uint64) (*core.SessionState, error) {
	f, err := os.Open(st.path(slot, round))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w for slot %d round %d in %s", ErrNoCheckpoint, slot, round, st.dir)
		}
		return nil, fmt.Errorf("fabric: checkpoint open: %w", err)
	}
	defer f.Close()
	var cp checkpoint
	if err := gob.NewDecoder(f).Decode(&cp); err != nil {
		return nil, fmt.Errorf("fabric: checkpoint decode (slot %d round %d): %w", slot, round, err)
	}
	if cp.Fingerprint != fp {
		return nil, fmt.Errorf("%w: slot %d round %d written under fingerprint %016x, this run is %016x",
			ErrCheckpointMismatch, slot, round, cp.Fingerprint, fp)
	}
	if cp.Slot != slot {
		return nil, fmt.Errorf("%w: file for slot %d carries slot %d", ErrCheckpointMismatch, slot, cp.Slot)
	}
	return &cp.State, nil
}
