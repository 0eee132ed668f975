package core

import (
	"context"
	"fmt"
	"time"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// PeerResult is the outcome of one peer's session.
type PeerResult struct {
	// ID is the peer id this result belongs to.
	ID int
	// Rounds is the number of collaborative rounds executed.
	Rounds int
	// Capped reports that the round cap, not convergence, stopped it.
	Capped bool
	// Assign is the peer's local assignment (local transaction order).
	Assign []int
	// Reps are the final global representatives as seen by this peer (all
	// peers converge to the same set on termination).
	Reps []*txn.Transaction
	// Items is the peer's job table, which Reps resolve in.
	Items *txn.ItemTable
	// Report carries the per-round accounting.
	Report PeerReport
	// Global is the corpus-wide assignment the coordinator (ID 0) collects
	// from every member's AssignMsg; nil on the members.
	Global []int
	// WallTime is the end-to-end duration of this peer's session
	// (including, on the coordinator, assignment collection).
	WallTime time.Duration
}

// RunPeer executes exactly one peer of a distributed CXK-means session —
// the entry point for multi-process deployments where every OS process owns
// one peer and opts.Transport is that process's p2p.Node.
//
// All processes must be configured identically (same corpus, K, seed,
// partition and round limit); the partition and per-peer seeds are derived
// exactly as in Run, so a multi-process run is byte-identical to the
// in-process engine for the same parameters. start is this process's
// NewStartMsg(cx, corpus, opts), computed once by the caller, which may need
// its corpus digest elsewhere too (the fabric's configuration fingerprint);
// a peer whose start differs from N0's fails with ErrConfigMismatch.
//
// Peer 0 is the coordinator: its session opens as node N0 (broadcasting
// start) and ends once every member's AssignMsg is in, with the corpus-wide
// assignment in PeerResult.Global. A member's session ends by sending its
// AssignMsg.
func RunPeer(ctx context.Context, cx *sim.Context, corpus *txn.Corpus, opts Options, start StartMsg, id int) (*PeerResult, error) {
	if err := opts.check(); err != nil {
		return nil, err
	}
	m := opts.Peers
	if id < 0 || id >= m {
		return nil, fmt.Errorf("core: peer id %d outside [0,%d)", id, m)
	}
	if opts.Transport == nil {
		return nil, fmt.Errorf("core: RunPeer needs an explicit transport (one p2p.Node per process)")
	}
	if opts.PKMeans {
		return nil, fmt.Errorf("core: RunPeer runs CXK-means only; PK-means runs in process (Run)")
	}
	if tp := opts.Transport.Peers(); tp != m {
		return nil, fmt.Errorf("core: transport has %d peers, options say %d", tp, m)
	}
	if id == 0 && opts.Rejoin {
		return nil, fmt.Errorf("core: the coordinator cannot rejoin (%w on coordinator death)", ErrCoordinatorLost)
	}
	d, outs := newDriver(cx, corpus, &opts, start, id)
	return d.run(ctx, outs)
}
