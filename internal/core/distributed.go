package core

import (
	"context"
	"fmt"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// PeerResult is the outcome of one peer process of a distributed run.
type PeerResult struct {
	// ID is the peer id this result belongs to.
	ID int
	// Rounds is the number of collaborative rounds executed.
	Rounds int
	// Assign is the peer's local assignment (local transaction order).
	Assign []int
	// Reps are the final global representatives as seen by this peer.
	Reps []*txn.Transaction
	// Report carries the per-round accounting.
	Report PeerReport
	// Global is the corpus-wide assignment, assembled from every peer's
	// AssignMsg. Populated on the coordinator (ID 0) only.
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
// Peer 0 is the coordinator: it plays node N0 (broadcasting start) and,
// after its own session terminates, collects every other peer's AssignMsg
// to assemble the corpus-wide assignment in PeerResult.Global.
// Non-coordinator peers send their AssignMsg and return their local result.
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
	if id == 0 && (opts.Rejoin || opts.Initial != nil) {
		return nil, fmt.Errorf("core: the coordinator cannot rejoin or resume (%w on coordinator death)", ErrCoordinatorLost)
	}
	if id == 0 {
		for i := 0; i < m; i++ {
			// The dial inside Send is not ctx-aware (it bounds itself with
			// the transport's DialTimeout), so cancellation is observed
			// between sends rather than mid-dial.
			if ctx != nil && ctx.Err() != nil {
				return nil, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
			}
			if err := opts.Transport.Send(0, i, start); err != nil {
				return nil, fmt.Errorf("core: startup send to peer %d: %w", i, err)
			}
		}
	}

	cfg := peerConfig(cx, corpus, opts, &start, id)
	cfg.Transport, cfg.Epoch, cfg.Initial, cfg.Rejoin, cfg.Hooks = opts.Transport, opts.Epoch, opts.Initial, opts.Rejoin, opts.Hooks
	peer := NewPeer(cfg)

	t0 := time.Now()
	sres, err := peer.RunSession(ctx)
	if err != nil {
		return nil, err
	}
	pr := &PeerResult{
		ID:     id,
		Rounds: sres.Rounds,
		Assign: sres.Assign,
		Reps:   sres.Reps,
		Report: sres.Report,
	}

	if id != 0 {
		msg := AssignMsg{From: id, Rounds: sres.Rounds, Assign: sres.Assign}
		if err := opts.Transport.Send(id, 0, msg); err != nil {
			return nil, fmt.Errorf("%w: final assignment to coordinator: %v", ErrSend, err)
		}
		pr.WallTime = time.Since(t0)
		return pr, nil
	}

	global, err := collectAssignments(ctx, opts, len(corpus.Transactions), sres.Assign, sres.PendingAssigns)
	if err != nil {
		return nil, err
	}
	pr.Global = global
	pr.WallTime = time.Since(t0)
	return pr, nil
}

// collectAssignments gathers the m−1 AssignMsg reports on the coordinator
// and merges them with its own local assignment through the partition.
// pending holds reports from peers whose AssignMsg overtook the
// coordinator's final protocol round (buffered by the session).
func collectAssignments(ctx context.Context, opts Options, n int, ownAssign []int, pending []AssignMsg) ([]int, error) {
	m := opts.Peers
	full := make([]int, n)
	for i := range full {
		full[i] = cluster.TrashCluster
	}
	place := func(peerID int, assign []int) error {
		part := opts.Partition[peerID]
		if len(assign) != len(part) {
			return fmt.Errorf("%w: peer %d reported %d assignments for %d local transactions",
				ErrUnexpectedMessage, peerID, len(assign), len(part))
		}
		for li, a := range assign {
			full[part[li]] = a
		}
		return nil
	}
	if err := place(0, ownAssign); err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	accept := func(msg AssignMsg) error {
		if msg.From <= 0 || msg.From >= m || seen[msg.From] {
			return fmt.Errorf("%w: duplicate or invalid AssignMsg from peer %d", ErrUnexpectedMessage, msg.From)
		}
		if err := place(msg.From, msg.Assign); err != nil {
			return err
		}
		seen[msg.From] = true
		return nil
	}
	for _, msg := range pending {
		if err := accept(msg); err != nil {
			return nil, err
		}
	}

	var deadlineC <-chan time.Time
	if opts.RoundTimeout > 0 {
		timer := time.NewTimer(opts.RoundTimeout)
		defer timer.Stop()
		deadlineC = timer.C
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	ch := opts.Transport.Recv(0)
	for len(seen) < m-1 {
		var env p2p.Envelope
		select {
		case e, ok := <-ch:
			if !ok {
				return nil, ErrTransportClosed
			}
			env = e
		case <-ctxDone:
			return nil, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		case <-deadlineC:
			return nil, fmt.Errorf("%w: collected %d of %d final assignments", ErrRoundDeadline, len(seen), m-1)
		}
		if _, ctl := env.Payload.(ControlPayload); ctl {
			// Late control traffic (e.g. checkpoint replicas from peers
			// still draining their final round) is irrelevant once the
			// coordinator's own session has terminated.
			continue
		}
		msg, ok := env.Payload.(AssignMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %T while collecting final assignments", ErrUnexpectedMessage, env.Payload)
		}
		if err := accept(msg); err != nil {
			return nil, err
		}
	}
	return full, nil
}
