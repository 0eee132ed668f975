package core

import (
	"fmt"
	"time"

	"xmlclust/internal/sim"
)

// EventKind discriminates the progress events a run emits.
type EventKind int

const (
	// EventPhaseChange reports that a peer's session advanced to a new
	// protocol phase (Event.Phase).
	EventPhaseChange EventKind = iota
	// EventRoundStart reports that a peer entered collaborative round
	// Event.Round.
	EventRoundStart
	// EventRepsExchanged reports that a peer finished the representative
	// exchange of the round (all neighbour messages collected).
	EventRepsExchanged
	// EventRoundEnd reports that a peer completed a round; Event.Objective
	// carries the peer's local clustering objective for the round, and
	// Event.PeersChanged and Event.GlobalsChanged what changed in it.
	EventRoundEnd
	// EventDone reports run termination. Peer-level Done events carry the
	// peer id; the run-level Done event (emitted once per Run) has
	// Peer == -1 and the final round count.
	EventDone
	// EventCheckpoint, EventRestore and EventSuspect come from fabric
	// sessions (Options.Fabric): the boundary state of Event.Round was
	// checkpointed, a resumed state was installed, or a stall was reported
	// to the coordinator.
	EventCheckpoint
	EventRestore
	EventSuspect
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventPhaseChange:
		return "phase-change"
	case EventRoundStart:
		return "round-start"
	case EventRepsExchanged:
		return "reps-exchanged"
	case EventRoundEnd:
		return "round-end"
	case EventDone:
		return "done"
	case EventCheckpoint:
		return "checkpoint"
	case EventRestore:
		return "restore"
	case EventSuspect:
		return "suspect"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one progress notification of a running clustering job.
type Event struct {
	// Kind discriminates the event.
	Kind EventKind
	// Peer is the emitting peer id, or -1 for run-level events.
	Peer int
	// Epoch is the peer's membership epoch (0 outside the fabric).
	Epoch int
	// Round is the collaborative round the event belongs to (0-based;
	// for EventDone it is the total number of rounds executed).
	Round int
	// Phase is the session phase after a PhaseChange (PhaseDone for Done).
	Phase Phase
	// Objective is the peer's local clustering objective — the K-means-style
	// sum Σ (1 − simγJ(tr, rep)) over the peer's transactions — populated on
	// RoundEnd and the peer-level Done. Lower is better.
	Objective float64
	// PeersChanged and GlobalsChanged are set on RoundEnd: how many of the
	// m peers sent FlagContinue in the round (the peer's own flag counted),
	// and how many of the k global representatives the round ran against
	// differ from the previous round's (cluster.RepsChanged; in the first
	// round, and the first after a restore, every non-nil one). Both are the
	// same at every peer, a restored peer's first round aside: each peer
	// receives every flag, and holds every global once the round's
	// broadcast is in.
	PeersChanged, GlobalsChanged int
	// SentMsgs/SentBytes/RecvMsgs/RecvBytes total the peer's modeled
	// traffic so far (cumulative over all completed accounting rounds).
	SentMsgs, SentBytes int64
	RecvMsgs, RecvBytes int64
	// CounterSnapshot holds the similarity context's work counters at
	// emission time (see sim.Counters for each field): IndexCandidates and
	// IndexSkipped of the representative index, RepsReused of the round
	// engine. In-process peers share one context, so these are run-wide
	// running totals, not per-peer ones.
	sim.CounterSnapshot
	// Elapsed is the time since the session (or run, for Peer == -1)
	// started.
	Elapsed time.Duration
}

// Observer receives progress events. Run calls it from its own goroutine and
// RunPeer from the session's, so only an Observer shared by concurrent
// sessions must be safe for concurrent calls.
type Observer func(Event)

// TrafficTotals sums the report's per-round traffic counters — the
// "traffic so far" carried by progress events.
func (pr *PeerReport) TrafficTotals() (sentMsgs, sentBytes, recvMsgs, recvBytes int64) {
	for r := range pr.SentMsgsByRound {
		sentMsgs += pr.SentMsgsByRound[r]
		sentBytes += pr.SentBytesByRound[r]
		recvMsgs += pr.RecvMsgsByRound[r]
		recvBytes += pr.RecvBytesByRound[r]
	}
	return
}
