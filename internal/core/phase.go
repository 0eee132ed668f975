package core

import (
	"errors"
	"fmt"
)

// Phase identifies one step of the per-round CXK-means protocol engine
// (Fig. 5). A session advances Startup → (BroadcastGlobals → Relocate →
// ExchangeLocals → RefineGlobals)* → Done; ExchangeLocals short-circuits to
// Done when every peer reported a stable local clustering.
type Phase int

const (
	// PhaseStartup awaits node N0's StartMsg and selects the initial
	// global representatives this peer is responsible for.
	PhaseStartup Phase = iota
	// PhaseBroadcastGlobals broadcasts the peer's own global
	// representatives and collects the other peers' (protocol phase 1).
	PhaseBroadcastGlobals
	// PhaseRelocate runs the local relocation loop against the fixed
	// globals and recomputes the local representatives (phase 2).
	PhaseRelocate
	// PhaseExchangeLocals exchanges local representatives or done flags
	// with every other peer (phase 3).
	PhaseExchangeLocals
	// PhaseRefineGlobals recomputes the global representatives of the
	// clusters this peer owns from the collected locals (phase 4), then
	// advances the round.
	PhaseRefineGlobals
	// PhaseDone is the terminal phase: the session has converged or
	// exhausted MaxRounds.
	PhaseDone
	// PhaseRejoin awaits a recovery state instead of a StartMsg: a peer
	// launched with PeerConfig.Rejoin parks protocol traffic and waits for
	// the fabric hooks to deliver an installable SessionState — the
	// coordinator's replica of the slot, handed over at admission.
	PhaseRejoin
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseStartup:
		return "startup"
	case PhaseBroadcastGlobals:
		return "broadcast-globals"
	case PhaseRelocate:
		return "relocate"
	case PhaseExchangeLocals:
		return "exchange-locals"
	case PhaseRefineGlobals:
		return "refine-globals"
	case PhaseDone:
		return "done"
	case PhaseRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Typed session failures, matched with errors.Is through SessionError.
var (
	// ErrRoundDeadline reports that a peer waited longer than the
	// configured RoundTimeout for a protocol message — the dead-peer /
	// lost-message failure mode of a real deployment.
	ErrRoundDeadline = errors.New("core: round deadline exceeded")
	// ErrTransportClosed reports that the transport's receive stream ended
	// while the session still expected messages.
	ErrTransportClosed = errors.New("core: transport closed")
	// ErrUnexpectedMessage reports a payload the protocol state machine
	// cannot accept in its current phase.
	ErrUnexpectedMessage = errors.New("core: unexpected message")
	// ErrSend reports a transport send failure. Sends are never silently
	// swallowed: a peer that cannot reach a neighbour fails its session
	// instead of leaving the neighbour to starve.
	ErrSend = errors.New("core: send failed")
	// ErrCanceled reports that the run's context was canceled (or its
	// deadline expired) and the session aborted at the nearest safe
	// boundary — a phase edge, a blocking receive, or between relocation
	// passes. The context's own error is attached as detail.
	ErrCanceled = errors.New("core: run canceled")
	// ErrConfigMismatch reports that node N0's StartMsg disagrees with
	// this peer's own run parameters — a multi-process cluster launched
	// with divergent flags (seed, k, f, γ, corpus, partition) would
	// otherwise compute silently wrong assignments.
	ErrConfigMismatch = errors.New("core: run configuration mismatch")
	// ErrLeft reports that the peer left the session on purpose (graceful
	// leave through the fabric): the session stops without a result and the
	// caller should not treat it as a failure.
	ErrLeft = errors.New("core: peer left the session")
	// ErrCoordinatorLost reports that the recovery coordinator (peer 0)
	// became unreachable; elastic sessions recover member failures but do
	// not re-elect a coordinator.
	ErrCoordinatorLost = errors.New("core: coordinator lost")
	// ErrRecoveryTimeout reports that a failure was detected but recovery
	// did not complete within the configured recovery window.
	ErrRecoveryTimeout = errors.New("core: recovery window exceeded")
)

// SessionError wraps a session failure with the peer, round and phase it
// occurred in. Unwrap exposes the cause for errors.Is/As.
type SessionError struct {
	Peer  int
	Round int
	Phase Phase
	Err   error
}

// Error implements error.
func (e *SessionError) Error() string {
	return fmt.Sprintf("core: peer %d round %d %s: %v", e.Peer, e.Round, e.Phase, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *SessionError) Unwrap() error { return e.Err }
