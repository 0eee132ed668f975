package fabric

import (
	"xmlclust/internal/core"
	"xmlclust/internal/p2p"
)

// Control-plane messages of the elastic fabric. All of them implement
// core.ControlPayload, so sessions route them to the fabric hooks from any
// phase; they travel epoch-less (p2p.EpochAny) because control traffic is
// what moves peers BETWEEN membership epochs — a node-level epoch filter
// must never drop the very message that would advance a straggler.

// JoinMsg asks the coordinator to admit the sender into the session as the
// process now occupying Slot: a replacement for a crashed or departed peer,
// on a fresh machine or restarted on the old one's checkpoint directory.
// Either way the admission hands it the slot's replica.
type JoinMsg struct {
	// Slot is the peer id the sender wants to occupy.
	Slot int
	// Fingerprint is the sender's run-configuration fingerprint, corpus
	// digest included; a join under another fingerprint is dropped.
	Fingerprint uint64
}

// CheckpointMsg replicates a member's round-boundary state to the
// coordinator, so a crashed or departed member's slot can be handed to a
// process that never saw the member's disk. A graceful leave is the last
// CheckpointMsg a member sends.
type CheckpointMsg struct {
	Slot        int
	Fingerprint uint64
	State       core.SessionState
}

// SuspectMsg reports a stalled receive: a member that exhausted one round
// timeout tells the coordinator something is wrong (and, by getting an
// error back from the transport, learns whether the coordinator itself is
// the casualty).
type SuspectMsg struct {
	From  int
	Round int
	Phase int
}

// ResumeMsg is the coordinator's rollback barrier: every member re-enters
// the round loop at Round under Epoch. A survivor restores its own
// checkpoint at Round from local storage; a joining slot's message carries
// the slot's replica at Round in State, under the run's Fingerprint.
type ResumeMsg struct {
	Epoch int
	Round int
	// Joined lists the slots being taken over by new processes in this
	// epoch. Survivors must drop any cached transport connection to those
	// slots: the connection leads to the dead predecessor, and TCP loses
	// the first frame written to a dead socket silently.
	Joined      []int
	Fingerprint uint64
	// State is the joining slot's replicated state (nil for survivors).
	State *core.SessionState
}

// SessionControl marks the fabric messages as session-control payloads.
func (JoinMsg) SessionControl()       {}
func (CheckpointMsg) SessionControl() {}
func (SuspectMsg) SessionControl()    {}
func (ResumeMsg) SessionControl()     {}

func init() {
	p2p.RegisterWireType(JoinMsg{})
	p2p.RegisterWireType(CheckpointMsg{})
	p2p.RegisterWireType(SuspectMsg{})
	p2p.RegisterWireType(ResumeMsg{})
}

// epochStamper is the transport capability of stamping an explicit epoch on
// one send; p2p.Node and TCPTransport implement it.
type epochStamper interface {
	SendStamped(from, to, epoch int, payload any) error
}

// staleCounter is the transport capability of counting the frames it
// dropped for carrying an older membership epoch (p2p.Node); Metrics reads
// it at every snapshot.
type staleCounter interface {
	DroppedStale() int64
}

// connResetter is the transport capability of dropping a cached outgoing
// connection (p2p.Node). The fabric resets the connection to a slot whenever
// it learns a new process occupies it; transports without connection caching
// (ChanTransport) have nothing to reset.
type connResetter interface {
	ResetConn(to int)
}

// resetConn drops the transport's cached connection to a peer, if the
// transport caches connections at all.
func resetConn(tr p2p.Transport, to int) {
	if cr, ok := tr.(connResetter); ok {
		cr.ResetConn(to)
	}
}

// sendCtl delivers a control message epoch-less when the transport can
// stamp (so node-level filters pass it through regardless of view), and
// plainly otherwise (sessions route control payloads before any epoch
// check, so in-process transports need no stamping).
func sendCtl(tr p2p.Transport, from, to int, payload any) error {
	if es, ok := tr.(epochStamper); ok {
		return es.SendStamped(from, to, p2p.EpochAny, payload)
	}
	return tr.Send(from, to, payload)
}
