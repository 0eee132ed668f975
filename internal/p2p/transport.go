// Package p2p is the peer-to-peer network substrate the distributed
// algorithms run on. Peers are identified by dense integer ids [0..m).
//
// The wire-level primitive is Node: a single-peer transport that listens on
// one address, dials the other peers through a peer-id→address table, and
// opens every connection with a gob handshake carrying the dialer's peer id.
// Frames are gob-encoded and length-prefixed ("net" + "encoding/gob" only),
// so the frame size travels on the wire and both sides account identical
// byte counts. One Node per OS process gives a genuinely distributed
// deployment (see cmd/cxkpeer). A Node stamps every delivered Envelope
// with the actual encoded frame size.
//
// ChanTransport implements the same Transport interface for all m peers on
// in-process buffered channels: the test double of the session and fabric
// tests. In-process runs of the algorithms need no transport at all (see
// core.Run).
package p2p

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Envelope is one delivered message.
type Envelope struct {
	From    int
	To      int
	Epoch   int   // sender's membership epoch at send time (EpochAny = epoch-less)
	Bytes   int64 // actual wire size (Node; 0 on ChanTransport)
	Payload any
}

// Sizer models the wire size of a payload, for algorithms that want
// transport-independent accounting.
type Sizer func(payload any) int64

// Transport moves envelopes between peers. Implementations must be safe
// for concurrent Send from multiple goroutines; Recv(i) must be consumed by
// peer i only.
type Transport interface {
	// Send delivers payload from one peer to another, stamped with the
	// sender's epoch (SetEpoch). Sending to self is allowed and delivered
	// like any other message.
	Send(from, to int, payload any) error
	// SendStamped sends with an explicit epoch stamp: control traffic goes
	// out as EpochAny, so it crosses membership epochs.
	SendStamped(from, to, epoch int, payload any) error
	// SetEpoch sets the epoch stamped on peer self's sends (and, where the
	// transport filters, the minimum epoch it delivers). The elastic session
	// bumps it on every membership change, so stragglers from an old view
	// are rejected deterministically.
	SetEpoch(self, epoch int)
	// ResetConn drops the cached connection to a peer, if the transport
	// caches connections: the peer's slot is held by a new process.
	ResetConn(to int)
	// Recv returns the receive channel of a peer.
	Recv(self int) <-chan Envelope
	// Peers returns the number of peers m.
	Peers() int
	// Close releases resources; pending messages may be dropped.
	Close() error
}

// Stats accumulates a Node's traffic counters.
type Stats struct {
	Messages atomic.Int64
	Bytes    atomic.Int64
}

// ChanTransport is the in-process channel transport.
type ChanTransport struct {
	inboxes []chan Envelope
	epochs  []atomic.Int64
	closed  atomic.Bool
}

// DefaultInboxDepth is sized so that a full round of all-to-all traffic
// never blocks a sender (k representatives to m peers, with slack).
const DefaultInboxDepth = 1024

// NewChanTransport creates a transport for m peers.
func NewChanTransport(m int) *ChanTransport {
	t := &ChanTransport{
		inboxes: make([]chan Envelope, m),
		epochs:  make([]atomic.Int64, m),
	}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan Envelope, DefaultInboxDepth)
	}
	return t
}

// Send implements Transport.
func (t *ChanTransport) Send(from, to int, payload any) error {
	var epoch int
	if from >= 0 && from < len(t.epochs) {
		epoch = int(t.epochs[from].Load())
	}
	return t.SendStamped(from, to, epoch, payload)
}

// SendStamped implements Transport.
func (t *ChanTransport) SendStamped(from, to, epoch int, payload any) error {
	if t.closed.Load() {
		return fmt.Errorf("p2p: transport closed")
	}
	if to < 0 || to >= len(t.inboxes) {
		return fmt.Errorf("p2p: unknown peer %d", to)
	}
	t.inboxes[to] <- Envelope{From: from, To: to, Epoch: epoch, Payload: payload}
	return nil
}

// ResetConn implements Transport; channels cache no connection.
func (t *ChanTransport) ResetConn(int) {}

// SetEpoch implements Transport: envelopes sent by peer self are stamped
// with the given epoch from now on. Delivery-side filtering is left to the
// session layer (in-process runs share one address space, so the reused-
// address staleness the Node filter guards against cannot occur here).
func (t *ChanTransport) SetEpoch(self, epoch int) {
	if self >= 0 && self < len(t.epochs) {
		t.epochs[self].Store(int64(epoch))
	}
}

// Recv implements Transport.
func (t *ChanTransport) Recv(self int) <-chan Envelope { return t.inboxes[self] }

// Peers implements Transport.
func (t *ChanTransport) Peers() int { return len(t.inboxes) }

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.closed.Store(true)
	return nil
}

// TimeModel converts traffic into simulated wire time, mirroring the
// t_comm term of the paper's cost analysis (Sect. 4.3.3–4.3.4). The
// defaults match the paper's testbed: GigaBit ethernet, sub-millisecond
// LAN latency.
type TimeModel struct {
	// LatencyPerMsg is the fixed per-message cost.
	LatencyPerMsg time.Duration
	// BytesPerSecond is the link bandwidth.
	BytesPerSecond float64
}

// DefaultTimeModel returns the GigaBit LAN model used by the experiments.
func DefaultTimeModel() TimeModel {
	return TimeModel{LatencyPerMsg: 100 * time.Microsecond, BytesPerSecond: 125e6}
}

// CommTime returns the simulated time to move msgs messages totalling
// bytes over one link endpoint.
func (tm TimeModel) CommTime(msgs, bytes int64) time.Duration {
	if msgs <= 0 && bytes <= 0 {
		return 0
	}
	d := time.Duration(msgs) * tm.LatencyPerMsg
	if tm.BytesPerSecond > 0 {
		d += time.Duration(float64(bytes) / tm.BytesPerSecond * float64(time.Second))
	}
	return d
}
