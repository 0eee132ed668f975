package p2p

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Default Node tunables.
const (
	// DefaultDialTimeout bounds how long a Node retries dialing a peer
	// whose listener is not up yet (peer processes boot independently).
	DefaultDialTimeout = 30 * time.Second
	// DefaultDialRetry is the initial pause between dial attempts; the
	// pause grows exponentially (with jitter) up to DefaultDialRetryMax.
	DefaultDialRetry = 50 * time.Millisecond
	// DefaultDialRetryMax caps the exponential dial backoff.
	DefaultDialRetryMax = 2 * time.Second
	// DefaultWriteTimeout bounds one frame write. A peer that stops
	// reading (wedged process, full socket buffers) would otherwise block
	// the sender forever — the session's RoundTimeout only covers
	// receives, not a send stuck in the kernel.
	DefaultWriteTimeout = 30 * time.Second
)

// NodeOptions tunes a single Node.
type NodeOptions struct {
	// DialTimeout bounds how long Send waits for a peer's listener to come
	// up; dials are retried until the deadline (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// RetryInterval is the initial pause between dial attempts
	// (0 = DefaultDialRetry). Successive attempts back off exponentially
	// with full jitter — interval·2^n scaled by a random factor in
	// [0.5, 1.0) — so a cluster of peers hammering one dead listener does
	// not synchronize into retry storms.
	RetryInterval time.Duration
	// RetryMax caps the exponential backoff between dial attempts
	// (0 = DefaultDialRetryMax).
	RetryMax time.Duration
	// WriteTimeout bounds each frame write (0 = DefaultWriteTimeout,
	// negative = none). A timed-out write fails the Send, which fails the
	// sending session instead of hanging it.
	WriteTimeout time.Duration
	// InboxDepth sizes the receive buffer (0 = DefaultInboxDepth).
	InboxDepth int
}

// DialError reports a failed (retried) dial to a peer. Attempts lets
// recovery logic distinguish a peer that was never reachable (many attempts
// over the whole window) from one that flapped midway (few attempts before
// an unrelated failure); it travels in the error string too, so wrapped
// errors keep the context.
type DialError struct {
	// Node is the dialing peer, Peer the dialed one.
	Node, Peer int
	// Addr is the dialed address.
	Addr string
	// Attempts is the number of dial attempts made before giving up.
	Attempts int
	// Elapsed is the total time spent retrying.
	Elapsed time.Duration
	// Err is the last dial error.
	Err error
}

// Error implements error.
func (e *DialError) Error() string {
	return fmt.Sprintf("p2p: node %d: dial peer %d (%s): %d attempts over %v: %v",
		e.Node, e.Peer, e.Addr, e.Attempts, e.Elapsed.Round(time.Millisecond), e.Err)
}

// Unwrap exposes the last dial error.
func (e *DialError) Unwrap() error { return e.Err }

// Node is the single-peer TCP transport: one process hosts exactly one peer.
// It listens on one address, dials the other peers through a peer-id→address
// table, and opens every outgoing connection with a gob handshake carrying
// its peer id. Frames travel length-prefixed, so the receive side stamps
// Envelope.Bytes with the actual wire size.
//
// Node implements Transport for its own id only: Send requires from == ID()
// and Recv must be called with self == ID(). In-process deployments that
// need all m peers in one struct use ChanTransport or the TCPTransport
// adapter (m Nodes behind the old interface).
type Node struct {
	id    int
	addrs []string
	ln    net.Listener
	inbox chan Envelope
	opts  NodeOptions

	sent Stats
	recv Stats

	// epoch is the membership epoch stamped on outgoing frames; incoming
	// frames with a strictly older (non-EpochAny) epoch are dropped at the
	// read loop and counted in droppedStale — a restarted peer on a reused
	// address must never deliver traffic from the view it crashed out of.
	epoch        atomic.Int64
	droppedStale atomic.Int64

	mu       sync.Mutex
	dialed   map[int]*nodeConn
	accepted map[net.Conn]struct{}
	closed   atomic.Bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// nodeConn serializes frame writes on one outgoing connection.
type nodeConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// ListenNode starts a Node for peer id listening on addrs[id].
func ListenNode(id int, addrs []string, opts NodeOptions) (*Node, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("p2p: node id %d outside peer table of %d", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("p2p: node %d listen %s: %w", id, addrs[id], err)
	}
	return NewNode(id, ln, addrs, opts), nil
}

// NewNode starts a Node for peer id on an existing listener. addrs is the
// peer-id→address table used for outgoing dials; addrs[id] is informational
// (the listener may be bound to a different interface or an ephemeral port).
func NewNode(id int, ln net.Listener, addrs []string, opts NodeOptions) *Node {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = DefaultDialTimeout
	}
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = DefaultDialRetry
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = DefaultDialRetryMax
	}
	if opts.RetryMax < opts.RetryInterval {
		opts.RetryMax = opts.RetryInterval
	}
	if opts.WriteTimeout == 0 {
		opts.WriteTimeout = DefaultWriteTimeout
	}
	if opts.InboxDepth <= 0 {
		opts.InboxDepth = DefaultInboxDepth
	}
	n := &Node{
		id:       id,
		addrs:    append([]string(nil), addrs...),
		ln:       ln,
		inbox:    make(chan Envelope, opts.InboxDepth),
		opts:     opts,
		dialed:   map[int]*nodeConn{},
		accepted: map[net.Conn]struct{}{},
		done:     make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n
}

// ID returns this node's peer id.
func (n *Node) ID() int { return n.id }

// Addr returns the bound listen address (useful with ephemeral ports).
func (n *Node) Addr() string { return n.ln.Addr().String() }

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed.Load() {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
	}()
	// Handshake: the first frame must identify the dialing peer and be
	// addressed to this node. A violation means a mis-wired peer table;
	// drop the connection.
	f, _, err := readFrame(conn)
	if err != nil {
		return
	}
	h, ok := f.Payload.(hello)
	if !ok || h.From < 0 || h.From >= len(n.addrs) || f.To != n.id {
		return
	}
	for {
		f, sz, err := readFrame(conn)
		if err != nil {
			return
		}
		if f.To != n.id {
			continue // misrouted frame; drop
		}
		if f.Epoch != EpochAny && int64(f.Epoch) < n.epoch.Load() {
			// Straggler from a superseded membership view (e.g. a frame
			// addressed to the peer that previously held this address).
			// Delivering it would park it in a session reorder buffer
			// forever; drop it deterministically instead.
			n.droppedStale.Add(1)
			continue
		}
		// Counted before delivery, so a receiver that reads RecvStats right
		// after taking the envelope already sees it.
		n.recv.Messages.Add(1)
		n.recv.Bytes.Add(sz)
		select {
		case n.inbox <- Envelope{From: f.From, To: f.To, Epoch: f.Epoch, Bytes: sz, Payload: f.Payload}:
		case <-n.done:
			return
		}
	}
}

// Send implements Transport. from must equal the node's own id; sending to
// self is delivered through the local inbox with the same size accounting a
// wire round-trip would produce. Frames are stamped with the node's current
// membership epoch (see SetEpoch).
func (n *Node) Send(from, to int, payload any) error {
	return n.SendStamped(from, to, int(n.epoch.Load()), payload)
}

// SendStamped sends a payload with an explicit epoch stamp. Membership
// control traffic (join requests, suspicion reports) uses EpochAny so it
// crosses epoch boundaries; everything else goes through Send, which stamps
// the current epoch.
func (n *Node) SendStamped(from, to, epoch int, payload any) error {
	if n.closed.Load() {
		return errors.New("p2p: node closed")
	}
	if from != n.id {
		return fmt.Errorf("p2p: node %d cannot send as peer %d", n.id, from)
	}
	if to < 0 || to >= len(n.addrs) {
		return fmt.Errorf("p2p: unknown peer %d", to)
	}
	f := wireFrame{From: from, To: to, Epoch: epoch, Payload: payload}
	if to == n.id {
		sz, err := frameSize(f)
		if err != nil {
			return err
		}
		select {
		case n.inbox <- Envelope{From: from, To: to, Epoch: epoch, Bytes: sz, Payload: payload}:
		case <-n.done:
			return errors.New("p2p: node closed")
		}
		n.sent.Messages.Add(1)
		n.sent.Bytes.Add(sz)
		n.recv.Messages.Add(1)
		n.recv.Bytes.Add(sz)
		return nil
	}
	sz, err := n.writeTo(to, f)
	if err != nil {
		// A cached connection whose peer died fails on write (the remote
		// RST surfaces here, one frame late). Evict it and retry once over
		// a fresh dial: the slot may already be occupied by a replacement
		// process listening on the same address. A write *timeout* is not
		// retried — the peer stopped reading, and a fresh connection would
		// only mask the stall behind empty socket buffers.
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return fmt.Errorf("p2p: node %d send to %d: %w", n.id, to, err)
		}
		n.ResetConn(to)
		if sz, err = n.writeTo(to, f); err != nil {
			return fmt.Errorf("p2p: node %d send to %d: %w", n.id, to, err)
		}
	}
	n.sent.Messages.Add(1)
	n.sent.Bytes.Add(sz)
	return nil
}

// writeTo writes one frame on the (lazily dialed) connection to a peer.
func (n *Node) writeTo(to int, f wireFrame) (int64, error) {
	pc, err := n.connTo(to)
	if err != nil {
		return 0, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if n.opts.WriteTimeout > 0 {
		pc.conn.SetWriteDeadline(time.Now().Add(n.opts.WriteTimeout))
	}
	return writeFrame(pc.conn, f)
}

// ResetConn drops the cached outgoing connection to a peer, forcing the next
// send to dial fresh. Recovery logic calls this when it learns a peer slot is
// now occupied by a different process on the same address: writes on the old
// connection would otherwise disappear into the dead socket — TCP reports
// the failure only on the write after the remote RST, so the first frame is
// lost silently rather than erroring.
func (n *Node) ResetConn(to int) {
	n.mu.Lock()
	pc, ok := n.dialed[to]
	if ok {
		delete(n.dialed, to)
	}
	n.mu.Unlock()
	if ok {
		pc.conn.Close()
	}
}

// connTo returns the (lazily dialed) outgoing connection to a peer. Dials
// are retried with capped, jittered exponential backoff until DialTimeout
// because peer processes start independently and a neighbour's listener may
// not be up yet; a flapping listener is retried the same way.
func (n *Node) connTo(to int) (*nodeConn, error) {
	n.mu.Lock()
	if pc, ok := n.dialed[to]; ok {
		n.mu.Unlock()
		return pc, nil
	}
	n.mu.Unlock()

	t0 := time.Now()
	deadline := t0.Add(n.opts.DialTimeout)
	var conn net.Conn
	attempts := 0
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, &DialError{
				Node: n.id, Peer: to, Addr: n.addrs[to],
				Attempts: attempts, Elapsed: time.Since(t0),
				Err: fmt.Errorf("timed out after %v", n.opts.DialTimeout),
			}
		}
		var err error
		conn, err = net.DialTimeout("tcp", n.addrs[to], remaining)
		attempts++
		if err == nil {
			break
		}
		select {
		case <-n.done:
			return nil, &DialError{
				Node: n.id, Peer: to, Addr: n.addrs[to],
				Attempts: attempts, Elapsed: time.Since(t0),
				Err: errors.New("node closed while retrying"),
			}
		case <-time.After(dialBackoff(n.opts.RetryInterval, n.opts.RetryMax, attempts-1)):
		}
	}
	// Handshake first, so the acceptor can attribute the connection before
	// any payload frame arrives. Handshake traffic stays out of the stats
	// on both sides.
	if n.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(n.opts.WriteTimeout))
	}
	if _, err := writeFrame(conn, wireFrame{From: n.id, To: to, Payload: hello{From: n.id}}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("p2p: node %d handshake with %d: %w", n.id, to, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		conn.Close()
		return nil, errors.New("p2p: node closed")
	}
	if pc, ok := n.dialed[to]; ok { // lost a concurrent dial race
		conn.Close()
		return pc, nil
	}
	pc := &nodeConn{conn: conn}
	n.dialed[to] = pc
	return pc, nil
}

// dialBackoff returns the pause before retrying a dial that has already
// failed attempt+1 times: base·2^attempt capped at max, scaled by a random
// factor in [0.5, 1.0) (full jitter keeps a fleet of dialers from
// synchronizing into retry storms against one recovering listener).
func dialBackoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// SetEpoch implements EpochSetter for the node's own peer: outgoing frames
// are stamped with the epoch and incoming frames with a strictly older
// (non-EpochAny) epoch are dropped at the read loop. self must be the
// node's own id.
func (n *Node) SetEpoch(self, epoch int) {
	if self != n.id {
		panic(fmt.Sprintf("p2p: node %d asked to set peer %d's epoch", n.id, self))
	}
	n.epoch.Store(int64(epoch))
}

// Epoch returns the node's current membership epoch.
func (n *Node) Epoch() int { return int(n.epoch.Load()) }

// DroppedStale returns the number of frames the read loop rejected because
// their epoch predated the node's current one.
func (n *Node) DroppedStale() int64 { return n.droppedStale.Load() }

// Recv implements Transport; self must be the node's own id.
func (n *Node) Recv(self int) <-chan Envelope {
	if self != n.id {
		panic(fmt.Sprintf("p2p: node %d asked for peer %d's inbox", n.id, self))
	}
	return n.inbox
}

// Peers implements Transport.
func (n *Node) Peers() int { return len(n.addrs) }

// Close shuts the listener and all connections down and waits for the
// accept/read goroutines to exit. Idempotent.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	close(n.done)
	n.ln.Close()
	n.mu.Lock()
	for _, pc := range n.dialed {
		pc.conn.Close()
	}
	for conn := range n.accepted {
		conn.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

// SentStats returns the messages/bytes this node put on the wire.
func (n *Node) SentStats() (msgs, bytes int64) {
	return n.sent.Messages.Load(), n.sent.Bytes.Load()
}

// RecvStats returns the messages/bytes this node delivered from the wire.
func (n *Node) RecvStats() (msgs, bytes int64) {
	return n.recv.Messages.Load(), n.recv.Bytes.Load()
}
