package p2p

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkGoroutines returns a deferred leak check: the goroutine count must
// return to its starting level once the transport under test is closed.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// newNodes starts m nodes wired to each other on loopback ephemeral ports.
func newNodes(t *testing.T, m int) []*Node {
	t.Helper()
	listeners := make([]net.Listener, m)
	addrs := make([]string, m)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, m)
	for i := range nodes {
		nodes[i] = NewNode(i, listeners[i], addrs, NodeOptions{})
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

func TestNodeDelivery(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 3)
	if nodes[0].ID() != 0 || nodes[0].Peers() != 3 {
		t.Fatalf("node identity: id=%d m=%d", nodes[0].ID(), nodes[0].Peers())
	}
	if err := nodes[1].Send(1, 2, testMsg{From: 1, Body: "node wire"}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-nodes[2].Recv(2):
		if m, ok := env.Payload.(testMsg); !ok || m.Body != "node wire" || m.From != 1 {
			t.Errorf("payload = %+v", env.Payload)
		}
		if env.From != 1 || env.To != 2 {
			t.Errorf("envelope = %+v", env)
		}
		if env.Bytes <= 0 {
			t.Errorf("read path did not stamp wire size: %d", env.Bytes)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
	for _, n := range nodes {
		n.Close()
	}
}

func TestNodeRejectsForeignSender(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 2)
	if err := nodes[0].Send(1, 0, testMsg{}); err == nil {
		t.Error("node 0 must refuse to send as peer 1")
	}
	if err := nodes[0].Send(0, 5, testMsg{}); err == nil {
		t.Error("send to unknown peer should fail")
	}
	for _, n := range nodes {
		n.Close()
	}
}

func TestNodeSelfSend(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 2)
	if err := nodes[0].Send(0, 0, testMsg{Body: "self"}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-nodes[0].Recv(0):
		if env.Payload.(testMsg).Body != "self" {
			t.Error("self-send failed")
		}
		if env.Bytes <= 0 {
			t.Error("self-send not size-accounted")
		}
	case <-time.After(time.Second):
		t.Fatal("self-send not delivered")
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestNodeStatsReconcile sends traffic in every direction and asserts that
// the sender-side and receiver-side counters agree exactly: the frame size
// travels on the wire, so both ends count identical bytes.
func TestNodeStatsReconcile(t *testing.T) {
	defer checkGoroutines(t)()
	const m = 3
	nodes := newNodes(t, m)
	want := 0
	for from := 0; from < m; from++ {
		for to := 0; to < m; to++ {
			for i := 0; i < 5; i++ {
				if err := nodes[from].Send(from, to, testMsg{From: from, Body: "reconcile"}); err != nil {
					t.Fatal(err)
				}
				want++
			}
		}
	}
	// Drain every inbox (delivery also bumps the receive counters).
	got := 0
	var gotBytes int64
	for to := 0; to < m; to++ {
		for i := 0; i < 3*5; i++ {
			select {
			case env := <-nodes[to].Recv(to):
				got++
				gotBytes += env.Bytes
			case <-time.After(5 * time.Second):
				t.Fatalf("peer %d stalled after %d messages", to, i)
			}
		}
	}
	if got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
	var sentMsgs, sentBytes, recvMsgs, recvBytes int64
	for _, n := range nodes {
		sm, sb := n.SentStats()
		rm, rb := n.RecvStats()
		sentMsgs += sm
		sentBytes += sb
		recvMsgs += rm
		recvBytes += rb
	}
	if sentMsgs != int64(want) || recvMsgs != int64(want) {
		t.Errorf("message counters: sent %d recv %d want %d", sentMsgs, recvMsgs, want)
	}
	if sentBytes != recvBytes {
		t.Errorf("byte counters diverge: sent %d recv %d", sentBytes, recvBytes)
	}
	if recvBytes != gotBytes {
		t.Errorf("envelope sizes (%d) disagree with recv counter (%d)", gotBytes, recvBytes)
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestNodeDialRetry starts the receiving listener only after the sender has
// begun dialing: peers of a process cluster boot independently, so sends
// must retry until the neighbour is up.
func TestNodeDialRetry(t *testing.T) {
	defer checkGoroutines(t)()
	// Reserve an address for node 1 without listening on it yet.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := probe.Addr().String()
	probe.Close()

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), addr1}
	n0 := NewNode(0, ln0, addrs, NodeOptions{DialTimeout: 10 * time.Second})
	defer n0.Close()

	errCh := make(chan error, 1)
	go func() { errCh <- n0.Send(0, 1, testMsg{Body: "late"}) }()

	time.Sleep(150 * time.Millisecond) // let several dial attempts fail
	ln1, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Skipf("could not re-bind reserved address %s: %v", addr1, err)
	}
	n1 := NewNode(1, ln1, addrs, NodeOptions{})
	defer n1.Close()

	if err := <-errCh; err != nil {
		t.Fatalf("send did not survive late listener: %v", err)
	}
	select {
	case env := <-n1.Recv(1):
		if env.Payload.(testMsg).Body != "late" {
			t.Errorf("payload = %+v", env.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered after late start")
	}
	n0.Close()
	n1.Close()
}

func TestNodeCloseIdempotentAndWaits(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 2)
	// Generate live connections in both directions before closing.
	for i := 0; i < 10; i++ {
		if err := nodes[0].Send(0, 1, testMsg{From: i}); err != nil {
			t.Fatal(err)
		}
		if err := nodes[1].Send(1, 0, testMsg{From: i}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[0].Send(0, 1, testMsg{}); err == nil {
		t.Error("send after close should fail")
	}
}

// TestNodeConcurrentSenders exercises the per-connection write lock.
func TestNodeConcurrentSenders(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 4)
	const perSender = 25
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := nodes[s].Send(s, 3, testMsg{From: s}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for i := 0; i < 3*perSender; i++ {
		select {
		case <-nodes[3].Recv(3):
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d messages delivered", i)
		}
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestNodeManyMessagesOrdered: frames of one link arrive in send order.
func TestNodeManyMessagesOrdered(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 2)
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			if err := nodes[0].Send(0, 1, testMsg{From: i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case env := <-nodes[1].Recv(1):
			// Per-connection ordering must hold.
			if env.Payload.(testMsg).From != i {
				t.Fatalf("out of order: got %d want %d", env.Payload.(testMsg).From, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled after %d messages", i)
		}
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestNodeBidirectional: two nodes that dial each other at the same time
// both deliver.
func TestNodeBidirectional(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 2)
	var wg sync.WaitGroup
	for dir := 0; dir < 2; dir++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			to := 1 - from
			for i := 0; i < 20; i++ {
				if err := nodes[from].Send(from, to, testMsg{From: from, Body: fmt.Sprint(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(dir)
	}
	wg.Wait()
	for peer := 0; peer < 2; peer++ {
		for i := 0; i < 20; i++ {
			select {
			case <-nodes[peer].Recv(peer):
			case <-time.After(5 * time.Second):
				t.Fatalf("peer %d stalled at %d", peer, i)
			}
		}
	}
	for _, n := range nodes {
		n.Close()
	}
}

func TestListenNode(t *testing.T) {
	defer checkGoroutines(t)()
	n, err := ListenNode(0, []string{"127.0.0.1:0"}, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Addr() == "" {
		t.Error("no bound address")
	}
	n.Close()
	if _, err := ListenNode(2, []string{"127.0.0.1:0"}, NodeOptions{}); err == nil {
		t.Error("id outside table should fail")
	}
}

func TestFrameRoundtrip(t *testing.T) {
	// Sender- and receiver-side sizes must agree for every frame.
	r, w := net.Pipe()
	defer r.Close()
	defer w.Close()
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := writeFrame(w, wireFrame{From: i, To: 1, Payload: testMsg{From: i, Body: "frame"}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		f, n, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if f.From != i || f.To != 1 {
			t.Errorf("frame %d routed as %d→%d", i, f.From, f.To)
		}
		if m, ok := f.Payload.(testMsg); !ok || m.Body != "frame" {
			t.Errorf("payload = %+v", f.Payload)
		}
		want, err := frameSize(wireFrame{From: i, To: 1, Payload: testMsg{From: i, Body: "frame"}})
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("frame %d: read size %d, sender size %d", i, n, want)
		}
	}
}

// TestNodeWriteTimeout: a peer that accepts connections but never reads
// (wedged process) must fail the sender's Send once the socket buffers
// fill, instead of blocking it forever — the session's receive deadline
// cannot fire while a send is stuck in the kernel.
// restartPeer closes a node and starts a replacement on the same address,
// as a crashed-and-replaced peer process would.
func restartPeer(t *testing.T, old *Node, addrs []string) *Node {
	t.Helper()
	old.Close()
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", addrs[old.ID()])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addrs[old.ID()], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fresh := NewNode(old.ID(), ln, addrs, NodeOptions{DialTimeout: 5 * time.Second})
	t.Cleanup(func() { fresh.Close() })
	return fresh
}

func TestNodeResetConnReachesRestartedPeer(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 2)
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}

	if err := nodes[0].Send(0, 1, testMsg{Body: "warm"}); err != nil {
		t.Fatal(err)
	}
	<-nodes[1].Recv(1) // outgoing connection 0→1 is now cached

	fresh := restartPeer(t, nodes[1], addrs)
	// Without the reset, the cached connection leads to the dead process and
	// TCP swallows the first frame written to it without an error.
	nodes[0].ResetConn(1)
	if err := nodes[0].Send(0, 1, testMsg{Body: "fresh"}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-fresh.Recv(1):
		if m, ok := env.Payload.(testMsg); !ok || m.Body != "fresh" {
			t.Errorf("payload = %+v", env.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame after ResetConn never reached the restarted peer")
	}
	nodes[0].Close()
	fresh.Close()
}

func TestNodeSendRedialsDeadConnection(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 2)
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}

	if err := nodes[0].Send(0, 1, testMsg{Body: "warm"}); err != nil {
		t.Fatal(err)
	}
	<-nodes[1].Recv(1)

	fresh := restartPeer(t, nodes[1], addrs)
	// No ResetConn: the first write after the peer died may vanish silently,
	// but the write after the RST fails, which must evict the dead connection
	// and redial — so a short burst of sends reaches the replacement without
	// any out-of-band signal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("sends never recovered onto a fresh connection")
		}
		nodes[0].Send(0, 1, testMsg{Body: "ping"}) // pre-fix this fails forever
		select {
		case env := <-fresh.Recv(1):
			if m, ok := env.Payload.(testMsg); !ok || m.Body != "ping" {
				t.Fatalf("payload = %+v", env.Payload)
			}
			nodes[0].Close()
			fresh.Close()
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestNodeWriteTimeout(t *testing.T) {
	defer checkGoroutines(t)()
	// A dummy peer 1 that accepts and then ignores the connection.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	stopAccept := make(chan struct{})
	var held []net.Conn
	var heldMu sync.Mutex
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c) // keep open, never read
			heldMu.Unlock()
			select {
			case <-stopAccept:
				return
			default:
			}
		}
	}()
	defer func() {
		close(stopAccept)
		heldMu.Lock()
		for _, c := range held {
			c.Close()
		}
		heldMu.Unlock()
	}()

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), stall.Addr().String()}
	n0 := NewNode(0, ln0, addrs, NodeOptions{WriteTimeout: 200 * time.Millisecond})
	defer n0.Close()

	big := testMsg{Body: strings.Repeat("x", 1<<20)}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			t.Fatal("sends kept succeeding; write deadline never fired")
		}
		if err := n0.Send(0, 1, big); err != nil {
			t.Logf("send %d failed as expected: %v", i, err)
			break
		}
	}
	n0.Close()
}

// TestDialBackoff pins the exponential-backoff schedule: doubling from the
// base, capped at max, with full jitter in [d/2, d).
func TestDialBackoff(t *testing.T) {
	base, max := 50*time.Millisecond, 400*time.Millisecond
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond,
	}
	for attempt, w := range want {
		for trial := 0; trial < 32; trial++ {
			d := dialBackoff(base, max, attempt)
			if d < w/2 || d > w {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, w/2, w)
			}
		}
	}
}

// TestDialErrorAttempts asserts a failed dial surfaces as a typed DialError
// carrying the attempt count — recovery logic distinguishes "never
// reachable" (many attempts) from "flapped" through it.
func TestDialErrorAttempts(t *testing.T) {
	defer checkGoroutines(t)()
	// Reserve an address nobody listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	self, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(0, self, []string{self.Addr().String(), dead}, NodeOptions{
		DialTimeout:   300 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
		RetryMax:      50 * time.Millisecond,
	})
	defer n.Close()

	err = n.Send(0, 1, testMsg{From: 0, Body: "nobody home"})
	if err == nil {
		t.Fatal("send to a dead address succeeded")
	}
	var de *DialError
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not a *DialError: %v", err, err)
	}
	if de.Attempts < 2 {
		t.Errorf("expected several dial attempts within the window, got %d", de.Attempts)
	}
	if de.Peer != 1 || de.Node != 0 {
		t.Errorf("DialError identity = %+v", de)
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Errorf("attempt count missing from error text: %v", err)
	}
}

// TestNodeDropsStaleEpochFrames is the regression test for the reused-
// address staleness bug: frames stamped with an epoch older than the
// receiving node's current view must be dropped at the read loop (counted,
// not buffered), while current- and future-epoch frames and epoch-less
// control frames (EpochAny) pass.
func TestNodeDropsStaleEpochFrames(t *testing.T) {
	defer checkGoroutines(t)()
	nodes := newNodes(t, 2)
	nodes[1].SetEpoch(1, 2) // node 1 has advanced to epoch 2

	// Stale: node 0 still at epoch 1 — its frame must be dropped.
	nodes[0].SetEpoch(0, 1)
	if err := nodes[0].Send(0, 1, testMsg{From: 0, Body: "stale"}); err != nil {
		t.Fatal(err)
	}
	// Epoch-less control traffic crosses epochs.
	if err := nodes[0].SendStamped(0, 1, EpochAny, testMsg{From: 0, Body: "control"}); err != nil {
		t.Fatal(err)
	}
	// Current epoch passes.
	nodes[0].SetEpoch(0, 2)
	if err := nodes[0].Send(0, 1, testMsg{From: 0, Body: "current"}); err != nil {
		t.Fatal(err)
	}

	var got []string
	for len(got) < 2 {
		select {
		case env := <-nodes[1].Recv(1):
			got = append(got, env.Payload.(testMsg).Body)
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %v, waiting for 2 frames", got)
		}
	}
	if got[0] != "control" || got[1] != "current" {
		t.Errorf("delivered %v, want [control current]", got)
	}
	select {
	case env := <-nodes[1].Recv(1):
		t.Fatalf("stale frame delivered: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}
	if n := nodes[1].DroppedStale(); n != 1 {
		t.Errorf("DroppedStale = %d, want 1", n)
	}
	for _, n := range nodes {
		n.Close()
	}
}
