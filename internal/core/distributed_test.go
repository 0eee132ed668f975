package core

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
)

// startNodes wires m p2p.Nodes on loopback ephemeral ports.
func startNodes(t *testing.T, m int) []*p2p.Node {
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
	nodes := make([]*p2p.Node, m)
	for i := range nodes {
		nodes[i] = p2p.NewNode(i, listeners[i], addrs, p2p.NodeOptions{})
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

// TestRunPeerNodeEquivalence is the in-process vs multi-process engine
// check: three RunPeer sessions over real TCP Nodes — each with its own
// similarity context, as three OS processes would have — must produce the
// byte-identical assignment of the in-process ChanTransport driver. One
// peer additionally runs behind a DelayTransport, so arrival-order
// assumptions across the wire are exercised too.
func TestRunPeerNodeEquivalence(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	const m, k, seed = 3, 2, 4
	baseline := runCXK(t, corpus, k, m, seed)

	nodes := startNodes(t, m)
	part := EqualPartition(len(corpus.Transactions), m, seed)
	results := make([]*PeerResult, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each "process" builds its own similarity context.
			cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
			var tr p2p.Transport = nodes[i]
			if i == 1 {
				tr = p2p.NewDelayTransport(nodes[i], 2*time.Millisecond, 99)
			}
			results[i], errs[i] = RunPeer(context.Background(), cx, corpus, Options{
				K: k, Params: cx.Params, Peers: m, Partition: part,
				Seed: seed, Transport: tr, RoundTimeout: 30 * time.Second,
			}, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := 1; i < m; i++ {
		if results[i].Global != nil {
			t.Errorf("peer %d assembled a global assignment", i)
		}
	}
	global := results[0].Global
	if global == nil {
		t.Fatal("coordinator did not assemble the global assignment")
	}
	if len(global) != len(baseline.Assign) {
		t.Fatalf("global assignment covers %d of %d", len(global), len(baseline.Assign))
	}
	for i := range global {
		if global[i] != baseline.Assign[i] {
			t.Fatalf("assignment %d differs: node run %d vs in-process %d", i, global[i], baseline.Assign[i])
		}
	}
	if results[0].Rounds != baseline.Rounds {
		t.Errorf("rounds differ: %d vs %d", results[0].Rounds, baseline.Rounds)
	}
	// Local views must agree with the assembled global assignment.
	for i := 0; i < m; i++ {
		for li, a := range results[i].Assign {
			if global[part[i][li]] != a {
				t.Fatalf("peer %d local assignment %d inconsistent", i, li)
			}
		}
	}
}

// TestRunPeerValidation covers the option checks of the distributed entry
// point.
func TestRunPeerValidation(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	base := Options{K: 2, Params: cx.Params, Peers: 2, Partition: part, Seed: 1}
	ctx := context.Background()
	if _, err := RunPeer(ctx, cx, corpus, base, 0); err == nil {
		t.Error("missing transport should fail")
	}
	tr := p2p.NewChanTransport(2, nil)
	defer tr.Close()
	withTr := base
	withTr.Transport = tr
	if _, err := RunPeer(ctx, cx, corpus, withTr, 5); err == nil {
		t.Error("peer id outside range should fail")
	}
	pk := withTr
	pk.PKMeans = true
	if _, err := RunPeer(ctx, cx, corpus, pk, 0); err == nil {
		t.Error("the PK-means policy should fail: neither the StartMsg nor a checkpoint carries it")
	}
	bad := withTr
	bad.K = 0
	if _, err := RunPeer(ctx, cx, corpus, bad, 0); err == nil {
		t.Error("k=0 should fail")
	}
	bad = withTr
	bad.Partition = part[:1]
	if _, err := RunPeer(ctx, cx, corpus, bad, 0); err == nil {
		t.Error("partition mismatch should fail")
	}
	small := p2p.NewChanTransport(1, nil)
	defer small.Close()
	bad = withTr
	bad.Transport = small
	if _, err := RunPeer(ctx, cx, corpus, bad, 0); err == nil {
		t.Error("transport size mismatch should fail")
	}
}

// TestCollectAssignmentsTimeout: the coordinator must not hang when a peer
// dies between its session end and its final report.
func TestCollectAssignmentsTimeout(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	tr := p2p.NewChanTransport(2, nil)
	defer tr.Close()
	opts := Options{Peers: 2, Partition: part, Transport: tr, RoundTimeout: 50 * time.Millisecond}
	own := make([]int, len(part[0]))
	_, err := collectAssignments(context.Background(), opts, len(corpus.Transactions), own, nil)
	if !errors.Is(err, ErrRoundDeadline) {
		t.Fatalf("want ErrRoundDeadline, got %v", err)
	}
}

// TestCollectAssignmentsMergesPartition checks the local→corpus index
// mapping through an unequal partition.
func TestCollectAssignmentsMergesPartition(t *testing.T) {
	corpus, _ := miniCorpus(t, 3)
	n := len(corpus.Transactions)
	part := UnequalPartition(n, 2, 3)
	tr := p2p.NewChanTransport(2, nil)
	defer tr.Close()
	own := make([]int, len(part[0]))
	for i := range own {
		own[i] = 0
	}
	other := make([]int, len(part[1]))
	for i := range other {
		other[i] = 1
	}
	if err := tr.Send(1, 0, AssignMsg{From: 1, Rounds: 1, Assign: other}); err != nil {
		t.Fatal(err)
	}
	opts := Options{Peers: 2, Partition: part, Transport: tr, RoundTimeout: time.Second}
	full, err := collectAssignments(context.Background(), opts, n, own, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range part[0] {
		if full[idx] != 0 {
			t.Errorf("index %d not mapped to peer 0's assignment", idx)
		}
	}
	for _, idx := range part[1] {
		if full[idx] != 1 {
			t.Errorf("index %d not mapped to peer 1's assignment", idx)
		}
	}
}
