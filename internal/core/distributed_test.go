package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// runPeer runs RunPeer with the StartMsg its options imply, as every
// process of a deployment computes it.
func runPeer(ctx context.Context, cx *sim.Context, corpus *txn.Corpus, opts Options, id int) (*PeerResult, error) {
	return RunPeer(ctx, cx, corpus, opts, NewStartMsg(cx, corpus, opts), id)
}

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
// byte-identical assignment of the in-process driver, Run. One
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
			results[i], errs[i] = runPeer(context.Background(), cx, corpus, Options{
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
	if _, err := runPeer(ctx, cx, corpus, base, 0); err == nil {
		t.Error("missing transport should fail")
	}
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	withTr := base
	withTr.Transport = tr
	if _, err := runPeer(ctx, cx, corpus, withTr, 5); err == nil {
		t.Error("peer id outside range should fail")
	}
	pk := withTr
	pk.PKMeans = true
	if _, err := runPeer(ctx, cx, corpus, pk, 0); err == nil {
		t.Error("the PK-means policy should fail: neither the StartMsg nor a checkpoint carries it")
	}
	bad := withTr
	bad.K = 0
	if _, err := runPeer(ctx, cx, corpus, bad, 0); err == nil {
		t.Error("k=0 should fail")
	}
	bad = withTr
	bad.Partition = part[:1]
	if _, err := runPeer(ctx, cx, corpus, bad, 0); err == nil {
		t.Error("partition mismatch should fail")
	}
	small := p2p.NewChanTransport(1)
	defer small.Close()
	bad = withTr
	bad.Transport = small
	if _, err := runPeer(ctx, cx, corpus, bad, 0); err == nil {
		t.Error("transport size mismatch should fail")
	}
}

// TestCollectAssignmentsTimeout: the coordinator must not hang when a peer
// dies between its session end and its final report.
func TestCollectAssignmentsTimeout(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	tr := p2p.NewChanTransport(2)
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
	tr := p2p.NewChanTransport(2)
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

// twinCorpora builds two corpora of one shape: the same documents with every
// answer spelled backwards in the second. The reversal is injective, so
// items intern in the same first-seen order — the transactions, item ids and
// tag paths agree position by position — while every answer differs.
func twinCorpora(t *testing.T, docs int) (*txn.Corpus, *txn.Corpus) {
	t.Helper()
	reverse := func(s string) string {
		r := []rune(s)
		slices.Reverse(r)
		return string(r)
	}
	build := func(word func(string) string) *txn.Corpus {
		var trees []*xmltree.Tree
		for i := 0; i < docs; i++ {
			doc := fmt.Sprintf(`<db><paper key="%s"><writer>%s</writer><name>%s</name></paper></db>`,
				word(fmt.Sprintf("p%d", i)), word([]string{"alice cooper", "bob dylan"}[i%2]),
				word(fmt.Sprintf("mining patterns number%d", i%3)))
			tree, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tree)
		}
		c := txn.Build(trees, txn.BuildOptions{})
		weighting.Apply(c)
		return c
	}
	a, b := build(func(s string) string { return s }), build(reverse)
	if len(a.Transactions) != len(b.Transactions) || a.Items.Len() != b.Items.Len() {
		t.Fatalf("twins differ in shape: %d/%d transactions, %d/%d items",
			len(a.Transactions), len(b.Transactions), a.Items.Len(), b.Items.Len())
	}
	for i, tr := range a.Transactions {
		if !slices.Equal(tr.Items, b.Transactions[i].Items) {
			t.Fatalf("transaction %d: item ids differ between twins", i)
		}
	}
	for id := 0; id < a.Items.Len(); id++ {
		ia, ib := a.Items.Get(txn.ItemID(id)), b.Items.Get(txn.ItemID(id))
		if ia.TagPath != ib.TagPath || ia.Path != ib.Path {
			t.Fatalf("item %d: paths differ between twins", id)
		}
		if ia.Answer == ib.Answer || ib.Answer != reverse(ia.Answer) {
			t.Fatalf("item %d: answers %q and %q are not reversed twins", id, ia.Answer, ib.Answer)
		}
	}
	return a, b
}

// TestRunPeerDivergentAnswersFails: peers exchange representatives, never
// data, so the StartMsg digest is the only thing that tells a peer it loaded
// other text than the coordinator. Two corpora with identical transactions,
// item ids and tag paths but different answers must not cluster together:
// the non-coordinator fails at startup with ErrConfigMismatch.
func TestRunPeerDivergentAnswersFails(t *testing.T) {
	mine, theirs := twinCorpora(t, 8)
	if PartitionFingerprint(mine, [][]int{{0, 1}}) == PartitionFingerprint(theirs, [][]int{{0, 1}}) {
		t.Fatal("the digest does not see answer text")
	}
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	part := EqualPartition(len(mine.Transactions), 2, 1)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for id, corpus := range []*txn.Corpus{mine, theirs} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
			_, errs[id] = runPeer(ctx, cx, corpus, Options{
				K: 2, Params: cx.Params, Peers: 2, Partition: part, Seed: 1,
				Transport: tr, RoundTimeout: 10 * time.Second,
			}, id)
			if id == 1 {
				cancel() // the coordinator would wait for peer 1 until its deadline
			}
		}()
	}
	wg.Wait()
	if !errors.Is(errs[1], ErrConfigMismatch) {
		t.Fatalf("peer on the divergent corpus: want ErrConfigMismatch, got %v", errs[1])
	}
	var se *SessionError
	if !errors.As(errs[1], &se) || se.Phase != PhaseStartup {
		t.Errorf("mismatch not attributed to startup: %v", errs[1])
	}
	if errs[0] == nil {
		t.Error("the coordinator produced a result with a divergent peer")
	}
}
