package pkmeans

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/core"
	"xmlclust/internal/eval"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

func miniCorpus(t testing.TB, perGroup int) (*txn.Corpus, []int) {
	t.Helper()
	var trees []*xmltree.Tree
	var labels []int
	for i := 0; i < perGroup; i++ {
		doc := fmt.Sprintf(`<db><paper key="p%d">
			<writer>alice cooper</writer>
			<name>mining frequent patterns number%d</name>
			<venue>KDD</venue>
		</paper></db>`, i, i)
		tree, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
		labels = append(labels, 0)
	}
	for i := 0; i < perGroup; i++ {
		doc := fmt.Sprintf(`<db><report key="r%d">
			<editor>bob dylan</editor>
			<heading>routing wireless networks number%d</heading>
			<lab>NETLAB</lab>
		</report></db>`, i, i)
		tree, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
		labels = append(labels, 1)
	}
	corpus := txn.Build(trees, txn.BuildOptions{Labels: labels})
	weighting.Apply(corpus)
	tl := make([]int, len(corpus.Transactions))
	for i, tr := range corpus.Transactions {
		tl[i] = tr.Label
	}
	return corpus, tl
}

func runPK(t testing.TB, corpus *txn.Corpus, k, m int, seed int64) *core.Result {
	t.Helper()
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	res, err := Run(context.Background(), cx, corpus, Options{
		K: k, Params: cx.Params, Peers: m,
		Partition: core.EqualPartition(len(corpus.Transactions), m, seed),
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPKSinglePeer(t *testing.T) {
	corpus, labels := miniCorpus(t, 6)
	bestF := -1.0
	for seed := int64(1); seed <= 5; seed++ {
		res := runPK(t, corpus, 2, 1, seed)
		if res.Rounds == 0 {
			t.Fatal("did not run")
		}
		if f := eval.FMeasure(labels, res.Assign, 2); f > bestF {
			bestF = f
		}
	}
	if bestF < 0.9 {
		t.Errorf("single-peer best F = %v", bestF)
	}
}

func TestPKMultiPeerTerminates(t *testing.T) {
	corpus, labels := miniCorpus(t, 8)
	for _, m := range []int{2, 3, 5} {
		bestF := -1.0
		for seed := int64(1); seed <= 5; seed++ {
			res := runPK(t, corpus, 2, m, seed)
			if res.Rounds == 0 || res.Rounds > core.DefaultMaxRounds+1 {
				t.Fatalf("m=%d rounds = %d", m, res.Rounds)
			}
			if f := eval.FMeasure(labels, res.Assign, 2); f > bestF {
				bestF = f
			}
		}
		if bestF < 0.6 {
			t.Errorf("m=%d best F = %v", m, bestF)
		}
	}
}

func TestPKDeterministic(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	a := runPK(t, corpus, 2, 3, 7)
	b := runPK(t, corpus, 2, 3, 7)
	if a.Rounds != b.Rounds {
		t.Errorf("rounds differ: %d vs %d", a.Rounds, b.Rounds)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("assignments differ across identical runs")
		}
	}
}

// TestPKTrafficExceedsCXK verifies the defining property of the
// non-collaborative baseline: all-to-all representative exchange moves
// strictly more data than CXK's responsibility-partitioned pattern at the
// same network size (Sect. 5.5.3, Fig. 8).
func TestPKTrafficExceedsCXK(t *testing.T) {
	corpus, _ := miniCorpus(t, 10)
	m := 5
	cxPK := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	pk, err := Run(context.Background(), cxPK, corpus, Options{
		K: 2, Params: cxPK.Params, Peers: m,
		Partition: core.EqualPartition(len(corpus.Transactions), m, 3),
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cxCXK := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	cxk, err := core.Run(context.Background(), cxCXK, corpus, core.Options{
		K: 2, Params: cxCXK.Params, Peers: m,
		Partition: core.EqualPartition(len(corpus.Transactions), m, 3),
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, pkBytes := pk.TotalTraffic()
	_, cxkBytes := cxk.TotalTraffic()
	pkPerRound := float64(pkBytes) / float64(pk.Rounds)
	cxkPerRound := float64(cxkBytes) / float64(cxk.Rounds)
	if pkPerRound <= cxkPerRound {
		t.Errorf("PK per-round traffic %.0f should exceed CXK %.0f", pkPerRound, cxkPerRound)
	}
}

func TestPKValidation(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	if _, err := Run(context.Background(), cx, corpus, Options{K: 2, Peers: 0}); err == nil {
		t.Error("peers=0 should fail")
	}
	if _, err := Run(context.Background(), cx, corpus, Options{K: 0, Peers: 1}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Run(context.Background(), cx, corpus, Options{K: 2, Peers: 3, Partition: make([][]int, 2)}); err == nil {
		t.Error("partition mismatch should fail")
	}
}

func TestPKAssignmentsValid(t *testing.T) {
	corpus, _ := miniCorpus(t, 5)
	res := runPK(t, corpus, 2, 3, 4)
	if len(res.Assign) != len(corpus.Transactions) {
		t.Fatalf("assign length %d", len(res.Assign))
	}
	for i, a := range res.Assign {
		if a != cluster.TrashCluster && (a < 0 || a >= 2) {
			t.Errorf("transaction %d invalid assignment %d", i, a)
		}
	}
}

func TestPKPeerReportsConsistent(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	res := runPK(t, corpus, 2, 3, 8)
	var sent, recv int64
	for i := range res.Peers {
		for r := range res.Peers[i].SentMsgsByRound {
			sent += res.Peers[i].SentMsgsByRound[r]
			recv += res.Peers[i].RecvMsgsByRound[r]
		}
	}
	if sent != recv {
		t.Errorf("message conservation violated: sent=%d recv=%d", sent, recv)
	}
	if sent == 0 {
		t.Error("no messages recorded")
	}
}

func BenchmarkPKRunM3(b *testing.B) {
	corpus, _ := miniCorpus(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPK(b, corpus, 2, 3, int64(i))
	}
}

// TestPKWorkersEquivalence asserts the PK-means baseline inherits the
// engine's determinism guarantee: identical output for any intra-peer
// worker count.
func TestPKWorkersEquivalence(t *testing.T) {
	corpus, _ := miniCorpus(t, 8)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	run := func(workers int) *core.Result {
		res, err := Run(context.Background(), cx, corpus, Options{
			K: 2, Params: cx.Params, Peers: 3, Workers: workers,
			Partition: core.EqualPartition(len(corpus.Transactions), 3, 7),
			Seed:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{4, 0} {
		got := run(w)
		if serial.Rounds != got.Rounds {
			t.Errorf("workers=%d: rounds %d vs %d", w, serial.Rounds, got.Rounds)
		}
		for i := range serial.Assign {
			if serial.Assign[i] != got.Assign[i] {
				t.Fatalf("workers=%d: assignment %d differs", w, i)
			}
		}
		for j := range serial.Reps {
			switch {
			case serial.Reps[j] == nil && got.Reps[j] == nil:
			case serial.Reps[j] == nil || got.Reps[j] == nil:
				t.Errorf("workers=%d: rep %d nil-ness differs", w, j)
			case !serial.Reps[j].Equal(got.Reps[j]):
				t.Errorf("workers=%d: rep %d differs", w, j)
			}
		}
	}
}

// failingTransport fails exactly one Send — the failAt-th — and delivers
// every other message.
type failingTransport struct {
	p2p.Transport
	sends  atomic.Int32
	failAt int32
}

func (f *failingTransport) Send(from, to int, payload any) error {
	if f.sends.Add(1) == f.failAt {
		return errors.New("injected send failure")
	}
	return f.Transport.Send(from, to, payload)
}

// TestPKSendFailureFailsRun pins the send-error path: one lost message —
// in the seeding exchange or in a later round — must fail the whole run
// with core.ErrSend promptly, not leave the other peers waiting for it
// until the caller's context dies (this one never does).
func TestPKSendFailureFailsRun(t *testing.T) {
	corpus, _ := miniCorpus(t, 8)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	for _, failAt := range []int32{2, 9} { // round 0 ships 6 messages
		tr := &failingTransport{Transport: p2p.NewChanTransport(3, nil), failAt: failAt}
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), cx, corpus, Options{
				K: 2, Params: cx.Params, Peers: 3, Transport: tr,
				Partition: core.EqualPartition(len(corpus.Transactions), 3, 7),
				Seed:      7,
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, core.ErrSend) {
				t.Errorf("send %d failed: Run returned %v, want an error wrapping core.ErrSend", failAt, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("send %d failed: Run still blocked after 30s", failAt)
		}
		tr.Close()
	}
}

// closingTransport hands every peer one receive stream that ends when the
// transport is closed, as a network transport's does when its node shuts
// down. Sends go to the wrapped transport, which stays open so that a send
// racing the close cannot fail the run first, and are never read; listening
// is closed once a peer first asks for its stream.
type closingTransport struct {
	p2p.Transport
	recv      chan p2p.Envelope
	listening chan struct{}
	once      sync.Once
}

func (c *closingTransport) Recv(int) <-chan p2p.Envelope {
	c.once.Do(func() { close(c.listening) })
	return c.recv
}

func (c *closingTransport) Close() error {
	close(c.recv)
	return nil
}

// TestPKTransportClosedIsTyped: a receive stream that ends under a running
// PK-means peer fails the run with an error wrapping core.ErrTransportClosed,
// as it does a CXK-means session.
func TestPKTransportClosedIsTyped(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	tr := &closingTransport{Transport: p2p.NewChanTransport(2, nil),
		recv: make(chan p2p.Envelope), listening: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), cx, corpus, Options{
			K: 2, Params: cx.Params, Peers: 2, Transport: tr,
			Partition: core.EqualPartition(len(corpus.Transactions), 2, 7),
			Seed:      7,
		})
		done <- err
	}()
	<-tr.listening
	tr.Close()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrTransportClosed) {
			t.Errorf("Run returned %v, want an error wrapping core.ErrTransportClosed", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run still blocked after its transport closed")
	}
}

// TestPKRejectsMalformedFrames: a frame's own numbers are used as indices
// only after they are vetted. Each malformed RepsMsg waiting in a peer's inbox
// must fail the run with core.ErrUnexpectedMessage inside the deadline, never
// panic or allocate by what the frame claims.
func TestPKRejectsMalformedFrames(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	good := core.WireTxn{Items: corpus.Transactions[0].Items}
	// Far past it: the cases share one corpus, and a run that gets as far as
	// refining before it fails interns synthetic items into the table.
	pastTable := core.WireTxn{Items: []txn.ItemID{txn.ItemID(corpus.Items.Len() + 1<<20)}}
	msg := func(from, round, j int, w core.WireTxn) RepsMsg {
		return RepsMsg{From: from, Round: round, Reps: map[int]core.WeightedWireRep{j: {Rep: w, Weight: 1}}, Initial: round == 0}
	}
	cases := []struct {
		name string
		from int // the sender the transport reports
		msg  RepsMsg
	}{
		{"round far past MaxRounds", 1, msg(1, 1<<31, 0, good)},
		{"negative round", 1, msg(1, -1, 0, good)},
		{"sender past m", 5, msg(5, 1, 0, good)},
		{"negative sender", -1, msg(-1, 1, 0, good)},
		{"sender is not the frame's", 1, msg(0, 0, 0, good)},
		{"cluster past k", 1, msg(1, 0, 2, good)},
		{"negative cluster", 1, msg(1, 1, -1, good)},
		{"item past the table", 1, msg(1, 0, 1, pastTable)},
		{"negative item", 1, msg(1, 1, 1, core.WireTxn{Items: []txn.ItemID{-1}})},
	}
	for _, c := range cases {
		tr := p2p.NewChanTransport(2, nil)
		if err := tr.Send(c.from, 0, c.msg); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), cx, corpus, Options{
				K: 2, Params: cx.Params, Peers: 2, Transport: tr,
				Partition: core.EqualPartition(len(corpus.Transactions), 2, 7),
				Seed:      7,
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, core.ErrUnexpectedMessage) {
				t.Errorf("%s: Run returned %v, want an error wrapping core.ErrUnexpectedMessage", c.name, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: Run still blocked after 20s", c.name)
		}
		tr.Close()
	}
}
