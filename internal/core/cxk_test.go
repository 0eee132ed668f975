package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/dataset"
	"xmlclust/internal/eval"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// miniCorpus builds 2·perGroup single-record documents in two well-separated
// groups and returns the corpus plus per-transaction labels.
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

func TestEqualPartitionCoversAll(t *testing.T) {
	p := EqualPartition(10, 3, 1)
	if len(p) != 3 {
		t.Fatalf("parts = %d", len(p))
	}
	seen := map[int]bool{}
	for _, part := range p {
		for _, idx := range part {
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d of 10", len(seen))
	}
	// Sizes as even as possible.
	for _, part := range p {
		if len(part) < 3 || len(part) > 4 {
			t.Errorf("part size %d", len(part))
		}
	}
}

func TestUnequalPartitionRatios(t *testing.T) {
	// m=4, n=120: first 2 peers get 2 shares (40 each), last 2 get 1 (20).
	p := UnequalPartition(120, 4, 1)
	if len(p[0]) != 40 || len(p[1]) != 40 || len(p[2]) != 20 || len(p[3]) != 20 {
		t.Errorf("sizes = %d %d %d %d", len(p[0]), len(p[1]), len(p[2]), len(p[3]))
	}
	total := 0
	for _, part := range p {
		total += len(part)
	}
	if total != 120 {
		t.Errorf("total = %d", total)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	a := EqualPartition(50, 5, 7)
	b := EqualPartition(50, 5, 7)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("sizes differ")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("content differs")
			}
		}
	}
}

func TestResponsibilityPartition(t *testing.T) {
	zs := ResponsibilityPartition(16, 5)
	if len(zs) != 5 {
		t.Fatalf("parts = %d", len(zs))
	}
	seen := map[int]bool{}
	for _, z := range zs {
		for _, j := range z {
			if seen[j] {
				t.Fatalf("cluster %d owned twice", j)
			}
			seen[j] = true
		}
	}
	if len(seen) != 16 {
		t.Fatalf("covered %d of 16 clusters", len(seen))
	}
	// More peers than clusters: some Z_i empty, all clusters covered.
	zs = ResponsibilityPartition(2, 5)
	count := 0
	for _, z := range zs {
		count += len(z)
	}
	if count != 2 {
		t.Errorf("clusters covered = %d", count)
	}
}

func runCXK(t testing.TB, corpus *txn.Corpus, k, m int, seed int64) *Result {
	return runPolicy(t, corpus, k, m, seed, false)
}

// runPolicy runs CXK-means, or the PK-means policy when pk is set.
func runPolicy(t testing.TB, corpus *txn.Corpus, k, m int, seed int64, pk bool) *Result {
	t.Helper()
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	res, err := Run(context.Background(), cx, corpus, Options{
		K: k, Params: cx.Params, Peers: m,
		Partition: EqualPartition(len(corpus.Transactions), m, seed),
		Seed:      seed, PKMeans: pk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// bestOverSeeds runs a few seeds and returns the best F-measure result —
// centroid seeding is luck-sensitive (the paper averages 10 runs); accuracy
// assertions care that the algorithm *can* separate the data.
func bestOverSeeds(t testing.TB, corpus *txn.Corpus, labels []int, k, m int, pk bool) (*Result, float64) {
	t.Helper()
	var best *Result
	bestF := -1.0
	for seed := int64(1); seed <= 5; seed++ {
		res := runPolicy(t, corpus, k, m, seed, pk)
		if f := eval.FMeasure(labels, res.Assign, k); f > bestF {
			bestF, best = f, res
		}
	}
	return best, bestF
}

// roundCap bounds a run's rounds under the default MaxRounds: PK-means
// counts its seeding round.
func roundCap(pk bool) int {
	if pk {
		return DefaultMaxRounds + 1
	}
	return DefaultMaxRounds
}

func TestSinglePeerMatchesCentralizedShape(t *testing.T) { checkSinglePeer(t, false) }

func TestPKSinglePeer(t *testing.T) { checkSinglePeer(t, true) }

func checkSinglePeer(t *testing.T, pk bool) {
	corpus, labels := miniCorpus(t, 6)
	res, f := bestOverSeeds(t, corpus, labels, 2, 1, pk)
	if res.Rounds == 0 || res.Rounds > roundCap(pk) {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	if len(res.Assign) != len(corpus.Transactions) {
		t.Fatalf("assign length %d", len(res.Assign))
	}
	if f < 0.9 {
		t.Errorf("centralized F = %v on separable data", f)
	}
	// No communication for m=1.
	msgs, bytes := res.TotalTraffic()
	if msgs != 0 || bytes != 0 {
		t.Errorf("m=1 traffic: %d msgs %d bytes", msgs, bytes)
	}
}

func TestMultiPeerTerminatesAndClusters(t *testing.T) { checkMultiPeer(t, false) }

func TestPKMultiPeerTerminates(t *testing.T) { checkMultiPeer(t, true) }

func checkMultiPeer(t *testing.T, pk bool) {
	corpus, labels := miniCorpus(t, 8)
	for _, m := range []int{2, 3, 5} {
		res, f := bestOverSeeds(t, corpus, labels, 2, m, pk)
		if res.Rounds == 0 || res.Rounds > roundCap(pk) {
			t.Fatalf("m=%d rounds = %d", m, res.Rounds)
		}
		if f < 0.6 {
			t.Errorf("m=%d F = %v too low", m, f)
		}
		msgs, bytes := res.TotalTraffic()
		if msgs == 0 || bytes == 0 {
			t.Errorf("m=%d produced no traffic", m)
		}
	}
}

func TestEveryTransactionAssignedOrTrash(t *testing.T) { checkAssignmentsValid(t, false) }

func TestPKAssignmentsValid(t *testing.T) { checkAssignmentsValid(t, true) }

func checkAssignmentsValid(t *testing.T, pk bool) {
	corpus, _ := miniCorpus(t, 5)
	res := runPolicy(t, corpus, 2, 3, 4, pk)
	if len(res.Assign) != len(corpus.Transactions) {
		t.Fatalf("assign length %d", len(res.Assign))
	}
	for i, a := range res.Assign {
		if a != cluster.TrashCluster && (a < 0 || a >= 2) {
			t.Errorf("transaction %d has invalid assignment %d", i, a)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) { checkDeterministic(t, false) }

func TestPKDeterministic(t *testing.T) { checkDeterministic(t, true) }

func checkDeterministic(t *testing.T, pk bool) {
	corpus, _ := miniCorpus(t, 6)
	a := runPolicy(t, corpus, 2, 3, 9, pk)
	b := runPolicy(t, corpus, 2, 3, 9, pk)
	if a.Rounds != b.Rounds {
		t.Errorf("rounds differ: %d vs %d", a.Rounds, b.Rounds)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment %d differs across identical runs", i)
		}
	}
}

// TestPKTrafficExceedsCXK verifies the defining property of the
// non-collaborative baseline: all-to-all representative exchange moves
// strictly more data than CXK's responsibility-partitioned pattern at the
// same network size (Sect. 5.5.3, Fig. 8).
func TestPKTrafficExceedsCXK(t *testing.T) {
	corpus, _ := miniCorpus(t, 10)
	pk, cxk := runPolicy(t, corpus, 2, 5, 3, true), runPolicy(t, corpus, 2, 5, 3, false)
	_, pkBytes := pk.TotalTraffic()
	_, cxkBytes := cxk.TotalTraffic()
	pkPerRound := float64(pkBytes) / float64(pk.Rounds)
	cxkPerRound := float64(cxkBytes) / float64(cxk.Rounds)
	if pkPerRound <= cxkPerRound {
		t.Errorf("PK per-round traffic %.0f should exceed CXK %.0f", pkPerRound, cxkPerRound)
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

// TestRunTransportClosedIsTyped: a receive stream that ends under a running
// session fails the run with an error wrapping ErrTransportClosed, under
// either policy.
func TestRunTransportClosedIsTyped(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	for _, pk := range []bool{false, true} {
		tr := &closingTransport{Transport: p2p.NewChanTransport(2, nil),
			recv: make(chan p2p.Envelope), listening: make(chan struct{})}
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), cx, corpus, Options{
				K: 2, Params: cx.Params, Peers: 2, Transport: tr, PKMeans: pk,
				Partition: EqualPartition(len(corpus.Transactions), 2, 7),
				Seed:      7,
			})
			done <- err
		}()
		<-tr.listening
		tr.Close()
		select {
		case err := <-done:
			if !errors.Is(err, ErrTransportClosed) {
				t.Errorf("pk=%v: Run returned %v, want an error wrapping ErrTransportClosed", pk, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("pk=%v: Run still blocked after its transport closed", pk)
		}
		tr.Transport.Close()
	}
}

// nthSendFailingTransport fails exactly one Send — the failAt-th — and
// delivers every other message.
type nthSendFailingTransport struct {
	p2p.Transport
	sends  atomic.Int32
	failAt int32
}

func (f *nthSendFailingTransport) Send(from, to int, payload any) error {
	if f.sends.Add(1) == f.failAt {
		return errors.New("injected send failure")
	}
	return f.Transport.Send(from, to, payload)
}

// TestPKSendFailureFailsRun pins the send-error path of a PK-means run: one
// lost message — in the seeding exchange or in a later round — must fail the
// whole run with ErrSend promptly, not leave the other peers waiting for it
// until the caller's context dies (this one never does).
func TestPKSendFailureFailsRun(t *testing.T) {
	corpus, _ := miniCorpus(t, 8)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	// Run first sends the 3 StartMsgs; the seeding round then ships 6
	// messages, sends 4 to 9.
	for _, failAt := range []int32{5, 12} {
		tr := &nthSendFailingTransport{Transport: p2p.NewChanTransport(3, nil), failAt: failAt}
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), cx, corpus, Options{
				K: 2, Params: cx.Params, Peers: 3, Transport: tr, PKMeans: true,
				Partition: EqualPartition(len(corpus.Transactions), 3, 7),
				Seed:      7,
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrSend) {
				t.Errorf("send %d failed: Run returned %v, want an error wrapping ErrSend", failAt, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("send %d failed: Run still blocked after 30s", failAt)
		}
		tr.Close()
	}
}

// TestPKRejectsMalformedFrames: a frame's own numbers are used as indices
// only after they are vetted. Each malformed frame waiting in a peer's inbox —
// the seeding round's GlobalRepsMsg or a later round's LocalRepsMsg — must
// fail a PK-means run with ErrUnexpectedMessage inside the deadline, never
// panic or allocate by what the frame claims.
func TestPKRejectsMalformedFrames(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	good := WireTxn{Items: corpus.Transactions[0].Items}
	// Far past it: the cases share one corpus, and a run that gets as far as
	// refining before it fails interns synthetic items into the table.
	pastTable := WireTxn{Items: []txn.ItemID{txn.ItemID(corpus.Items.Len() + 1<<20)}}
	msg := func(from, round, j int, w WireTxn) any {
		if round == 0 {
			return GlobalRepsMsg{From: from, Round: round, Reps: map[int]WireTxn{j: w}}
		}
		return LocalRepsMsg{From: from, Round: round, Reps: map[int]WeightedWireRep{j: {Rep: w, Weight: 1}}}
	}
	cases := []struct {
		name string
		from int // the sender the transport reports
		msg  any
	}{
		{"round far past MaxRounds", 1, msg(1, 1<<31, 0, good)},
		{"negative round", 1, msg(1, -1, 0, good)},
		{"sender past m", 5, msg(5, 1, 0, good)},
		{"negative sender", -1, msg(-1, 1, 0, good)},
		{"sender is not the frame's", 1, msg(0, 0, 0, good)},
		{"cluster past k", 1, msg(1, 0, 2, good)},
		{"negative cluster", 1, msg(1, 1, -1, good)},
		{"item past the table", 1, msg(1, 0, 1, pastTable)},
		{"negative item", 1, msg(1, 1, 1, WireTxn{Items: []txn.ItemID{-1}})},
	}
	for _, c := range cases {
		tr := p2p.NewChanTransport(2, nil)
		if err := tr.Send(c.from, 0, c.msg); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), cx, corpus, Options{
				K: 2, Params: cx.Params, Peers: 2, Transport: tr, PKMeans: true,
				Partition: EqualPartition(len(corpus.Transactions), 2, 7),
				Seed:      7,
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrUnexpectedMessage) {
				t.Errorf("%s: Run returned %v, want an error wrapping ErrUnexpectedMessage", c.name, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: Run still blocked after 20s", c.name)
		}
		tr.Close()
	}
}

func TestMorePeersThanClusters(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	res := runCXK(t, corpus, 2, 5, 5) // 5 peers, 2 clusters: some Z_i empty
	if res.Rounds == 0 {
		t.Fatal("did not run")
	}
}

func TestMorePeersThanTransactions(t *testing.T) {
	corpus, _ := miniCorpus(t, 2) // 4 transactions
	res := runCXK(t, corpus, 2, 6, 5)
	if res.Rounds == 0 {
		t.Fatal("did not run")
	}
	assigned := 0
	for _, a := range res.Assign {
		if a >= 0 {
			assigned++
		}
	}
	if assigned == 0 {
		t.Error("nothing clustered")
	}
}

func TestUnequalPartitionRun(t *testing.T) {
	corpus, labels := miniCorpus(t, 8)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	bestF := -1.0
	for seed := int64(1); seed <= 5; seed++ {
		res, err := Run(context.Background(), cx, corpus, Options{
			K: 2, Params: cx.Params, Peers: 4,
			Partition: UnequalPartition(len(corpus.Transactions), 4, seed),
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if f := eval.FMeasure(labels, res.Assign, 2); f > bestF {
			bestF = f
		}
	}
	if bestF < 0.5 {
		t.Errorf("unequal-split best F = %v", bestF)
	}
}

func TestRunOverTCPTransport(t *testing.T) {
	corpus, labels := miniCorpus(t, 5)
	bestF := -1.0
	var msgs, bytes int64
	for seed := int64(1); seed <= 5; seed++ {
		tr, err := p2p.NewTCPTransport(3)
		if err != nil {
			t.Fatal(err)
		}
		cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
		res, err := Run(context.Background(), cx, corpus, Options{
			K: 2, Params: cx.Params, Peers: 3,
			Partition: EqualPartition(len(corpus.Transactions), 3, seed),
			Seed:      seed, Transport: tr,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		if f := eval.FMeasure(labels, res.Assign, 2); f > bestF {
			bestF = f
		}
		m, b := tr.Stats()
		msgs += m
		bytes += b
		tr.Close()
	}
	if bestF < 0.5 {
		t.Errorf("TCP-run best F = %v", bestF)
	}
	if msgs == 0 || bytes == 0 {
		t.Error("no TCP traffic recorded")
	}
}

func TestRunValidation(t *testing.T) { checkRunValidation(t, false) }

func TestPKValidation(t *testing.T) { checkRunValidation(t, true) }

func checkRunValidation(t *testing.T, pk bool) {
	corpus, _ := miniCorpus(t, 2)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	if _, err := Run(context.Background(), cx, corpus, Options{K: 2, Peers: 0, PKMeans: pk}); err == nil {
		t.Error("peers=0 should fail")
	}
	if _, err := Run(context.Background(), cx, corpus, Options{K: 0, Peers: 1, PKMeans: pk}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Run(context.Background(), cx, corpus, Options{K: 2, Peers: 2, Partition: make([][]int, 1), PKMeans: pk}); err == nil {
		t.Error("partition mismatch should fail")
	}
}

func TestSimulatedTimePositive(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	res := runCXK(t, corpus, 2, 3, 8)
	st := res.SimulatedTime(p2p.DefaultTimeModel())
	if st <= 0 {
		t.Errorf("simulated time = %v", st)
	}
	// Zero model: simulated time equals per-round max compute only.
	st0 := res.SimulatedTime(p2p.TimeModel{})
	if st0 <= 0 || st0 > st {
		t.Errorf("compute-only time %v vs full %v", st0, st)
	}
}

func TestPeerReportsConsistent(t *testing.T) { checkPeerReports(t, false) }

func TestPKPeerReportsConsistent(t *testing.T) { checkPeerReports(t, true) }

func checkPeerReports(t *testing.T, pk bool) {
	corpus, _ := miniCorpus(t, 6)
	res := runPolicy(t, corpus, 2, 3, 8, pk)
	totalLocal := 0
	for i := range res.Peers {
		pr := &res.Peers[i]
		totalLocal += pr.LocalTransactions
		if len(pr.SentMsgsByRound) != len(pr.SentBytesByRound) {
			t.Errorf("peer %d slices misaligned", i)
		}
		if pr.TotalCompute() <= 0 {
			t.Errorf("peer %d no compute recorded", i)
		}
	}
	if totalLocal != len(corpus.Transactions) {
		t.Errorf("local transactions sum %d != %d", totalLocal, len(corpus.Transactions))
	}
	// Conservation: total sent messages equals total received messages.
	var sent, recv int64
	for i := range res.Peers {
		for r := range res.Peers[i].SentMsgsByRound {
			sent += res.Peers[i].SentMsgsByRound[r]
			recv += res.Peers[i].RecvMsgsByRound[r]
		}
	}
	if sent != recv || sent == 0 {
		t.Errorf("message conservation violated: sent=%d recv=%d", sent, recv)
	}
}

func TestWireRoundtrip(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := corpus.Transactions[0]
	w := toWire(corpus.Items, tr)
	back := fromWire(corpus.Items, w)
	if !tr.Equal(back) {
		t.Errorf("wire roundtrip changed transaction: %v vs %v", tr.Items, back.Items)
	}
	if fromWire(corpus.Items, toWire(corpus.Items, nil)) != nil {
		t.Error("nil roundtrip should stay nil")
	}
	// Representatives carry synthetic (conflated) items whose ids are
	// process-local: the wire form must flatten them to raw corpus ids, and
	// re-conflation on a shared table must reproduce the exact transaction.
	var all []txn.ItemID
	for _, tx := range corpus.Transactions[:2] {
		all = append(all, tx.Items...)
	}
	syn := cluster.ConflateItems(corpus.Items, all)
	ws := toWire(corpus.Items, syn)
	for _, id := range ws.Items {
		if corpus.Items.Get(id).Synthetic {
			t.Fatalf("synthetic item %d leaked onto the wire", id)
		}
	}
	backSyn := fromWire(corpus.Items, ws)
	if !syn.Equal(backSyn) {
		t.Errorf("synthetic roundtrip changed transaction: %v vs %v", syn.Items, backSyn.Items)
	}
}

func TestSizerPositive(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	s := Sizer(corpus.Items)
	msg := GlobalRepsMsg{Reps: map[int]WireTxn{0: toWire(corpus.Items, corpus.Transactions[0])}}
	if s(msg) <= 16 {
		t.Errorf("global reps size = %d", s(msg))
	}
	if s(StartMsg{K: 4}) <= 0 {
		t.Error("start msg size")
	}
	if s(LocalRepsMsg{}) <= 0 {
		t.Error("local reps size")
	}
	if s(struct{}{}) != 64 {
		t.Error("default size")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := []*txn.Transaction{txn.NewTransaction([]txn.ItemID{1, 2}, 0, 0, -1), nil}
	b := []*txn.Transaction{txn.NewTransaction([]txn.ItemID{1, 3}, 0, 0, -1), nil}
	c := []*txn.Transaction{nil, txn.NewTransaction([]txn.ItemID{1, 2}, 0, 0, -1)}
	if fingerprintReps(a) == fingerprintReps(b) {
		t.Error("different items same fingerprint")
	}
	if fingerprintReps(a) == fingerprintReps(c) {
		t.Error("different positions same fingerprint")
	}
	if fingerprintReps(a) != fingerprintReps(a) {
		t.Error("fingerprint unstable")
	}
}

func BenchmarkCXKRunM3(b *testing.B) {
	corpus, _ := miniCorpus(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCXK(b, corpus, 2, 3, int64(i))
	}
}

// TestRunUnderMessageDelays shakes out ordering assumptions: random send
// delays must change neither termination nor the result for a fixed seed
// (aggregation is per-sender slotted, so arrival order is immaterial).
func TestRunUnderMessageDelays(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	baseline := runCXK(t, corpus, 2, 3, 4)
	inner := p2p.NewChanTransport(3, Sizer(corpus.Items))
	delayed := p2p.NewDelayTransport(inner, 2*time.Millisecond, 99)
	defer delayed.Close()
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	res, err := Run(context.Background(), cx, corpus, Options{
		K: 2, Params: cx.Params, Peers: 3,
		Partition: EqualPartition(len(corpus.Transactions), 3, 4),
		Seed:      4, Transport: delayed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || res.Rounds > DefaultMaxRounds {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	for i := range res.Assign {
		if res.Assign[i] != baseline.Assign[i] {
			t.Fatalf("delays changed assignment %d: %d vs %d",
				i, res.Assign[i], baseline.Assign[i])
		}
	}
}

// ---------------------------------------------------------------- Workers

func runWorkers(t testing.TB, cx *sim.Context, corpus *txn.Corpus, k, m int, seed int64, workers int, pk bool) *Result {
	t.Helper()
	res, err := Run(context.Background(), cx, corpus, Options{
		K: k, Params: cx.Params, Peers: m, Workers: workers,
		Partition: EqualPartition(len(corpus.Transactions), m, seed),
		Seed:      seed, PKMeans: pk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertResultsEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Rounds != got.Rounds {
		t.Errorf("%s: rounds %d vs %d", label, want.Rounds, got.Rounds)
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: assignment %d differs: %d vs %d", label, i, want.Assign[i], got.Assign[i])
		}
	}
	if len(want.Reps) != len(got.Reps) {
		t.Fatalf("%s: rep count %d vs %d", label, len(want.Reps), len(got.Reps))
	}
	for j := range want.Reps {
		switch {
		case want.Reps[j] == nil && got.Reps[j] == nil:
		case want.Reps[j] == nil || got.Reps[j] == nil:
			t.Errorf("%s: rep %d nil-ness differs", label, j)
		case !want.Reps[j].Equal(got.Reps[j]):
			t.Errorf("%s: rep %d differs", label, j)
		}
	}
}

// TestRunWorkersEquivalence asserts that the session produces byte-identical
// results for any intra-peer worker count, across network sizes and several
// synthetic corpora; TestPKWorkersEquivalence asserts it under PK-means.
func TestRunWorkersEquivalence(t *testing.T) { checkWorkersEquivalence(t, false) }

func TestPKWorkersEquivalence(t *testing.T) { checkWorkersEquivalence(t, true) }

func checkWorkersEquivalence(t *testing.T, pk bool) {
	type corpusCase struct {
		name   string
		corpus *txn.Corpus
		k      int
	}
	mini, _ := miniCorpus(t, 8)
	cases := []corpusCase{{"two-topic", mini, 2}}
	for _, ds := range []struct {
		name string
		docs int
	}{{"DBLP", 20}, {"IEEE", 6}} {
		gen, ok := dataset.ByName(ds.name)
		if !ok {
			t.Fatalf("unknown dataset %q", ds.name)
		}
		col := gen(dataset.Spec{Docs: ds.docs, Seed: 99})
		cases = append(cases, corpusCase{ds.name, col.BuildCorpus(dataset.ByHybrid, 24, 1), col.K(dataset.ByHybrid)})
	}
	for _, c := range cases {
		cx := sim.NewContext(c.corpus, sim.Params{F: 0.5, Gamma: 0.7})
		for _, m := range []int{1, 3} {
			serial := runWorkers(t, cx, c.corpus, c.k, m, 9, 1, pk)
			for _, w := range []int{4, 0} {
				got := runWorkers(t, cx, c.corpus, c.k, m, 9, w, pk)
				assertResultsEqual(t, fmt.Sprintf("%s m=%d workers=%d", c.name, m, w), serial, got)
			}
		}
	}
}

var fingerprintSink uint64

// BenchmarkPartitionFingerprint times the corpus digest every process of a
// run computes once (NewStartMsg), on a 500-document DBLP corpus split over
// three peers.
func BenchmarkPartitionFingerprint(b *testing.B) {
	gen, _ := dataset.ByName("DBLP")
	corpus := gen(dataset.Spec{Docs: 500, Seed: 1}).BuildCorpus(dataset.ByHybrid, 8, 1)
	part := EqualPartition(len(corpus.Transactions), 3, 1)
	refs := 0
	for _, tr := range corpus.Transactions {
		refs += len(tr.Items)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = PartitionFingerprint(corpus, part)
	}
	b.ReportMetric(float64(len(corpus.Transactions)), "txns")
	b.ReportMetric(float64(refs), "item-refs")
}
