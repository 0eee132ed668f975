package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/dataset"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

func runCXKDelta(t testing.TB, cx *sim.Context, corpus *txn.Corpus, k, m int, seed int64, workers int, fast bool) *Result {
	t.Helper()
	res, err := Run(context.Background(), cx, corpus, Options{
		K: k, Params: cx.Params, Peers: m, Workers: workers,
		Partition: EqualPartition(len(corpus.Transactions), m, seed),
		Seed:      seed,
		Fast:      fast,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunDeltaEquivalence asserts the collaborative engine produces
// byte-identical results — assignments, rounds AND representative item
// sequences — on the fast and on the reference engine, across network sizes,
// worker counts and several corpora. This is the session-level byte-identity
// gate (posting-list scoring and the local-representative memo run in the
// fast configuration here).
func TestRunDeltaEquivalence(t *testing.T) {
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
			plain := runCXKDelta(t, cx, c.corpus, c.k, m, 9, 1, false)
			for _, workers := range []int{1, 4} {
				got := runCXKDelta(t, cx, c.corpus, c.k, m, 9, workers, true)
				assertResultsEqual(t, fmt.Sprintf("%s m=%d workers=%d fast", c.name, m, workers), plain, got)
			}
		}
	}
}

// TestRunDeltaCountersAndTraffic pins the observable effects of the engine
// choice on a multi-peer run: a reference run moves no fast-engine counter,
// a fast run reuses memoized representatives, and the two put exactly the
// same modeled traffic on the wire, round by round and peer by peer.
func TestRunDeltaCountersAndTraffic(t *testing.T) {
	gen, _ := dataset.ByName("DBLP")
	col := gen(dataset.Spec{Docs: 20, Seed: 99})
	corpus := col.BuildCorpus(dataset.ByHybrid, 24, 1)
	k := col.K(dataset.ByHybrid)

	cxOff := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.7})
	off := runCXKDelta(t, cxOff, corpus, k, 3, 9, 1, false)
	if d := cxOff.Counters.Snapshot(); d != (sim.CounterSnapshot{}) {
		t.Fatalf("reference run moved the fast engine's counters: %+v", d)
	}

	cxOn := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.7})
	on := runCXKDelta(t, cxOn, corpus, k, 3, 9, 1, true)
	assertResultsEqual(t, "counters run", off, on)
	if on.Rounds < 3 {
		t.Skipf("run converged in %d rounds; too short to exercise the memo", on.Rounds)
	}
	if v := cxOn.Counters.RepsReused.Load(); v == 0 {
		t.Error("RepsReused did not move on a multi-round fast run")
	}
	for i := range off.Peers {
		assertTrafficEqual(t, fmt.Sprintf("peer %d", i), off.Peers[i], on.Peers[i])
	}
}

// assertTrafficEqual requires two peer reports to agree on every per-round
// message and modeled byte count, sent and received.
func assertTrafficEqual(t *testing.T, label string, want, got PeerReport) {
	t.Helper()
	if !slices.Equal(want.SentMsgsByRound, got.SentMsgsByRound) || !slices.Equal(want.RecvMsgsByRound, got.RecvMsgsByRound) {
		t.Errorf("%s: message counts differ: sent %v / recv %v vs sent %v / recv %v", label,
			want.SentMsgsByRound, want.RecvMsgsByRound, got.SentMsgsByRound, got.RecvMsgsByRound)
	}
	if !slices.Equal(want.SentBytesByRound, got.SentBytesByRound) || !slices.Equal(want.RecvBytesByRound, got.RecvBytesByRound) {
		t.Errorf("%s: modeled bytes differ: sent %v / recv %v vs sent %v / recv %v", label,
			want.SentBytesByRound, want.RecvBytesByRound, got.SentBytesByRound, got.RecvBytesByRound)
	}
}

// runFleet runs one RunPeer per entry of fast over the shared transport, each
// on a similarity context of its own as separate processes would have, and
// returns the per-peer results.
func runFleet(t *testing.T, tr p2p.Transport, corpus *txn.Corpus, k int, seed int64, fast []bool) []*PeerResult {
	t.Helper()
	m := len(fast)
	part := EqualPartition(len(corpus.Transactions), m, seed)
	results := make([]*PeerResult, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for id := range fast {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.7})
			results[id], errs[id] = runPeer(context.Background(), cx, corpus, Options{
				K: k, Params: cx.Params, Peers: m, Partition: part,
				Seed: seed, Transport: tr, RoundTimeout: 30 * time.Second,
				Fast: fast[id],
			}, id)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("fleet %v: peer %d: %v", fast, id, err)
		}
	}
	return results
}

// TestRunMixedEnginesIdentical is the wire-level equivalence gate: the engine
// is a peer's own business, so fleets of three that mix fast and reference
// peers must equal the all-fast and the all-reference fleet in assignment,
// rounds, representatives and traffic — modeled per peer and round, and over
// TCP the actual encoded bytes too.
func TestRunMixedEnginesIdentical(t *testing.T) {
	gen, _ := dataset.ByName("DBLP")
	col := gen(dataset.Spec{Docs: 20, Seed: 99})
	corpus := col.BuildCorpus(dataset.ByHybrid, 24, 1)
	k := col.K(dataset.ByHybrid)
	fleets := [][]bool{{false, false, false}, {true, true, true}, {true, false, true}, {false, true, false}}
	for _, tcp := range []bool{false, true} {
		var want []*PeerResult
		var wantMsgs, wantBytes int64
		for _, fast := range fleets {
			label := fmt.Sprintf("tcp %v fleet %v", tcp, fast)
			var tr p2p.Transport
			stats := func() (int64, int64) { return 0, 0 }
			if tcp {
				tt, err := p2p.NewTCPTransport(len(fast))
				if err != nil {
					t.Fatal(err)
				}
				tr, stats = tt, tt.Stats
			} else {
				tr = p2p.NewChanTransport(len(fast), Sizer(corpus.Items))
			}
			got := runFleet(t, tr, corpus, k, 9, fast)
			msgs, bytes := stats()
			tr.Close()
			if want == nil {
				if got[0].Rounds < 3 {
					t.Fatalf("%s: converged in %d rounds; too short to tell the engines apart", label, got[0].Rounds)
				}
				want, wantMsgs, wantBytes = got, msgs, bytes
				continue
			}
			if !slices.Equal(got[0].Global, want[0].Global) {
				t.Errorf("%s: corpus-wide assignment differs from the all-reference fleet", label)
			}
			if msgs != wantMsgs || bytes != wantBytes {
				t.Errorf("%s: %d frames / %d actual bytes, all-reference fleet %d / %d", label, msgs, bytes, wantMsgs, wantBytes)
			}
			for id := range got {
				if got[id].Rounds != want[id].Rounds {
					t.Errorf("%s: peer %d ran %d rounds, reference %d", label, id, got[id].Rounds, want[id].Rounds)
				}
				if g, w := RepsDigest(corpus.Items, got[id].Reps), RepsDigest(corpus.Items, want[id].Reps); g != w {
					t.Errorf("%s: peer %d representatives digest %x, reference %x", label, id, g, w)
				}
				assertTrafficEqual(t, fmt.Sprintf("%s peer %d", label, id), want[id].Report, got[id].Report)
			}
		}
	}
}

// TestReferenceSessionRelocatesOncePerRound pins one pass per round where it
// is visible: a reference session runs the dense kernel for relocation exactly
// once per (document, non-empty representative) in every round. The
// refinement's own kernel calls in the same compute section are counted by
// replaying it on a second engine and context.
func TestReferenceSessionRelocatesOncePerRound(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	tr := p2p.NewChanTransport(1, nil)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 7)
	p := testPeer(corpus, tr, 0, part, nil)
	cx := p.cfg.Ctx
	st := newStepper(p, p.cfg.Transport.Peers())
	s := st.s
	if err := tr.Send(0, 0, startMsgFor(2, 1)); err != nil {
		t.Fatal(err)
	}
	cx2 := sim.NewContext(corpus, cx.Params)
	replay := cluster.NewRounds(cluster.RepConfig{Ctx: cx2, Workers: 1}, p.cfg.Local, false)
	rounds := 0
	for s.phase != PhaseDone {
		if s.phase != PhaseRelocate {
			st.phase(t)
			continue
		}
		rounds++
		nonEmpty := 0
		for _, g := range s.global {
			if g != nil && g.Len() > 0 {
				nonEmpty++
			}
		}
		before := cx.Counters.TxnSims.Load()
		st.phase(t)
		got := cx.Counters.TxnSims.Load() - before
		if _, err := replay.Assign(nil, s.global); err != nil {
			t.Fatal(err)
		}
		refine := cx2.Counters.TxnSims.Load()
		replay.LocalReps(s.assign)
		refine = cx2.Counters.TxnSims.Load() - refine
		if want := int64(len(p.cfg.Local)*nonEmpty) + refine; got != want {
			t.Errorf("round %d: relocate phase made %d kernel calls, want %d documents × %d representatives + %d of the refinement = %d",
				rounds, got, len(p.cfg.Local), nonEmpty, refine, want)
		}
	}
	if rounds < 2 {
		t.Fatalf("session ended after %d rounds; too short to pin the per-round count", rounds)
	}
}
