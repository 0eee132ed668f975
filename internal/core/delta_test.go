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

// TestRunDeltaEquivalence asserts the collaborative engine produces
// the same results — assignments and rounds, and representatives by
// content — on the fast and on the reference engine, across network sizes,
// worker counts and several corpora. This is the session-level byte-identity
// gate (posting-list scoring and the local-representative memo run in the
// fast configuration here).
func TestRunDeltaEquivalence(t *testing.T) {
	for _, c := range equivalenceCases(t) {
		cx := sim.NewContext(c.corpus, sim.Params{F: 0.5, Gamma: 0.7})
		for _, m := range []int{1, 3} {
			plain := runJob(t, cx, c.corpus, c.k, m, 1, false, false)
			for _, workers := range []int{1, 4} {
				got := runJob(t, cx, c.corpus, c.k, m, workers, false, true)
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
	off := runJob(t, cxOff, corpus, k, 3, 1, false, false)
	if d := cxOff.Counters.Snapshot(); d != (sim.CounterSnapshot{}) {
		t.Fatalf("reference run moved the fast engine's counters: %+v", d)
	}

	cxOn := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.7})
	on := runJob(t, cxOn, corpus, k, 3, 1, false, true)
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

// runFleet runs one RunPeer per entry of fast, peer id over trs[id], each on
// a similarity context of its own as separate processes would have, and
// returns the per-peer results.
func runFleet(t *testing.T, trs []p2p.Transport, corpus *txn.Corpus, k int, seed int64, fast []bool) []*PeerResult {
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
				Seed: seed, Transport: trs[id], RoundTimeout: 30 * time.Second,
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

// shared lists one transport m times: every peer of the fleet on it.
func shared(tr p2p.Transport, m int) []p2p.Transport {
	return slices.Repeat([]p2p.Transport{tr}, m)
}

// TestRunMixedEnginesIdentical is the wire-level equivalence gate: the engine
// is a peer's own business, so fleets of three that mix fast and reference
// peers must equal the all-fast and the all-reference fleet in assignment,
// rounds, representatives and traffic — modeled per peer and round, and over
// TCP Nodes (one per peer, as cxkpeer runs) the actual encoded bytes too.
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
			var trs []p2p.Transport
			var nodes []*p2p.Node
			if tcp {
				nodes = startNodes(t, len(fast))
				for _, n := range nodes {
					trs = append(trs, n)
				}
			} else {
				trs = shared(p2p.NewChanTransport(len(fast)), len(fast))
			}
			got := runFleet(t, trs, corpus, k, 9, fast)
			var msgs, bytes int64
			for _, n := range nodes {
				m, b := n.SentStats()
				msgs, bytes = msgs+m, bytes+b
				n.Close()
			}
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
				if g, w := RepsDigest(got[id].Items, got[id].Reps), RepsDigest(want[id].Items, want[id].Reps); g != w {
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
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 7)
	st := newStepper(corpus, testOpts(tr, part), 0)
	s, cx := st.s, st.cx
	cx2 := sim.NewContext(corpus, cx.Params)
	replay := cluster.NewRounds(cluster.RepConfig{Ctx: cx2, Workers: 1}, s.local, false)
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
		if want := int64(len(s.local)*nonEmpty) + refine; got != want {
			t.Errorf("round %d: relocate phase made %d kernel calls, want %d documents × %d representatives + %d of the refinement = %d",
				rounds, got, len(s.local), nonEmpty, refine, want)
		}
	}
	if rounds < 2 {
		t.Fatalf("session ended after %d rounds; too short to pin the per-round count", rounds)
	}
}
