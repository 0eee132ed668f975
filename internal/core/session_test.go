package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// testPeer builds a Peer for corpus partition part over the given transport.
func testPeer(corpus *txn.Corpus, tr p2p.Transport, id int, part [][]int, extra func(*PeerConfig)) *Peer {
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	local := make([]*txn.Transaction, len(part[id]))
	for j, idx := range part[id] {
		local[j] = corpus.Transactions[idx]
	}
	cfg := PeerConfig{
		ID: id, Ctx: cx, Local: local, Transport: tr,
		Sizer: Sizer(corpus.Items), Seed: 1 + int64(id),
	}
	if extra != nil {
		extra(&cfg)
	}
	return NewPeer(cfg)
}

func startMsgFor(k, m int) StartMsg {
	return StartMsg{Zs: ResponsibilityPartition(k, m), K: k, F: 0.5, Gamma: 0.6}
}

// ---------------------------------------------------------------- phases

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseStartup:          "startup",
		PhaseBroadcastGlobals: "broadcast-globals",
		PhaseRelocate:         "relocate",
		PhaseExchangeLocals:   "exchange-locals",
		PhaseRefineGlobals:    "refine-globals",
		PhaseDone:             "done",
		Phase(42):             "phase(42)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

// TestSessionStartupPhase drives the startup phase alone and inspects the
// initialized protocol state.
func TestSessionStartupPhase(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	p := testPeer(corpus, tr, 0, part, nil)
	st := newStepper(p, p.cfg.Transport.Peers())
	s := st.s
	if s.phase != PhaseStartup {
		t.Fatalf("fresh session in %s", s.phase)
	}
	if err := tr.Send(0, 0, startMsgFor(2, 2)); err != nil {
		t.Fatal(err)
	}
	st.phase(t)
	if s.phase != PhaseBroadcastGlobals {
		t.Fatalf("after startup: %s", s.phase)
	}
	if s.k != 2 || s.m != 2 || len(s.zi) != 1 {
		t.Errorf("state: k=%d m=%d |zi|=%d", s.k, s.m, len(s.zi))
	}
	// The peer must have selected an initial representative for each owned
	// cluster and marked every local transaction unassigned.
	for _, j := range s.zi {
		if s.global[j] == nil {
			t.Errorf("no initial representative for owned cluster %d", j)
		}
	}
	for i, a := range s.assign {
		if a != cluster.TrashCluster {
			t.Errorf("transaction %d pre-assigned to %d", i, a)
		}
	}
}

// TestSessionBroadcastGlobalsPhase checks that phase 1 sends one message
// per neighbour and installs the received representatives.
func TestSessionBroadcastGlobalsPhase(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	p := testPeer(corpus, tr, 0, part, nil)
	st := newStepper(p, p.cfg.Transport.Peers())
	s := st.s
	if err := tr.Send(0, 0, startMsgFor(2, 2)); err != nil {
		t.Fatal(err)
	}
	st.phase(t)
	// Pre-queue peer 1's broadcast: it owns cluster 1.
	rep := toWire(corpus.Items, corpus.Transactions[part[1][0]])
	if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 0, Reps: map[int]WireTxn{1: rep}}); err != nil {
		t.Fatal(err)
	}
	st.phase(t)
	if s.phase != PhaseRelocate {
		t.Fatalf("after broadcast-globals: %s", s.phase)
	}
	if s.global[1] == nil || !s.global[1].Equal(fromWire(corpus.Items, rep)) {
		t.Error("peer 1's representative not installed")
	}
	// Exactly one outgoing message (to peer 1), carrying cluster 0.
	select {
	case env := <-tr.Recv(1):
		msg, ok := env.Payload.(GlobalRepsMsg)
		if !ok || msg.From != 0 || msg.Round != 0 {
			t.Fatalf("unexpected outgoing %+v", env.Payload)
		}
		if _, owns := msg.Reps[0]; !owns {
			t.Error("broadcast lacks the owned cluster 0")
		}
	default:
		t.Fatal("no broadcast sent to peer 1")
	}
}

// TestSessionRelocateAndExchangePhases drives phases 2 and 3 and checks the
// relocation output, the outgoing exchange message and the termination
// transition.
func TestSessionRelocateAndExchangePhases(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	p := testPeer(corpus, tr, 0, part, nil)
	st := newStepper(p, p.cfg.Transport.Peers())
	s := st.s
	if err := tr.Send(0, 0, startMsgFor(2, 2)); err != nil {
		t.Fatal(err)
	}
	rep := toWire(corpus.Items, corpus.Transactions[part[1][0]])
	if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 0, Reps: map[int]WireTxn{1: rep}}); err != nil {
		t.Fatal(err)
	}
	for s.phase != PhaseRelocate {
		st.phase(t)
	}
	st.phase(t) // relocate
	if s.phase != PhaseExchangeLocals {
		t.Fatalf("after relocate: %s", s.phase)
	}
	assigned := 0
	for _, a := range s.assign {
		if a != cluster.TrashCluster {
			if a < 0 || a >= s.k {
				t.Fatalf("invalid assignment %d", a)
			}
			assigned++
		}
	}
	if assigned == 0 {
		t.Error("relocation assigned nothing")
	}
	if !s.changed {
		t.Error("first round must report changed local representatives")
	}
	// Peer 1 claims it is done; peer 0 changed, so the session continues
	// into the refine phase.
	if err := tr.Send(1, 0, LocalRepsMsg{From: 1, Round: 0, Flag: FlagDone}); err != nil {
		t.Fatal(err)
	}
	st.phase(t) // exchange-locals
	if s.phase != PhaseRefineGlobals {
		t.Fatalf("after exchange-locals: %s", s.phase)
	}
	if !s.anyContinue {
		t.Error("continue flag lost")
	}
	// The outgoing exchange carries peer 1's clusters only.
	<-tr.Recv(1) // drop the phase-1 broadcast
	select {
	case env := <-tr.Recv(1):
		msg, ok := env.Payload.(LocalRepsMsg)
		if !ok || msg.Flag != FlagContinue {
			t.Fatalf("unexpected exchange message %+v", env.Payload)
		}
		for j := range msg.Reps {
			if j != 1 {
				t.Errorf("exchange leaked cluster %d to peer 1", j)
			}
		}
	default:
		t.Fatal("no exchange message sent to peer 1")
	}
	// Refine advances the round and loops back to phase 1.
	st.phase(t)
	if s.phase != PhaseBroadcastGlobals || s.round != 1 {
		t.Fatalf("after refine-globals: %s round %d", s.phase, s.round)
	}
}

// TestSessionTerminatesWhenAllDone: a stable peer that receives only done
// flags must transition straight to PhaseDone from the exchange phase.
func TestSessionTerminatesWhenAllDone(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	p := testPeer(corpus, tr, 0, part, nil)
	st := newStepper(p, p.cfg.Transport.Peers())
	s := st.s
	if err := tr.Send(0, 0, startMsgFor(2, 2)); err != nil {
		t.Fatal(err)
	}
	rep := toWire(corpus.Items, corpus.Transactions[part[1][0]])
	if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 0, Reps: map[int]WireTxn{1: rep}}); err != nil {
		t.Fatal(err)
	}
	for s.phase != PhaseExchangeLocals {
		st.phase(t)
	}
	s.changed, s.anyContinue = false, false // force local stability
	if err := tr.Send(1, 0, LocalRepsMsg{From: 1, Round: 0, Flag: FlagDone}); err != nil {
		t.Fatal(err)
	}
	st.phase(t)
	if s.phase != PhaseDone {
		t.Fatalf("all-done exchange left session in %s", s.phase)
	}
	res := s.result()
	if res.Rounds != 1 || len(res.Assign) != len(part[0]) || len(res.Reps) != 2 {
		t.Errorf("result shape: rounds=%d |assign|=%d |reps|=%d", res.Rounds, len(res.Assign), len(res.Reps))
	}
}

// TestSessionStartupBuffersEarlyMessages reproduces a real-network race:
// on separate TCP connections a fast neighbour's round-0 broadcast (or even
// a post-session AssignMsg) can overtake the coordinator's StartMsg. The
// startup phase must buffer, not reject, and the buffered broadcast must
// feed phase 1 afterwards — and count as received in its round like any other
// (the per-round counts are inputs of Result.SimulatedTime).
func TestSessionStartupBuffersEarlyMessages(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	p := testPeer(corpus, tr, 0, part, nil)
	st := newStepper(p, p.cfg.Transport.Peers())
	s := st.s
	rep := toWire(corpus.Items, corpus.Transactions[part[1][0]])
	// The neighbour's broadcast and a stray assignment report arrive first.
	early := GlobalRepsMsg{From: 1, Round: 0, Reps: map[int]WireTxn{1: rep}}
	if err := tr.Send(1, 0, early); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, 0, AssignMsg{From: 1, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, 0, startMsgFor(2, 2)); err != nil {
		t.Fatal(err)
	}
	// Phase 1 must complete from the buffer alone — no further messages.
	st.phase(t)
	if s.phase != PhaseRelocate || s.global[1] == nil {
		t.Fatalf("buffered broadcast not consumed: phase=%s", s.phase)
	}
	if len(s.pendAssign) != 1 {
		t.Fatalf("early AssignMsg not buffered: %d", len(s.pendAssign))
	}
	if msgs, bytes := s.report.RecvMsgsByRound[0], s.report.RecvBytesByRound[0]; msgs != 1 || bytes != Sizer(corpus.Items)(early) {
		t.Errorf("the broadcast that overtook the StartMsg is accounted as %d messages / %d B in round 0, want 1 / %d",
			msgs, bytes, Sizer(corpus.Items)(early))
	}
}

// TestReceivedCountsMatchSentUnderDelays: in a converged 3-peer run whose
// sends are randomly delayed — RunPeer processes, so round messages can
// overtake the coordinator's StartMsg — every peer must account, round by
// round, exactly the messages the other two sent it, and the fleet as many
// modeled bytes received as sent.
func TestReceivedCountsMatchSentUnderDelays(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	const m = 3
	tr := p2p.NewDelayTransport(p2p.NewChanTransport(m), 2*time.Millisecond, 99)
	defer tr.Close()
	res := runFleet(t, shared(tr, m), corpus, 2, 4, make([]bool, m))
	for r := 0; r < res[0].Rounds; r++ {
		var sentBytes, recvBytes int64
		for i := range res {
			// The pattern is symmetric: a peer sends each of the others one
			// GlobalRepsMsg and one LocalRepsMsg per round.
			var want int64
			for h := range res {
				if h != i {
					want += res[h].Report.SentMsgsByRound[r] / (m - 1)
				}
			}
			if got := res[i].Report.RecvMsgsByRound[r]; got != want || want != 2*(m-1) {
				t.Errorf("round %d: peer %d accounted %d received messages, the others sent it %d", r, i, got, want)
			}
			sentBytes += res[i].Report.SentBytesByRound[r]
			recvBytes += res[i].Report.RecvBytesByRound[r]
		}
		if sentBytes != recvBytes {
			t.Errorf("round %d: %d modeled bytes sent, %d received", r, sentBytes, recvBytes)
		}
	}
}

// TestSessionRejectsMalformedFrames: a frame's own numbers are used as
// indices only after they are vetted. Each malformed round message — sent
// before or after the StartMsg — must fail the session with
// ErrUnexpectedMessage inside the deadline, never panic or allocate by what
// the frame claims.
func TestSessionRejectsMalformedFrames(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	good := toWire(corpus.Items, corpus.Transactions[part[1][0]])
	pastTable := WireTxn{Items: []txn.ItemID{txn.ItemID(corpus.Items.Len())}}
	global := func(from, round, j int, w WireTxn) any {
		return GlobalRepsMsg{From: from, Round: round, Reps: map[int]WireTxn{j: w}}
	}
	local := func(from, round, j int, w WireTxn) any {
		return LocalRepsMsg{From: from, Round: round, Reps: map[int]WeightedWireRep{j: {Rep: w, Weight: 1}}}
	}
	cases := []struct {
		name string
		from int // the sender the transport reports
		msg  any
	}{
		{"global: round far past MaxRounds", 1, global(1, 1<<31, 1, good)},
		{"global: negative round", 1, global(1, -1, 1, good)},
		{"global: sender past m", 7, global(7, 0, 1, good)},
		{"global: negative sender", -1, global(-1, 0, 1, good)},
		{"global: sender is not the frame's", 1, global(0, 0, 1, good)},
		{"global: cluster past k", 1, global(1, 0, 2, good)},
		{"global: negative cluster", 1, global(1, 0, -1, good)},
		{"global: item past the table", 1, global(1, 0, 1, pastTable)},
		{"global: negative item", 1, global(1, 0, 1, WireTxn{Items: []txn.ItemID{-1}})},
		{"local: round far past MaxRounds", 1, local(1, 1<<31, 0, good)},
		{"local: sender past m", 2, local(2, 0, 0, good)},
		{"local: cluster past k", 1, local(1, 0, 1<<20, good)},
		{"local: item past the table", 1, local(1, 0, 0, pastTable)},
		{"local: NaN objective", 1, LocalRepsMsg{From: 1, Round: 0, Objective: math.NaN()}},
		{"local: infinite objective", 1, LocalRepsMsg{From: 1, Round: 0, Objective: math.Inf(-1)}},
	}
	for _, c := range cases {
		for _, beforeStart := range []bool{true, false} {
			tr := p2p.NewChanTransport(2)
			if beforeStart {
				if err := tr.Send(c.from, 0, c.msg); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Send(0, 0, startMsgFor(2, 2)); err != nil {
				t.Fatal(err)
			}
			if !beforeStart {
				if err := tr.Send(c.from, 0, c.msg); err != nil {
					t.Fatal(err)
				}
			}
			// Peer 1's well-formed round-0 traffic, so that a LocalRepsMsg case
			// is reached: only the malformed frame can fail the session.
			for _, msg := range []any{global(1, 0, 1, good), LocalRepsMsg{From: 1, Round: 0, Flag: FlagDone}} {
				if err := tr.Send(1, 0, msg); err != nil {
					t.Fatal(err)
				}
			}
			p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) { cfg.RoundTimeout = 5 * time.Second })
			errc := make(chan error, 1)
			go func() {
				_, err := p.RunSession(context.Background())
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrUnexpectedMessage) {
					t.Errorf("%s (before the StartMsg: %v): want ErrUnexpectedMessage, got %v", c.name, beforeStart, err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("%s (before the StartMsg: %v): session neither failed nor finished", c.name, beforeStart)
			}
			tr.Close()
		}
	}
}

// ---------------------------------------------------------------- failures

func TestSessionStartupRejectsBadMessage(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 1)
	p := testPeer(corpus, tr, 0, part, nil)
	// Protocol messages (globals/locals/assignments) are buffered during
	// startup — only a genuinely foreign payload is a protocol violation.
	if err := tr.Send(0, 0, "bogus payload"); err != nil {
		t.Fatal(err)
	}
	_, err := p.RunSession(context.Background())
	if err == nil {
		t.Fatal("bad startup message must fail the session")
	}
	if !errors.Is(err, ErrUnexpectedMessage) {
		t.Errorf("error not typed: %v", err)
	}
	var se *SessionError
	if !errors.As(err, &se) || se.Phase != PhaseStartup || se.Peer != 0 {
		t.Errorf("session error context wrong: %+v", se)
	}
}

// TestSessionDeadPeerTimeout: peer 2 never starts, so the running peers
// must fail their sessions with ErrRoundDeadline instead of hanging — under
// PK-means too, whose seeding round waits on peer 2's initial globals.
func TestSessionDeadPeerTimeout(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	part := EqualPartition(len(corpus.Transactions), 3, 1)
	start := startMsgFor(2, 3)
	for _, pk := range []bool{false, true} {
		tr := p2p.NewChanTransport(3)
		for i := 0; i < 3; i++ {
			if err := tr.Send(0, i, start); err != nil {
				t.Fatal(err)
			}
		}
		errc := make(chan error, 2)
		for _, id := range []int{0, 1} {
			p := testPeer(corpus, tr, id, part, func(cfg *PeerConfig) {
				cfg.RoundTimeout = 100 * time.Millisecond
				cfg.PKMeans = pk
			})
			go func() {
				_, err := p.RunSession(context.Background())
				errc <- err
			}()
		}
		for i := 0; i < 2; i++ {
			select {
			case err := <-errc:
				if !errors.Is(err, ErrRoundDeadline) {
					t.Errorf("pk=%v: want ErrRoundDeadline, got %v", pk, err)
				}
				var se *SessionError
				if !errors.As(err, &se) || se.Phase != PhaseBroadcastGlobals {
					t.Errorf("pk=%v: deadline not attributed to broadcast-globals: %+v", pk, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("pk=%v: dead peer hung the session despite RoundTimeout", pk)
			}
		}
		tr.Close()
	}
}

func TestSessionStartupDeadline(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 1)
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) {
		cfg.RoundTimeout = 50 * time.Millisecond
	})
	_, err := p.RunSession(context.Background()) // no StartMsg ever arrives
	if !errors.Is(err, ErrRoundDeadline) {
		t.Fatalf("want ErrRoundDeadline, got %v", err)
	}
}

func TestSessionContextCancel(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 1)
	p := testPeer(corpus, tr, 0, part, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := p.RunSession(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// failingTransport refuses sends to a given peer, emulating a broken link.
type failingTransport struct {
	p2p.Transport
	failTo int
}

func (f *failingTransport) Send(from, to int, payload any) error {
	if to == f.failTo {
		return fmt.Errorf("link to %d down", to)
	}
	return f.Transport.Send(from, to, payload)
}

// TestSessionSendFailurePropagates: a failed send must fail the session
// with ErrSend instead of being silently swallowed (the old engine dropped
// the error and left the receiving peer to starve), under either policy.
func TestSessionSendFailurePropagates(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	for _, pk := range []bool{false, true} {
		inner := p2p.NewChanTransport(2)
		tr := &failingTransport{Transport: inner, failTo: 1}
		if err := inner.Send(0, 0, startMsgFor(2, 2)); err != nil {
			t.Fatal(err)
		}
		p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) { cfg.PKMeans = pk })
		_, err := p.RunSession(context.Background())
		inner.Close()
		if err == nil {
			t.Fatalf("pk=%v: send failure must fail the session", pk)
		}
		if !errors.Is(err, ErrSend) {
			t.Errorf("pk=%v: want ErrSend, got %v", pk, err)
		}
		var se *SessionError
		if !errors.As(err, &se) || se.Phase != PhaseBroadcastGlobals {
			t.Errorf("pk=%v: send failure not attributed to broadcast-globals: %+v", pk, err)
		}
	}
}

// TestRunSessionSinglePeer runs the full engine through the public Peer
// surface for m=1 and cross-checks the thin-driver path.
func TestRunSessionSinglePeer(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	ref := runCXK(t, corpus, 2, 1, 7)

	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	if err := tr.Send(0, 0, StartMsg{Zs: ResponsibilityPartition(2, 1), K: 2, F: 0.5, Gamma: 0.6}); err != nil {
		t.Fatal(err)
	}
	part := EqualPartition(len(corpus.Transactions), 1, 7)
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) { cfg.Seed = 7 })
	res, err := p.RunSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != ref.Rounds {
		t.Errorf("rounds %d vs driver %d", res.Rounds, ref.Rounds)
	}
	for i, a := range res.Assign {
		if ref.Assign[part[0][i]] != a {
			t.Fatalf("assignment %d differs from driver run", i)
		}
	}
}

// TestSessionConfigMismatch: a peer launched with different flags than the
// coordinator (here: another seed) must fail its session with
// ErrConfigMismatch instead of silently clustering a divergent partition.
func TestSessionConfigMismatch(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 1)
	msg := startMsgFor(2, 1)
	msg.Txns = len(corpus.Transactions)
	msg.PartitionHash = PartitionFingerprint(corpus, part)
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) {
		want := msg
		want.Seed = 5 // coordinator announces seed 0
		cfg.Expect = &want
	})
	if err := tr.Send(0, 0, msg); err != nil {
		t.Fatal(err)
	}
	_, err := p.RunSession(context.Background())
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("want ErrConfigMismatch, got %v", err)
	}
	var se *SessionError
	if !errors.As(err, &se) || se.Phase != PhaseStartup {
		t.Errorf("mismatch not attributed to startup: %+v", err)
	}
}

// TestRunPeerSeedMismatchFails drives the config check through the full
// distributed entry point: two RunPeer processes with different seeds must
// not produce a result.
func TestRunPeerSeedMismatchFails(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	errc := make(chan error, 2)
	for id, seed := range map[int]int64{0: 3, 1: 5} {
		go func(id int, seed int64) {
			cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
			_, err := runPeer(context.Background(), cx, corpus, Options{
				K: 2, Params: cx.Params, Peers: 2,
				Partition: EqualPartition(len(corpus.Transactions), 2, seed),
				Seed:      seed, Transport: tr, RoundTimeout: 2 * time.Second,
			}, id)
			errc <- err
		}(id, seed)
	}
	sawMismatch := false
	for i := 0; i < 2; i++ {
		err := <-errc
		if err == nil {
			t.Fatal("mismatched seeds must not produce a result")
		}
		if errors.Is(err, ErrConfigMismatch) {
			sawMismatch = true
		}
	}
	if !sawMismatch {
		t.Error("no peer reported ErrConfigMismatch")
	}
}

// TestSessionStartupTimeoutOutlivesRoundTimeout: distributed peers boot in
// any order, so the startup wait must tolerate a coordinator that appears
// long after one round-timeout has elapsed.
func TestSessionStartupTimeoutOutlivesRoundTimeout(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 1)
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) {
		cfg.RoundTimeout = 50 * time.Millisecond
		cfg.StartupTimeout = 5 * time.Second
	})
	go func() {
		time.Sleep(200 * time.Millisecond) // > RoundTimeout, < StartupTimeout
		tr.Send(0, 0, startMsgFor(2, 1))
	}()
	res, err := p.RunSession(context.Background())
	if err != nil {
		t.Fatalf("late coordinator killed the session: %v", err)
	}
	if res.Rounds == 0 {
		t.Error("session did not run")
	}
}
