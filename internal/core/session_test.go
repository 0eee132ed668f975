package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// testOpts configures a k = 2 run over corpus partition part on tr.
func testOpts(tr p2p.Transport, part [][]int) Options {
	return Options{K: 2, Params: sim.Params{F: 0.5, Gamma: 0.6}, Peers: len(part), Partition: part, Seed: 1, Transport: tr}
}

// testDriver builds peer id's driver of a run of opts over corpus, as
// RunPeer does, and returns it with the machine's opening outputs.
func testDriver(corpus *txn.Corpus, opts Options, id int) (*driver, []any) {
	cx := sim.NewContext(corpus, opts.Params)
	return newDriver(cx, corpus, &opts, NewStartMsg(cx, corpus, opts), id)
}

// runSession runs peer id's session of opts to its end: RunPeer without the
// entry checks, so the PK-means policy and a rejoining coordinator run too.
func runSession(ctx context.Context, corpus *txn.Corpus, opts Options, id int) (*PeerResult, error) {
	d, outs := testDriver(corpus, opts, id)
	return d.run(ctx, outs)
}

// stepper drives one session machine on the test goroutine through the
// driver's own compute, with neither transport nor clock: sends are
// recorded, a compute request is held until advance answers it, and an
// armed timer is flagged.
type stepper struct {
	*driver
	sent  []send
	held  any
	armed bool
	done  bool
	err   error
}

func newStepper(corpus *txn.Corpus, opts Options, id int) *stepper {
	d, outs := testDriver(corpus, opts, id)
	st := &stepper{driver: d}
	st.take(outs)
	return st
}

func (st *stepper) take(outs []any) {
	for _, o := range outs {
		switch o := o.(type) {
		case send:
			st.sent = append(st.sent, o)
		case armTimer:
			st.armed = true
		case compute:
			st.held = o
		case done:
			st.done, st.err = true, o.err
		}
	}
}

// deliver steps the machine with one envelope.
func (st *stepper) deliver(env p2p.Envelope) { st.take(st.s.Step(env)) }

// got delivers payload from peer from, stamped with the machine's epoch.
func (st *stepper) got(from int, payload any) {
	st.deliver(p2p.Envelope{From: from, To: st.s.id, Epoch: st.s.epoch, Payload: payload})
}

// advance answers the held request; it reports whether one was held.
func (st *stepper) advance(t testing.TB) bool {
	h, ok := st.held.(compute)
	if !ok {
		return false
	}
	st.held = nil
	if err := st.compute(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	st.take(st.s.Step(st.in))
	return true
}

// phase runs st through its current phase: held requests are answered, sends
// go out over the peer's transport, and envelopes queued there are delivered
// one at a time, until the phase changes or the session ends. A session that
// would block fails the test.
func (st *stepper) phase(t testing.TB) {
	t.Helper()
	from := st.s.phase
	for !st.done && st.s.phase == from {
		if st.advance(t) {
			continue
		}
		st.flush(t)
		select {
		case env := <-st.opts.Transport.Recv(st.s.id):
			st.deliver(env)
		default:
			t.Fatalf("peer %d would block in %s", st.s.id, st.s.phase)
		}
	}
	st.flush(t)
	if st.err != nil {
		t.Fatal(st.err)
	}
}

// flush hands the recorded sends to the driver, which transmits and
// accounts them.
func (st *stepper) flush(t testing.TB) {
	for _, o := range st.sent {
		if err := st.send(o); err != nil {
			t.Fatal(err)
		}
	}
	st.sent = nil
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
	st := newStepper(corpus, testOpts(tr, part), 0)
	s := st.s
	if s.phase != PhaseStartup {
		t.Fatalf("fresh session in %s", s.phase)
	}
	st.phase(t) // the coordinator takes its own StartMsg
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
	st := newStepper(corpus, testOpts(tr, part), 0)
	s := st.s
	st.phase(t)
	<-tr.Recv(1) // peer 1's StartMsg
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
	st := newStepper(corpus, testOpts(tr, part), 0)
	s := st.s
	st.flush(t) // the StartMsgs
	<-tr.Recv(1)
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
	if s.peersChanged != 1 {
		t.Errorf("%d peers changed, want 1: the continue flag is lost or miscounted", s.peersChanged)
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
	st := newStepper(corpus, testOpts(tr, part), 0)
	s := st.s
	rep := toWire(corpus.Items, corpus.Transactions[part[1][0]])
	if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 0, Reps: map[int]WireTxn{1: rep}}); err != nil {
		t.Fatal(err)
	}
	for s.phase != PhaseExchangeLocals {
		st.phase(t)
	}
	s.changed, s.peersChanged = false, 0 // force local stability
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

// collecting steps the coordinator of a one-round, two-peer run over part
// into its collection: it takes its own StartMsg and member 1's globals and
// done flag, relocates, refines, stops at the round cap and waits for member
// 1's report.
func collecting(t *testing.T, corpus *txn.Corpus, part [][]int, fab *Fabric) *stepper {
	t.Helper()
	opts := testOpts(nil, part)
	opts.MaxRounds, opts.Fabric = 1, fab
	st := newStepper(corpus, opts, 0)
	rep := toWire(corpus.Items, corpus.Transactions[part[1][0]])
	for _, env := range []p2p.Envelope{
		{From: 0, Payload: st.s.start},
		{From: 1, Payload: GlobalRepsMsg{From: 1, Reps: map[int]WireTxn{1: rep}}},
		{From: 1, Payload: LocalRepsMsg{From: 1, Flag: FlagDone}},
	} {
		st.armed = false // the exchange's timer must not stand in for the collection's
		st.deliver(env)
		for st.advance(t) {
		}
	}
	if st.s.phase != PhaseDone || st.done {
		t.Fatalf("coordinator in %s, done %v (%v), want collecting", st.s.phase, st.done, st.err)
	}
	if !st.armed {
		t.Fatal("the coordinator entered its collection without arming a timer")
	}
	return st
}

// TestCollectAssignmentsTimeout: the coordinator must not hang when a member
// dies between its session end and its final report. The timer that fires
// during the collection fails the session with ErrRoundDeadline, under the
// fabric too: there is no round left to recover.
func TestCollectAssignmentsTimeout(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	for _, fab := range []*Fabric{nil, {Store: memStore{}}} {
		st := collecting(t, corpus, part, fab)
		st.take(st.s.Step(timeout{}))
		if !st.done || !errors.Is(st.err, ErrRoundDeadline) {
			t.Errorf("fabric %v: a timer with slot 1's report missing ended in %v, want ErrRoundDeadline", fab != nil, st.err)
		}
	}
}

// TestCollectAssignmentsMergesPartition checks the coordinator's local→corpus
// index mapping through an unequal partition.
func TestCollectAssignmentsMergesPartition(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	n := len(corpus.Transactions)
	part := UnequalPartition(n, 2, 3)
	st := collecting(t, corpus, part, nil)
	own := st.s.assign
	st.got(1, AssignMsg{From: 1, Assign: slices.Repeat([]int{1}, len(part[1]))})
	if !st.done || st.err != nil {
		t.Fatalf("the last report left the coordinator done %v, %v", st.done, st.err)
	}
	global := st.s.result().Global
	if len(global) != n {
		t.Fatalf("the corpus-wide assignment covers %d of %d", len(global), n)
	}
	for i, idx := range part[0] {
		if global[idx] != own[i] {
			t.Errorf("index %d not mapped to peer 0's assignment", idx)
		}
	}
	for _, idx := range part[1] {
		if global[idx] != 1 {
			t.Errorf("index %d not mapped to peer 1's assignment", idx)
		}
	}
}

// TestCoordinatorVetsReports: a report is bytes from a port anyone can dial,
// and the coordinator indexes the corpus-wide assignment with it. One check
// per field: each bad report, taken before or after the StartMsg, fails the
// session with ErrUnexpectedMessage, where a good one from each member
// passes.
func TestCoordinatorVetsReports(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	part := EqualPartition(len(corpus.Transactions), 3, 1)
	good := func(from int) AssignMsg {
		return AssignMsg{From: from, Assign: make([]int, len(part[from]))}
	}
	with := func(from, i, a int) AssignMsg {
		msg := good(from)
		msg.Assign[i] = a
		return msg
	}
	cases := []struct {
		name string
		at   int // the peer that takes the reports
		envs []p2p.Envelope
	}{
		{"good reports", 0, []p2p.Envelope{{From: 1, Payload: with(1, 0, -1)}, {From: 2, Payload: with(2, 0, 1)}}},
		{"sender is not the frame's", 0, []p2p.Envelope{{From: 2, Payload: good(1)}, {From: 2, Payload: good(2)}}},
		{"sender past m", 0, []p2p.Envelope{{From: 3, Payload: AssignMsg{From: 3}}}},
		{"the coordinator's slot", 0, []p2p.Envelope{{From: 0, Payload: good(0)}}},
		{"a member takes a report", 1, []p2p.Envelope{{From: 2, Payload: good(2)}}},
		{"second report of a slot", 0, []p2p.Envelope{{From: 1, Payload: good(1)}, {From: 1, Payload: good(1)}}},
		{"too short", 0, []p2p.Envelope{{From: 1, Payload: AssignMsg{From: 1, Assign: good(1).Assign[1:]}}}},
		{"too long", 0, []p2p.Envelope{{From: 2, Payload: AssignMsg{From: 2, Assign: append(good(2).Assign, 0)}}}},
		{"cluster past k", 0, []p2p.Envelope{{From: 1, Payload: with(1, 0, 2)}}},
		{"cluster far past k", 0, []p2p.Envelope{{From: 1, Payload: with(1, 1, 99999)}}},
		{"below the trash cluster", 0, []p2p.Envelope{{From: 2, Payload: with(2, 1, -2)}}},
	}
	for _, c := range cases {
		for _, beforeStart := range []bool{true, false} {
			st := newStepper(corpus, testOpts(nil, part), c.at)
			envs := append([]p2p.Envelope{{From: 0, Payload: st.s.start}}, c.envs...)
			if beforeStart {
				envs = append(c.envs, envs[0])
			}
			for _, env := range envs {
				if !st.done {
					st.deliver(env)
				}
			}
			if wantErr := c.name != "good reports"; wantErr != errors.Is(st.err, ErrUnexpectedMessage) || st.done != wantErr {
				t.Errorf("%s (before the StartMsg: %v): done %v, %v", c.name, beforeStart, st.done, st.err)
			}
		}
	}
}

// TestSessionRejectsMalformedFrames: a frame's own numbers are used as
// indices only after they are vetted. Each malformed round message — sent
// before or after the StartMsg — must fail the session with
// ErrUnexpectedMessage, never panic or allocate by what the frame claims.
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
			st := newStepper(corpus, testOpts(nil, part), 0)
			bad := p2p.Envelope{From: c.from, Payload: c.msg}
			envs := []p2p.Envelope{bad, {From: 0, Payload: st.s.start}}
			if !beforeStart {
				envs[0], envs[1] = envs[1], envs[0]
			}
			// Peer 1's well-formed round-0 traffic, so that a LocalRepsMsg case
			// is reached: only the malformed frame can fail the session. A
			// malformed report stands in for peer 1's own, which would
			// otherwise be refused as its second whatever the vetting.
			traffic := []any{global(1, 0, 1, good), LocalRepsMsg{From: 1, Round: 0, Flag: FlagDone}}
			if _, ok := c.msg.(LocalRepsMsg); ok {
				traffic = traffic[:1]
			}
			for _, msg := range traffic {
				envs = append(envs, p2p.Envelope{From: 1, Payload: msg})
			}
			for _, env := range envs {
				if st.deliver(env); !st.done {
					for st.advance(t) {
					}
				}
			}
			if !st.done || !errors.Is(st.err, ErrUnexpectedMessage) {
				t.Errorf("%s (before the StartMsg: %v): want ErrUnexpectedMessage, got done %v, %v", c.name, beforeStart, st.done, st.err)
			}
		}
	}
}

// ---------------------------------------------------------------- failures

func TestSessionStartupRejectsBadMessage(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 1)
	// Protocol messages (globals/locals/assignments) are buffered during
	// startup — only a genuinely foreign payload is a protocol violation.
	if err := tr.Send(0, 0, "bogus payload"); err != nil {
		t.Fatal(err)
	}
	_, err := runSession(context.Background(), corpus, testOpts(tr, part), 0)
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
	for _, pk := range []bool{false, true} {
		tr := p2p.NewChanTransport(3)
		opts := testOpts(tr, part)
		opts.RoundTimeout, opts.PKMeans = 100*time.Millisecond, pk
		errc := make(chan error, 2)
		for _, id := range []int{0, 1} {
			go func() {
				_, err := runSession(context.Background(), corpus, opts, id)
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

// TestLockstepStallFiresTimer: a stepped peer left waiting for a neighbour
// that never speaks has armed its timer, and fails with ErrRoundDeadline
// when it fires.
func TestLockstepStallFiresTimer(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	st := newStepper(corpus, testOpts(nil, part), 0)
	st.got(0, st.s.start)
	for st.advance(t) {
	}
	if !st.armed || st.done {
		t.Fatalf("peer waits in %s without an armed timer", st.s.phase)
	}
	st.take(st.s.Step(timeout{}))
	if !errors.Is(st.err, ErrRoundDeadline) {
		t.Fatalf("want ErrRoundDeadline, got %v", st.err)
	}
}

// memberOpts configures member 1 of a two-peer run whose coordinator the
// test plays, or never starts.
func memberOpts(corpus *txn.Corpus, tr p2p.Transport) Options {
	return testOpts(tr, EqualPartition(len(corpus.Transactions), 2, 1))
}

func TestSessionStartupDeadline(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	opts := memberOpts(corpus, tr)
	opts.RoundTimeout = 50 * time.Millisecond
	_, err := runSession(context.Background(), corpus, opts, 1) // no StartMsg ever arrives
	if !errors.Is(err, ErrRoundDeadline) {
		t.Fatalf("want ErrRoundDeadline, got %v", err)
	}
}

func TestSessionContextCancel(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := runSession(ctx, corpus, memberOpts(corpus, tr), 1)
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

func (f *failingTransport) SendStamped(from, to, epoch int, payload any) error {
	if to == f.failTo {
		return fmt.Errorf("link to %d down", to)
	}
	return f.Transport.SendStamped(from, to, epoch, payload)
}

// TestSessionSendFailurePropagates: a failed send must fail the session
// with ErrSend instead of being silently swallowed (the old engine dropped
// the error and left the receiving peer to starve), under either policy.
// A StartMsg that cannot reach a peer fails the coordinator at startup.
func TestSessionSendFailurePropagates(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	for _, pk := range []bool{false, true} {
		for _, id := range []int{0, 1} {
			inner := p2p.NewChanTransport(2)
			opts := memberOpts(corpus, &failingTransport{Transport: inner, failTo: 1 - id})
			opts.PKMeans = pk
			d, outs := testDriver(corpus, opts, id)
			if id == 1 {
				if err := inner.Send(0, 1, d.s.start); err != nil {
					t.Fatal(err)
				}
			}
			_, err := d.run(context.Background(), outs)
			inner.Close()
			if err == nil {
				t.Fatalf("pk=%v peer %d: send failure must fail the session", pk, id)
			}
			if !errors.Is(err, ErrSend) {
				t.Errorf("pk=%v peer %d: want ErrSend, got %v", pk, id, err)
			}
			want := []Phase{PhaseStartup, PhaseBroadcastGlobals}[id]
			var se *SessionError
			if !errors.As(err, &se) || se.Phase != want {
				t.Errorf("pk=%v peer %d: send failure not attributed to %s: %+v", pk, id, want, err)
			}
		}
	}
	// Under the fabric a failed StartMsg still fails the coordinator, and a
	// member whose startup window expires reports the stall to a coordinator
	// it cannot reach: the coordinator is lost.
	for id, want := range []error{ErrSend, ErrCoordinatorLost} {
		inner := p2p.NewChanTransport(2)
		opts := memberOpts(corpus, &failingTransport{Transport: inner, failTo: 1 - id})
		opts.Fabric, opts.RoundTimeout = &Fabric{Store: memStore{}}, 20*time.Millisecond
		_, err := runSession(context.Background(), corpus, opts, id)
		inner.Close()
		if !errors.Is(err, want) {
			t.Errorf("fabric peer %d: want %v, got %v", id, want, err)
		}
		var se *SessionError
		if !errors.As(err, &se) || se.Phase != PhaseStartup {
			t.Errorf("fabric peer %d: send failure not attributed to startup: %+v", id, err)
		}
	}
}

// cancelingTransport cancels the run at its first send and counts sends.
type cancelingTransport struct {
	p2p.Transport
	cancel context.CancelFunc
	sends  int
}

func (c *cancelingTransport) Send(from, to int, payload any) error {
	c.sends++
	c.cancel()
	return c.Transport.Send(from, to, payload)
}

// TestSessionCancelBetweenStartSends: each of N0's opening sends can block
// up to DialTimeout, so a coordinator cancelled during one must return
// before the next instead of after all m.
func TestSessionCancelBetweenStartSends(t *testing.T) {
	corpus, _ := miniCorpus(t, 3)
	inner := p2p.NewChanTransport(3)
	defer inner.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelingTransport{Transport: inner, cancel: cancel}
	_, err := runSession(ctx, corpus, testOpts(tr, EqualPartition(len(corpus.Transactions), 3, 1)), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if tr.sends != 1 {
		t.Errorf("the cancelled coordinator made %d StartMsg sends, want 1", tr.sends)
	}
}

// TestRunSessionSinglePeer runs the full engine through a driven session for
// m=1 and cross-checks it against Run.
func TestRunSessionSinglePeer(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	ref := runCXK(t, corpus, 2, 1, 7)

	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	opts := testOpts(tr, EqualPartition(len(corpus.Transactions), 1, 7))
	opts.Seed = 7
	res, err := runSession(context.Background(), corpus, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != ref.Rounds {
		t.Errorf("rounds %d vs driver %d", res.Rounds, ref.Rounds)
	}
	if !slices.Equal(res.Global, ref.Assign) {
		t.Fatal("assignment differs from driver run")
	}
}

// TestSessionConfigMismatch: a peer launched with different flags than the
// coordinator (here: another seed) must fail its session with
// ErrConfigMismatch instead of silently clustering a divergent partition.
func TestSessionConfigMismatch(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	d, outs := testDriver(corpus, memberOpts(corpus, tr), 1)
	msg := d.s.start
	msg.Seed += 4 // the coordinator announces another seed
	if err := tr.Send(0, 1, msg); err != nil {
		t.Fatal(err)
	}
	_, err := d.run(context.Background(), outs)
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
// not produce a result. The peer that reports ErrConfigMismatch cancels the
// shared context, as a deployment stops its other processes, so the other
// peer does not sit out its round timeout.
func TestRunPeerSeedMismatchFails(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 2)
	for id, seed := range map[int]int64{0: 3, 1: 5} {
		go func(id int, seed int64) {
			cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
			_, err := runPeer(ctx, cx, corpus, Options{
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
			cancel()
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
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	opts := memberOpts(corpus, tr)
	opts.RoundTimeout, opts.StartupTimeout = 300*time.Millisecond, 10*time.Second
	coordinator := make(chan error, 1)
	go func() {
		time.Sleep(600 * time.Millisecond) // > RoundTimeout, < StartupTimeout
		_, err := runSession(context.Background(), corpus, opts, 0)
		coordinator <- err
	}()
	res, err := runSession(context.Background(), corpus, opts, 1)
	if err != nil {
		t.Fatalf("late coordinator killed the session: %v", err)
	}
	if res.Rounds == 0 {
		t.Error("session did not run")
	}
	if err := <-coordinator; err != nil {
		t.Errorf("the late coordinator: %v", err)
	}
}
