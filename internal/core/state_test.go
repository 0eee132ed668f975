package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// soloOpts configures a one-peer fabric run over corpus.
func soloOpts(corpus *txn.Corpus, seed int64) Options {
	return Options{
		K: 2, Params: sim.Params{F: 0.5, Gamma: 0.6}, Peers: 1, Seed: seed,
		Partition: EqualPartition(len(corpus.Transactions), 1, seed), Fabric: &Fabric{Fingerprint: 42},
	}
}

// runSolo runs a single-peer fabric session to completion and returns its
// result with the boundary state of every round, as checkpointed.
func runSolo(t *testing.T, seed int64) (*PeerResult, []*SessionState) {
	t.Helper()
	corpus, _ := miniCorpus(t, 6)
	f := newFabricSim(t, corpus, soloOpts(corpus, seed))
	if f.drain(); !f.finished() {
		t.Fatal("the solo session stalls")
	}
	return f.results[0], f.stores[0].states(t, 0)
}

// resumeSolo starts a fresh single-peer fabric session from st, as the
// answer to a restore, and runs it to completion.
func resumeSolo(t *testing.T, seed int64, st *SessionState) (*PeerResult, []*SessionState) {
	t.Helper()
	corpus, _ := miniCorpus(t, 6)
	f := newFabricSim(t, corpus, soloOpts(corpus, seed))
	f.links[0] = nil
	f.carry(0, f.peers[0].s.Step(loaded{st}))
	if f.drain(); !f.finished() {
		t.Fatal("the resumed session stalls")
	}
	return f.results[0], f.stores[0].states(t, 0)
}

// TestSessionStateGobRoundTrip: the checkpoint payload must survive gob
// byte-identically — the fabric persists and replicates exactly this. The
// check re-encodes the decoded state and compares encodings (gob elides
// empty fields, so value comparison would trip over nil-vs-empty slices
// that are semantically identical).
func TestSessionStateGobRoundTrip(t *testing.T) {
	_, states := runSolo(t, 11)
	if len(states) == 0 {
		t.Fatal("no round boundaries observed")
	}
	for i, st := range states {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatalf("encode state %d: %v", i, err)
		}
		var back SessionState
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&back); err != nil {
			t.Fatalf("decode state %d: %v", i, err)
		}
		var again bytes.Buffer
		if err := gob.NewEncoder(&again).Encode(&back); err != nil {
			t.Fatalf("re-encode state %d: %v", i, err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("state %d changed across gob round-trip", i)
		}
	}
}

// TestSessionResumeFromEveryBoundary: installing the state checkpointed at
// any round boundary into a fresh session must replay the remaining rounds
// to the same final assignments, representatives and round count — the
// determinism contract checkpoint/restore recovery rests on.
func TestSessionResumeFromEveryBoundary(t *testing.T) {
	ref, states := runSolo(t, 11)
	for i, st := range states {
		res, _ := resumeSolo(t, 11, st)
		if res.Rounds != ref.Rounds {
			t.Fatalf("resume from boundary %d: %d rounds, reference %d", i, res.Rounds, ref.Rounds)
		}
		if !slices.Equal(res.Assign, ref.Assign) {
			t.Fatalf("resume from boundary %d diverged in assignments", i)
		}
		if RepsDigest(res.Items, res.Reps) != RepsDigest(ref.Items, ref.Reps) {
			t.Fatalf("resume from boundary %d diverged in representatives", i)
		}
	}
}

// TestRestoreKnowsSeenStates: a checkpoint's SeenStates hash representatives
// by content, so a session restored into a job table that interned the same
// items in another order still knows a state it saw: relocating back to the
// checkpoint's locals after they moved on reads as a cycle, and the session
// reports itself unchanged.
func TestRestoreKnowsSeenStates(t *testing.T) {
	ref, states := runSolo(t, 11)
	last := states[len(states)-1]
	corpus, _ := miniCorpus(t, 6)
	s := newFabricSim(t, corpus, soloOpts(corpus, 11)).peers[0].s
	for j := len(last.LocalRp) - 1; j >= 0; j-- { // the other order
		fromWire(s.items, last.LocalRp[j])
	}
	if err := s.install(last); err != nil {
		t.Fatal(err)
	}
	seen := s.localRp
	if cluster.RepsEqual(seen, unwireReps(ref.Items, last.LocalRp)) {
		t.Fatal("the restored table numbers the items as the run's did")
	}
	s.localRp = make([]*txn.Transaction, s.k) // the locals moved on
	if err := s.relocated(computed{assign: s.assign, sizes: s.sizes, localRp: seen}); err != nil {
		t.Fatal(err)
	}
	if s.changed {
		t.Error("a restored session does not recognise a state it saw before the checkpoint")
	}
	warm := func() { _, s.flat = digestReps(s.items, seen, s.flat) }
	if warm(); testing.AllocsPerRun(10, warm) != 0 {
		t.Error("a warm state fingerprint allocates")
	}
}

// TestSessionRejoinInstallsControlState: a peer launched in PhaseRejoin
// announces itself to the coordinator and drops protocol traffic of the
// slot's previous occupant, until the coordinator's ResumeMsg hands it the
// slot's replica: it installs that under the resume's epoch, checkpoints it
// as its own and replicates it, and re-enters the round loop. A ResumeMsg
// from anyone but the coordinator is dropped.
func TestSessionRejoinInstallsControlState(t *testing.T) {
	corpus := fabricCorpus()
	opts := fabricOpts(corpus, 2)
	ref := newFabricSim(t, corpus, opts)
	if ref.drain(); !ref.finished() {
		t.Fatal("the reference session stalls")
	}
	replica := ref.stores[1].states(t, 1)[1]

	opts.Fabric, opts.Rejoin = &Fabric{Store: memStore{}, Fingerprint: 42}, true
	s, outs := newMachine(corpus.Items.Stage(), ref.peers[1].s.local, corpus, &opts, ref.start, 1)
	if len(outs) != 2 || outs[0] != (send{to: 0, phase: PhaseRejoin, payload: JoinMsg{Slot: 1, Fingerprint: 42}, control: true}) ||
		outs[1] != (armTimer{startup: true}) {
		t.Fatalf("a joiner opens with %v", outs)
	}
	// A timer that fires before the admission re-announces the join: the
	// first announcement may have met a coordinator not listening yet.
	if outs := s.Step(timeout{}); len(outs) != 2 || outs[0].(send).payload != (JoinMsg{Slot: 1, Fingerprint: 42}) {
		t.Fatalf("a joiner's timeout yields %v, want the join re-announced", outs)
	}
	rep := toWire(corpus.Items, corpus.Transactions[0])
	resume := ResumeMsg{Epoch: 1, Round: 1, Joined: []int{1}, Fingerprint: 42, State: replica}
	for _, env := range []p2p.Envelope{
		{From: 0, Payload: GlobalRepsMsg{From: 0, Round: 3, Reps: map[int]WireTxn{0: rep}}},
		{From: 1, Epoch: p2p.EpochAny, Payload: resume},
	} {
		if outs := s.Step(env); len(outs) != 0 || s.phase != PhaseRejoin {
			t.Fatalf("%T from %d: %v in %s", env.Payload, env.From, outs, s.phase)
		}
	}
	if s.fab.dropped != 1 {
		t.Errorf("dropped %d control messages, want 1", s.fab.dropped)
	}
	outs = s.Step(p2p.Envelope{From: 0, Epoch: p2p.EpochAny, Payload: resume})
	if s.epoch != 1 || s.round != 1 || s.phase != PhaseBroadcastGlobals || s.fab.joining {
		t.Fatalf("after the resume: epoch %d round %d %s joining %v", s.epoch, s.round, s.phase, s.fab.joining)
	}
	var saved, replicated, restored bool
	for _, o := range outs {
		switch o := o.(type) {
		case checkpoint:
			saved = o.st.Round == 1 && o.st.Epoch == 1
		case send:
			if _, ok := o.payload.(CheckpointMsg); ok && o.control {
				replicated = true
			}
		case Event:
			restored = restored || o.Kind == EventRestore && o.Epoch == 1
		}
	}
	if !saved || !replicated || !restored {
		t.Errorf("after the resume: checkpointed %v, replicated %v, restored %v", saved, replicated, restored)
	}
}

// TestSessionRejoinWithoutHooksFails: PhaseRejoin without the fabric can
// never terminate; the session must reject the configuration.
func TestSessionRejoinWithoutHooksFails(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	opts := testOpts(tr, EqualPartition(len(corpus.Transactions), 1, 1))
	opts.Rejoin = true
	_, err := runSession(context.Background(), corpus, opts, 0)
	if !errors.Is(err, ErrUnexpectedMessage) {
		t.Fatalf("want ErrUnexpectedMessage, got %v", err)
	}
}

// TestSessionEpochFiltering: protocol traffic from an older membership
// epoch is dropped, newer traffic parked until the session catches up;
// control frames pass regardless of their stamp.
func TestSessionEpochFiltering(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	opts := testOpts(tr, part)
	opts.Fabric = &Fabric{Store: memStore{}, Fingerprint: 42}
	st := newStepper(corpus, opts, 0)
	s := st.s
	s.epoch = 1
	rep := toWire(corpus.Items, corpus.Transactions[part[1][0]])
	// Stale (epoch 0), future (epoch 2) and a control message precede the
	// coordinator's current-epoch StartMsg to itself.
	tr.SetEpoch(1, 0)
	if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 0, Reps: map[int]WireTxn{1: rep}}); err != nil {
		t.Fatal(err)
	}
	tr.SetEpoch(1, 2)
	if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 5, Reps: map[int]WireTxn{1: rep}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, 0, CheckpointMsg{Slot: 1, Fingerprint: 42, State: SessionState{Round: 3}}); err != nil {
		t.Fatal(err)
	}
	tr.SetEpoch(0, 1) // the coordinator's own StartMsg goes out now
	st.phase(t)
	if s.phase != PhaseBroadcastGlobals {
		t.Fatalf("after startup: %s", s.phase)
	}
	if s.staleDropped != 1 {
		t.Errorf("staleDropped = %d, want 1", s.staleDropped)
	}
	if len(s.pendFuture) != 1 || s.pendFuture[0].Epoch != 2 {
		t.Errorf("future-epoch envelope not parked: %+v", s.pendFuture)
	}
	if s.fab.latest[1] != 3 {
		t.Errorf("the epoch-2 replica was not taken: slot 1's latest round is %d, want 3", s.fab.latest[1])
	}
	// Once the session advances to epoch 2, the parked envelope surfaces.
	s.epoch = 2
	env, ok := s.takeFuture()
	if !ok || env.Epoch != 2 {
		t.Fatalf("parked envelope not released at epoch 2: ok=%v %+v", ok, env)
	}
}

// TestSessionDeadlineHookExtends: under the fabric a deadline expiry is a
// failure-detection event, not an immediate session failure — the session
// grants RecoveryWindows extra windows before it gives up with
// ErrRecoveryTimeout.
func TestSessionDeadlineHookExtends(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	opts := memberOpts(corpus, tr)
	opts.RoundTimeout = 30 * time.Millisecond
	opts.Fabric = &Fabric{Store: memStore{}, RecoveryWindows: 2}
	// No StartMsg ever arrives: the startup wait must expire three times.
	t0 := time.Now()
	_, err := runSession(context.Background(), corpus, opts, 1)
	if !errors.Is(err, ErrRecoveryTimeout) || !strings.Contains(err.Error(), "through 3 windows") {
		t.Fatalf("want ErrRecoveryTimeout after 3 windows, got %v", err)
	}
	if d := time.Since(t0); d < 90*time.Millisecond {
		t.Errorf("gave up after %v, before three 30ms windows", d)
	}
}

// TestSessionInstallVetsState: a state is bytes this process did not write —
// a checkpoint file, a streamed join state — and its numbers index slices and
// the interning table. One corruption per field: every one must come back as
// ErrUnexpectedMessage before anything is assigned (no panic, the session
// exactly as it was), from a restore and from a rollback alike.
func TestSessionInstallVetsState(t *testing.T) {
	_, states := runSolo(t, 11)
	good := states[len(states)-1]
	corpus, _ := miniCorpus(t, 6)
	part := EqualPartition(len(corpus.Transactions), 1, 11)
	clone := func() *SessionState {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(good); err != nil {
			t.Fatal(err)
		}
		st := new(SessionState)
		if err := gob.NewDecoder(&buf).Decode(st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	pastTable := txn.ItemID(corpus.Items.Len() + 1<<20)
	withItem := func(reps []WireTxn, id txn.ItemID) {
		reps[len(reps)-1] = WireTxn{Items: []txn.ItemID{0, id}}
	}
	cases := []struct {
		name    string
		corrupt func(st *SessionState)
	}{
		{"K zero", func(st *SessionState) { st.K = 0 }},
		{"K past the representatives", func(st *SessionState) { st.K++ }},
		{"Zs for another peer count", func(st *SessionState) { st.Zs = append(st.Zs, []int{0}) }},
		{"Zs cluster past K", func(st *SessionState) { st.Zs[0][0] = st.K }},
		{"Zs negative cluster", func(st *SessionState) { st.Zs[0][0] = -1 }},
		{"Assign too short", func(st *SessionState) { st.Assign = st.Assign[1:] }},
		{"Assign past K", func(st *SessionState) { st.Assign[0] = st.K }},
		{"Assign below the trash cluster", func(st *SessionState) { st.Assign[0] = -2 }},
		{"Sizes too short", func(st *SessionState) { st.Sizes = st.Sizes[1:] }},
		{"Sizes too long", func(st *SessionState) { st.Sizes = append(st.Sizes, 0) }},
		{"Global too short", func(st *SessionState) { st.Global = st.Global[1:] }},
		{"Global item past the table", func(st *SessionState) { withItem(st.Global, pastTable) }},
		{"Global negative item", func(st *SessionState) { withItem(st.Global, -1) }},
		{"LocalRp too long", func(st *SessionState) { st.LocalRp = append(st.LocalRp, WireTxn{}) }},
		{"LocalRp item past the table", func(st *SessionState) { withItem(st.LocalRp, pastTable) }},
		{"LocalRp negative item", func(st *SessionState) { withItem(st.LocalRp, -3) }},
	}
	for _, c := range cases {
		bad := clone()
		c.corrupt(bad)

		tr := p2p.NewChanTransport(1)
		opts := testOpts(tr, part)
		opts.Fabric = &Fabric{Store: memStore{}}
		d, _ := testDriver(corpus, opts, 0)
		outs := d.s.Step(loaded{bad})
		if d, ok := outs[len(outs)-1].(done); !ok || !errors.Is(d.err, ErrUnexpectedMessage) {
			t.Errorf("%s: a restore ended with %v, want an error wrapping ErrUnexpectedMessage", c.name, outs)
		}

		// Mid-run: a session that holds a good state keeps all of it.
		d, _ = testDriver(corpus, testOpts(tr, part), 0)
		s := d.s
		if err := s.install(clone()); err != nil {
			t.Fatalf("%s: the uncorrupted state does not install: %v", c.name, err)
		}
		before := s.capture()
		if err := s.install(bad); !errors.Is(err, ErrUnexpectedMessage) {
			t.Errorf("%s: install returned %v, want an error wrapping ErrUnexpectedMessage", c.name, err)
		}
		var a, b bytes.Buffer
		if err := gob.NewEncoder(&a).Encode(before); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(&b).Encode(s.capture()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: a rejected state changed the session", c.name)
		}
		tr.Close()
	}
}

// TestReconflateMatchesWire: a job hands its representatives to the corpus by
// content (Reconflate) exactly as re-conflating their wire form does, the
// oracle, run on a twin corpus: the same representative ids, the same table
// length and the same saved bytes after every job, for both algorithms, one
// and three peers, both engines and two cluster counts, twice over, so that
// later jobs meet the items earlier ones handed over. First, job ids follow
// the schedule: the same representatives in a table that numbered their
// items in reverse must leave the same corpus.
func TestReconflateMatchesWire(t *testing.T) {
	content, _ := miniCorpus(t, 16)
	wire, _ := miniCorpus(t, 16)
	saved := func(c *txn.Corpus) []byte {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	job := func(c *txn.Corpus, pk bool, m int, fast bool, k int) *Result {
		cx := sim.NewContext(c, sim.Params{F: 0.5, Gamma: 0.6})
		res, err := Run(context.Background(), cx, c, Options{
			K: k, Params: cx.Params, Peers: m, Seed: int64(k + m),
			Partition: EqualPartition(len(c.Transactions), m, int64(k+m)), PKMeans: pk, Fast: fast,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := job(content, false, 1, true, 4)
	tab, base := wire.Items.Stage(), res.Items.Base()
	for id := txn.ItemID(res.Items.Len()) - 1; id >= base; id-- { // the job's items, numbered last first
		it := res.Items.Get(id)
		tab.InternSynthetic(it.Path, it.Answer, it.Vector, it.Constituents)
	}
	reps := unwireReps(tab, wireReps(res.Items, res.Reps)) // found by content: tab's ids
	Reconflate(content.Items, res.Items, res.Reps)
	Reconflate(wire.Items, tab, reps)
	if tab.Len() != res.Items.Len() || !bytes.Equal(saved(content), saved(wire)) {
		t.Fatal("reversed job ids: the corpora part")
	}
	for pass := 0; pass < 2; pass++ {
		for _, pk := range []bool{false, true} {
			for _, m := range []int{1, 3} {
				for _, fast := range []bool{false, true} {
					for _, k := range []int{4, 16} {
						label := fmt.Sprintf("pass %d pk=%v m=%d fast=%v k=%d", pass, pk, m, fast, k)
						a, b := job(content, pk, m, fast, k), job(wire, pk, m, fast, k)
						got := Reconflate(content.Items, a.Items, a.Reps)
						want := unwireReps(wire.Items, wireReps(b.Items, b.Reps))
						for j := range want {
							if (got[j] == nil) != (want[j] == nil) || got[j] != nil && !slices.Equal(got[j].Items, want[j].Items) {
								t.Fatalf("%s: representative %d is %v by content, %v by wire", label, j, got[j], want[j])
							}
						}
						if content.Items.Len() != wire.Items.Len() || !bytes.Equal(saved(content), saved(wire)) {
							t.Fatalf("%s: the corpora part: %d and %d items", label, content.Items.Len(), wire.Items.Len())
						}
					}
				}
			}
		}
	}
}
