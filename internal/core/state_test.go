package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"slices"
	"testing"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/p2p"
	"xmlclust/internal/txn"
)

// testHooks adapts closures to the Hooks interface.
type testHooks struct {
	onBoundary   func(st *SessionState) (*SessionState, error)
	onControl    func(env p2p.Envelope) (*SessionState, error)
	onDeadline   func(phase Phase, round int) (*SessionState, error)
	onSendFailed func(to, round int, err error) error
}

func (h *testHooks) SendFailed(to, round int, err error) error {
	if h.onSendFailed != nil {
		return h.onSendFailed(to, round, err)
	}
	return err
}

func (h *testHooks) RoundBoundary(st *SessionState) (*SessionState, error) {
	if h.onBoundary != nil {
		return h.onBoundary(st)
	}
	return nil, nil
}

func (h *testHooks) Control(env p2p.Envelope) (*SessionState, error) {
	if h.onControl != nil {
		return h.onControl(env)
	}
	return nil, nil
}

func (h *testHooks) Deadline(phase Phase, round int) (*SessionState, error) {
	if h.onDeadline != nil {
		return h.onDeadline(phase, round)
	}
	return nil, nil
}

// testCtl is a minimal control-plane payload for exercising Hooks.Control.
type testCtl struct{ N int }

func (testCtl) SessionControl() {}

// runSolo runs a single-peer session to completion, capturing the boundary
// state of every round through the fabric hook.
func runSolo(t *testing.T, seed int64) (*SessionResult, []*SessionState) {
	t.Helper()
	corpus, _ := miniCorpus(t, 6)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, seed)
	var states []*SessionState
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) {
		cfg.Seed = seed
		cfg.Hooks = &testHooks{onBoundary: func(st *SessionState) (*SessionState, error) {
			states = append(states, st)
			return nil, nil
		}}
	})
	if err := tr.Send(0, 0, startMsgFor(2, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, states
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

// TestSessionResumeFromEveryBoundary: installing the state captured at any
// round boundary into a fresh session must replay the remaining rounds to
// the same final assignments, representatives and round count — the
// determinism contract checkpoint/restore recovery rests on.
func TestSessionResumeFromEveryBoundary(t *testing.T) {
	ref, states := runSolo(t, 11)
	corpus, _ := miniCorpus(t, 6)
	part := EqualPartition(len(corpus.Transactions), 1, 11)
	for i, st := range states {
		tr := p2p.NewChanTransport(1)
		p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) {
			cfg.Seed = 11
			cfg.Initial = st
			cfg.Hooks = &testHooks{}
		})
		res, err := p.RunSession(context.Background())
		tr.Close()
		if err != nil {
			t.Fatalf("resume from boundary %d: %v", i, err)
		}
		if res.Rounds != ref.Rounds {
			t.Fatalf("resume from boundary %d: %d rounds, reference %d", i, res.Rounds, ref.Rounds)
		}
		if !slices.Equal(res.Assign, ref.Assign) {
			t.Fatalf("resume from boundary %d diverged in assignments", i)
		}
		if !cluster.RepsEqual(res.Reps, ref.Reps) {
			t.Fatalf("resume from boundary %d diverged in representatives", i)
		}
	}
}

// TestSessionRollbackMidRun: a hook that rolls the session back to an
// earlier boundary must not change the converged outcome (the protocol is
// deterministic, so the replayed rounds reproduce themselves).
func TestSessionRollbackMidRun(t *testing.T) {
	ref, states := runSolo(t, 11)
	if len(states) < 2 {
		t.Skip("session converged before a rollback target existed")
	}
	corpus, _ := miniCorpus(t, 6)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 11)
	rolled := false
	var saved *SessionState
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) {
		cfg.Seed = 11
		cfg.Hooks = &testHooks{onBoundary: func(st *SessionState) (*SessionState, error) {
			if st.Round == 0 && saved == nil {
				saved = st
			}
			if st.Round == 1 && !rolled {
				rolled = true
				return saved, nil
			}
			return nil, nil
		}}
	})
	if err := tr.Send(0, 0, startMsgFor(2, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rolled {
		t.Fatal("rollback hook never fired")
	}
	if !slices.Equal(res.Assign, ref.Assign) || !cluster.RepsEqual(res.Reps, ref.Reps) {
		t.Fatal("rollback changed the converged outcome")
	}
}

// TestSessionRejoinInstallsControlState: a peer launched in PhaseRejoin
// must park protocol traffic until its hook turns a control message into an
// installable state, then replay to the reference outcome.
func TestSessionRejoinInstallsControlState(t *testing.T) {
	ref, states := runSolo(t, 11)
	corpus, _ := miniCorpus(t, 6)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 11)
	st := states[len(states)-1]
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) {
		cfg.Seed = 11
		cfg.Rejoin = true
		cfg.Hooks = &testHooks{onControl: func(env p2p.Envelope) (*SessionState, error) {
			if _, ok := env.Payload.(testCtl); ok {
				return st, nil
			}
			return nil, nil
		}}
	})
	if err := tr.Send(0, 0, testCtl{N: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Assign, ref.Assign) || !cluster.RepsEqual(res.Reps, ref.Reps) {
		t.Fatal("rejoined session diverged from the reference outcome")
	}
}

// TestSessionRejoinWithoutHooksFails: PhaseRejoin without a fabric layer
// can never terminate; the session must reject the configuration.
func TestSessionRejoinWithoutHooksFails(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 1)
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) { cfg.Rejoin = true })
	_, err := p.RunSession(context.Background())
	if !errors.Is(err, ErrUnexpectedMessage) {
		t.Fatalf("want ErrUnexpectedMessage, got %v", err)
	}
}

// TestSessionEpochFiltering: protocol traffic from an older membership
// epoch is dropped, newer traffic parked until the session catches up;
// epoch-less control frames pass regardless.
func TestSessionEpochFiltering(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	ctlSeen := 0
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) {
		cfg.Epoch = 1
		cfg.Hooks = &testHooks{onControl: func(env p2p.Envelope) (*SessionState, error) {
			ctlSeen++
			return nil, nil
		}}
	})
	st := newStepper(p, p.cfg.Transport.Peers())
	s := st.s
	if s.epoch != 1 {
		t.Fatalf("session epoch = %d, want 1", s.epoch)
	}
	rep := toWire(corpus.Items, corpus.Transactions[part[1][0]])
	// Stale (epoch 0), future (epoch 2) and a control message precede the
	// coordinator's current-epoch StartMsg.
	tr.SetEpoch(1, 0)
	if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 0, Reps: map[int]WireTxn{1: rep}}); err != nil {
		t.Fatal(err)
	}
	tr.SetEpoch(1, 2)
	if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 5, Reps: map[int]WireTxn{1: rep}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, 0, testCtl{N: 7}); err != nil {
		t.Fatal(err)
	}
	tr.SetEpoch(0, 1)
	if err := tr.Send(0, 0, startMsgFor(2, 2)); err != nil {
		t.Fatal(err)
	}
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
	if ctlSeen != 1 {
		t.Errorf("control hook saw %d messages, want 1", ctlSeen)
	}
	// Once the session advances to epoch 2, the parked envelope surfaces.
	s.epoch = 2
	env, ok := s.takeFuture()
	if !ok || env.Epoch != 2 {
		t.Fatalf("parked envelope not released at epoch 2: ok=%v %+v", ok, env)
	}
}

// TestSessionDeadlineHookExtends: with fabric hooks the deadline expiry is
// a failure-detection event, not an immediate session failure — the hook
// may grant extra windows before giving up with its own error.
func TestSessionDeadlineHookExtends(t *testing.T) {
	corpus, _ := miniCorpus(t, 2)
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 1)
	wantErr := errors.New("suspect confirmed dead")
	calls := 0
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) {
		cfg.RoundTimeout = 30 * time.Millisecond
		cfg.Hooks = &testHooks{onDeadline: func(phase Phase, round int) (*SessionState, error) {
			calls++
			if calls < 3 {
				return nil, nil
			}
			return nil, wantErr
		}}
	})
	// No StartMsg ever arrives: the startup wait must expire three times.
	_, err := p.RunSession(context.Background())
	if !errors.Is(err, wantErr) {
		t.Fatalf("want the hook's error, got %v", err)
	}
	if calls != 3 {
		t.Errorf("deadline hook called %d times, want 3", calls)
	}
}

// TestSessionInstallVetsState: a state is bytes this process did not write —
// a checkpoint file, a streamed join state — and its numbers index slices and
// the interning table. One corruption per field: every one must come back as
// ErrUnexpectedMessage before anything is assigned (no panic, the session
// exactly as it was), from RunSession's Initial install and from a rollback
// alike.
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
		p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) { cfg.Seed, cfg.Initial = 11, bad })
		if _, err := p.RunSession(context.Background()); !errors.Is(err, ErrUnexpectedMessage) {
			t.Errorf("%s: RunSession returned %v, want an error wrapping ErrUnexpectedMessage", c.name, err)
		}

		// Mid-run: a session that holds a good state keeps all of it.
		s := newSession(testPeer(corpus, tr, 0, part, nil))
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
