package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

func newSession(p *Peer) *session {
	s, _ := newMachine(&p.cfg, p.cfg.Transport.Peers())
	return s
}

// stepper drives one session machine on the test goroutine through the
// driver's own routing, boundary and compute, with neither transport nor
// clock: sends are recorded, a boundary or compute request is held until
// advance answers it, and an armed timer is flagged.
type stepper struct {
	*driver
	sent  []send
	held  any
	armed bool
	done  bool
	err   error
}

func newStepper(p *Peer, m int) *stepper {
	d, outs := newDriver(p, m)
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
		case boundary, compute:
			st.held = o
		case done:
			st.done, st.err = true, o.err
		}
	}
}

// deliver hands one envelope to the driver's router and steps the machine
// with whatever input comes of it.
func (st *stepper) deliver(env p2p.Envelope) {
	st.in = nil
	if err := st.route(env); err != nil {
		st.done, st.err = true, err
	} else if st.in != nil {
		st.take(st.s.Step(st.in))
	}
}

// got delivers payload from peer from, stamped with the machine's epoch.
func (st *stepper) got(from int, payload any) {
	st.deliver(p2p.Envelope{From: from, To: st.s.id, Epoch: st.s.epoch, Payload: payload})
}

// advance answers the held request; it reports whether one was held.
func (st *stepper) advance(t testing.TB) bool {
	var err error
	switch h := st.held.(type) {
	case boundary:
		err = st.boundary(context.Background())
	case compute:
		err = st.compute(context.Background(), h)
	default:
		return false
	}
	st.held = nil
	if err != nil {
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
		case env := <-st.cfg.Transport.Recv(st.s.id):
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

// lockstep runs Run's configuration as m machines on one goroutine. Held
// requests are answered at once; envelopes wait on per-link FIFO queues and
// are delivered one at a time from a link drawn from the schedule seed. A
// virtual clock ticks once per delivery, and a peer left waiting with
// nothing to deliver gets its armed timer fired at its deadline.
func lockstep(t *testing.T, corpus *txn.Corpus, opts Options, schedule int64) *Result {
	t.Helper()
	cx := sim.NewContext(corpus, opts.Params)
	m := opts.Peers
	const window = 1 << 20 // virtual ticks per timer
	peers := make([]*stepper, m)
	deadlines := make([]int, m)
	links := make([][]p2p.Envelope, m*m) // from*m + to
	start := NewStartMsg(cx, corpus, opts)
	for i := range peers {
		peers[i] = newStepper(NewPeer(peerConfig(cx, corpus, opts, &start, i)), m)
		links[i] = append(links[i], p2p.Envelope{From: 0, To: i, Payload: start})
	}
	rng := rand.New(rand.NewSource(schedule))
	for clock := 0; ; clock++ {
		for i, st := range peers {
			for st.advance(t) {
			}
			for _, o := range st.sent {
				links[i*m+o.to] = append(links[i*m+o.to], p2p.Envelope{From: i, To: o.to, Payload: o.payload})
			}
			st.sent = nil
			if st.armed {
				st.armed, deadlines[i] = false, clock+window
			}
			if st.err != nil {
				t.Fatalf("peer %d at tick %d: %v", i, clock, st.err)
			}
		}
		var ready []int
		for l, q := range links {
			if len(q) > 0 && !peers[l%m].done {
				ready = append(ready, l)
			}
		}
		if len(ready) > 0 {
			l := ready[rng.Intn(len(ready))]
			env := links[l][0]
			links[l] = links[l][1:]
			peers[l%m].deliver(env)
			continue
		}
		waiting := -1
		for i, st := range peers {
			if !st.done && (waiting < 0 || deadlines[i] < deadlines[waiting]) {
				waiting = i
			}
		}
		if waiting < 0 {
			break
		}
		clock = deadlines[waiting]
		peers[waiting].take(peers[waiting].s.Step(timeout{}))
	}
	res := &Result{Assign: make([]int, len(corpus.Transactions)), Reps: peers[0].s.global}
	for i, st := range peers {
		res.Rounds = max(res.Rounds, st.s.rounds)
		for li, a := range st.s.assign {
			res.Assign[opts.Partition[i][li]] = a
		}
	}
	return res
}

// TestLockstepMatchesRun: the machine has no hidden I/O. Stepped on one
// goroutine under 20 delivery schedules per configuration, with no
// transport, timer or goroutine of its own, it ends where Run's concurrent
// sessions end: same assignments, representatives and round count, under
// either policy.
func TestLockstepMatchesRun(t *testing.T) {
	gen, _ := dataset.ByName("DBLP")
	corpus := gen(dataset.Spec{Docs: 30, Seed: 29}).BuildCorpus(dataset.ByHybrid, 8, 1)
	params := sim.Params{F: 0.5, Gamma: 0.6}
	for _, pk := range []bool{false, true} {
		for _, m := range []int{1, 3, 4} {
			for _, k := range []int{2, 5, 8} {
				for seed := int64(1); seed <= 20; seed++ {
					opts := Options{
						K: k, Params: params, Peers: m, Seed: seed, Workers: 1, Fast: seed%2 == 0, PKMeans: pk,
						Partition: EqualPartition(len(corpus.Transactions), m, seed),
					}
					want, err := Run(context.Background(), sim.NewContext(corpus, params), corpus, opts)
					if err != nil {
						t.Fatal(err)
					}
					got := lockstep(t, corpus, opts, seed*7919+int64(m))
					if !slices.Equal(got.Assign, want.Assign) || got.Rounds != want.Rounds ||
						RepsDigest(corpus.Items, got.Reps) != RepsDigest(corpus.Items, want.Reps) {
						t.Errorf("pk=%v m=%d k=%d seed=%d: lockstep ended in %d rounds, Run in %d, or assignments or representatives differ",
							pk, m, k, seed, got.Rounds, want.Rounds)
					}
				}
			}
		}
	}
}

// TestLockstepStallFiresTimer: a peer left waiting for a neighbour that
// never speaks gets its timer fired on the virtual clock and fails with
// ErrRoundDeadline.
func TestLockstepStallFiresTimer(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	st := newStepper(testPeer(corpus, nil, 0, part, nil), 2)
	st.got(0, startMsgFor(2, 2))
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
