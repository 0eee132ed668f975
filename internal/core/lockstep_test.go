package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

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

// lockstep runs Run's configuration on the scheduler with the delivery order
// drawn from the schedule seed: each envelope comes from a random non-empty
// link instead of the lowest one.
func lockstep(t *testing.T, corpus *txn.Corpus, opts Options, schedule int64) *Result {
	t.Helper()
	sch := newScheduler(context.Background(), sim.NewContext(corpus, opts.Params), corpus, opts)
	rng := rand.New(rand.NewSource(schedule))
	sch.pick = func(ready []int) int { return ready[rng.Intn(len(ready))] }
	res, err := sch.run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// interleave runs every peer of opts as a stepper on the test goroutine over
// one ChanTransport, in an order drawn from the schedule seed: at each step
// a random ready peer either answers its held compute request or takes the
// next envelope queued for it. The scheduler drains every queue before any
// peer computes; here a peer can run a round ahead of one that has not read
// its mail yet. early counts the round messages delivered to a peer still
// in an earlier round.
func interleave(t *testing.T, corpus *txn.Corpus, opts Options, schedule int64) (peers []*stepper, early int) {
	t.Helper()
	tr := p2p.NewChanTransport(opts.Peers)
	defer tr.Close()
	opts.Transport = tr
	peers = make([]*stepper, opts.Peers)
	for i := range peers {
		peers[i] = newStepper(corpus, opts, i)
	}
	rng := rand.New(rand.NewSource(schedule))
	for {
		for _, st := range peers {
			st.flush(t)
			if st.err != nil {
				t.Fatal(st.err)
			}
		}
		var ready []*stepper // a peer listed twice may do either
		for _, st := range peers {
			if st.held != nil {
				ready = append(ready, st)
			}
			if !st.done && len(tr.Recv(st.s.id)) > 0 {
				ready = append(ready, st)
			}
		}
		if len(ready) == 0 {
			for _, st := range peers {
				if !st.done {
					t.Fatalf("schedule %d: peer %d stalls in %s", schedule, st.s.id, st.s.phase)
				}
			}
			return peers, early
		}
		st := ready[rng.Intn(len(ready))]
		if rng.Intn(2) == 0 && st.advance(t) {
			continue
		}
		select {
		case env := <-tr.Recv(st.s.id):
			round := -1
			switch msg := env.Payload.(type) {
			case GlobalRepsMsg:
				round = msg.Round
			case LocalRepsMsg:
				round = msg.Round
			}
			if round > st.s.round {
				early++
			}
			st.deliver(env)
		default:
			st.advance(t)
		}
	}
}

// TestLockstepMatchesRun: the result does not depend on Run's delivery order.
// Under 20 random delivery schedules per configuration the machines end
// where Run's fixed schedule ends: same assignments, representatives, round
// count and per-round traffic, under either policy.
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
						t.Errorf("pk=%v m=%d k=%d seed=%d: the random schedule ended in %d rounds, Run in %d, or assignments or representatives differ",
							pk, m, k, seed, got.Rounds, want.Rounds)
					}
					for i := range want.Peers {
						assertTrafficEqual(t, fmt.Sprintf("pk=%v m=%d k=%d seed=%d peer %d", pk, m, k, seed, i), want.Peers[i], got.Peers[i])
					}
				}
			}
		}
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
