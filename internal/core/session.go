package core

import (
	"context"
	"fmt"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/fnv"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// checkStart compares N0's StartMsg with the one this peer computed for its
// own configuration.
func checkStart(want *StartMsg, got StartMsg) error {
	switch {
	case got.K != want.K:
		return fmt.Errorf("%w: k = %d here, %d at N0", ErrConfigMismatch, want.K, got.K)
	case got.F != want.F || got.Gamma != want.Gamma:
		return fmt.Errorf("%w: (f, γ) = (%v, %v) here, (%v, %v) at N0",
			ErrConfigMismatch, want.F, want.Gamma, got.F, got.Gamma)
	case got.Seed != want.Seed:
		return fmt.Errorf("%w: seed = %d here, %d at N0", ErrConfigMismatch, want.Seed, got.Seed)
	case got.Txns != want.Txns:
		return fmt.Errorf("%w: corpus has %d transactions here, %d at N0", ErrConfigMismatch, want.Txns, got.Txns)
	case got.PartitionHash != want.PartitionHash:
		return fmt.Errorf("%w: data partition or corpus content diverges from N0's (check the corpus and the split flags)", ErrConfigMismatch)
	}
	return nil
}

// PartitionFingerprint digests a data partition together with the corpus
// content it covers: the transaction indices of every part, each
// transaction's item ids, and each referenced item's complete path and answer
// text (FNV-1a). Item ids are interned in first-seen order, so two corpora of
// one shape can agree on every id and still differ in every answer; the text
// is what tells them apart. Each item is folded once, in id order, after the
// partition.
func PartitionFingerprint(corpus *txn.Corpus, part [][]int) uint64 {
	h := fnv.Offset
	seen := make([]bool, corpus.Items.Len())
	for _, p := range part {
		h = fnv.Mix(h, ^uint64(0)) // part separator
		for _, idx := range p {
			h = fnv.Mix(h, uint64(idx))
			items := corpus.Transactions[idx].Items
			h = fnv.Mix(h, uint64(len(items)))
			for _, id := range items {
				h = fnv.Mix(h, uint64(id))
				seen[id] = true
			}
		}
	}
	paths := corpus.Items.Paths()
	for id, ok := range seen {
		if !ok {
			continue
		}
		it := corpus.Items.Get(txn.ItemID(id))
		h = fnv.Mix(h, uint64(id))
		path := paths.Path(it.Path)
		h = fnv.Mix(h, uint64(len(path)))
		for _, step := range path {
			h = fnv.MixString(h, step)
		}
		h = fnv.MixString(h, it.Answer)
	}
	return h
}

// run drives the session's state machine from its opening outputs to its
// end and does all of its I/O: it reads the transport under ctx, owns the
// real timers, runs compute requests on the peer's cluster.Rounds, and under
// the fabric saves and loads checkpoints, sends control traffic epoch-less,
// resets connections and turns a leave request into an input. Errors are
// *SessionError values wrapping the typed causes of phase.go; cancellation
// surfaces as ErrCanceled, observed before each send, at blocking receives
// and around relocation passes.
func (d *driver) run(ctx context.Context, outs []any) (*PeerResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, tr, fab := d.s, d.opts.Transport, d.opts.Fabric
	for epoch := -1; ; outs = s.Step(d.in) {
		if s.epoch != epoch {
			epoch = s.epoch
			tr.SetEpoch(s.id, epoch)
		}
		d.in = nil
		round, phase := s.round, s.phase
		var err error
		for i := 0; err == nil && i < len(outs); i++ {
			switch o := outs[i].(type) {
			case send:
				if err = canceled(ctx); err == nil { // a send can block for DialTimeout
					err = d.send(o)
				}
				if err != nil {
					round, phase = o.round, o.phase
				}
			case armTimer:
				d.arm(o.startup)
			case Event:
				d.observe(o)
			case checkpoint:
				err = fab.Store.Save(s.id, fab.Fingerprint, o.st)
			case restore:
				var st *SessionState
				st, err = fab.Store.Load(s.id, o.round, fab.Fingerprint)
				d.in = loaded{st}
			case reset:
				tr.ResetConn(o.to)
			case compute:
				err = d.compute(ctx, o)
			case done:
				if err = o.err; err == nil {
					res := s.result()
					res.WallTime = time.Since(d.t0)
					return res, nil
				}
			}
		}
		for err == nil && d.in == nil {
			err = d.recv(ctx)
		}
		if err != nil {
			return nil, &SessionError{Peer: s.id, Round: round, Phase: phase, Err: err}
		}
	}
}

// driver is the I/O side of one session: RunPeer's transport, clock and
// compute sections, and the compute sections of Run's scheduler. in is the
// machine's next input.
type driver struct {
	opts     *Options
	cx       *sim.Context
	s        *session
	engine   *cluster.Rounds
	t0       time.Time // session start, for Event.Elapsed
	deadline time.Time // of the armed timer; zero = none
	leave    <-chan struct{}
	in       any
}

// newDriver builds the driver of peer id's session of a run of opts and
// returns it with the machine's opening outputs. cx is the similarity
// context over corpus, start the run's StartMsg.
func newDriver(cx *sim.Context, corpus *txn.Corpus, opts *Options, start StartMsg, id int) (*driver, []any) {
	var local []*txn.Transaction
	for _, idx := range opts.Partition[id] {
		local = append(local, corpus.Transactions[idx])
	}
	engine := cluster.NewRounds(cluster.RepConfig{Ctx: cx, Rule: opts.Rule, Workers: opts.Workers}, local, opts.Fast)
	s, outs := newMachine(engine.Items(), local, corpus, opts, start, id)
	d := &driver{opts: opts, cx: cx, s: s, t0: time.Now(), engine: engine}
	if opts.Fabric != nil {
		d.leave = opts.Fabric.Leave
	}
	return d, outs
}

// arm starts the receive deadline. The wait on N0's StartMsg (and on a
// rejoin state) uses StartupTimeout: peer processes boot in any order, so
// it must tolerate the whole cluster's spin-up, not one round's slack.
func (d *driver) arm(startup bool) {
	t := d.opts.RoundTimeout
	if startup && d.opts.StartupTimeout != 0 {
		t = d.opts.StartupTimeout
	}
	d.deadline = time.Time{}
	if t > 0 {
		d.deadline = time.Now().Add(t)
	}
}

// observe stamps an event with the traffic so far, the work counters and
// the elapsed time, and publishes it.
func (d *driver) observe(ev Event) {
	if d.opts.Observer == nil {
		return
	}
	ev.SentMsgs, ev.SentBytes, ev.RecvMsgs, ev.RecvBytes = d.s.report.TrafficTotals()
	ev.CounterSnapshot = d.cx.Counters.Snapshot()
	ev.Elapsed = time.Since(d.t0)
	d.opts.Observer(ev)
}

// compute answers a compute request and accounts its wall time to the
// request's round: one relocation pass against the globals, the local
// representatives and the objective, or the global representatives of the
// clusters the peer owns.
func (d *driver) compute(ctx context.Context, c compute) (err error) {
	if err := canceled(ctx); err != nil {
		return err
	}
	s, out := d.s, computed{}
	s.report.Timed(c.round, func() {
		if c.refine {
			inputs := make([][]cluster.WeightedRep, len(s.zi))
			for i, j := range s.zi {
				inputs[i] = s.refineInputs(j)
			}
			out.refined = d.engine.GlobalReps(inputs)
			return
		}
		if out.assign, err = d.engine.Assign(ctx, s.global); err != nil {
			err = fmt.Errorf("%w: %w", ErrCanceled, err)
			return
		}
		out.localRp, out.sizes = d.engine.LocalReps(out.assign)
		out.objective = d.engine.Objective()
	})
	d.in = out
	return err
}

// recv waits for one envelope, the context, the armed timer or a leave
// request, and turns it into the machine's next input. A leave request is
// taken first, so the next boundary honours it.
func (d *driver) recv(ctx context.Context) error {
	select {
	case <-d.leave:
		d.leave, d.in = nil, leave{}
		return nil
	default:
	}
	var fired <-chan time.Time
	if !d.deadline.IsZero() {
		timer := time.NewTimer(time.Until(d.deadline))
		defer timer.Stop()
		fired = timer.C
	}
	select {
	case env, ok := <-d.opts.Transport.Recv(d.s.id):
		if !ok {
			return ErrTransportClosed
		}
		d.in = env
	case <-ctx.Done():
		return canceled(ctx)
	case <-fired:
		d.in = timeout{}
	case <-d.leave:
		d.leave, d.in = nil, leave{}
	}
	return nil
}

// send delivers a payload, a control message epoch-less, and accounts a
// protocol one; the machine judges a failure.
func (d *driver) send(o send) error {
	var err error
	if o.control {
		err = d.opts.Transport.SendStamped(d.s.id, o.to, p2p.EpochAny, o.payload)
	} else if err = d.opts.Transport.Send(d.s.id, o.to, o.payload); err == nil {
		d.account(o)
	}
	if err != nil {
		return d.s.sendFailed(o, err)
	}
	return nil
}

// account records a sent round message against its round. N0's StartMsg
// and a member's final AssignMsg are not round traffic.
func (d *driver) account(o send) {
	switch o.payload.(type) {
	case StartMsg, AssignMsg:
		return
	}
	d.s.report.SentMsgsByRound[o.round]++
	d.s.report.SentBytesByRound[o.round] += d.s.sizer(o.payload)
}

func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}
