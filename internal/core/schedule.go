package core

import (
	"context"
	"slices"
	"time"

	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// Run executes CXK-means (or, with PKMeans, the PK-means baseline) in one
// process: it builds one session machine per partition part and steps all m
// of them on one deterministic schedule (see scheduler). Peer 0's machine
// plays node N0 at the start and collects the corpus-wide assignment at the
// end, as in a RunPeer deployment. The corpus supplies the transaction set S
// and interning tables; cx must be a similarity context over the same corpus
// with Params equal to opts.Params.
//
// Cancellation of ctx aborts the run at its next safe boundary and Run
// returns an error wrapping ErrCanceled; a nil ctx never cancels.
func Run(ctx context.Context, cx *sim.Context, corpus *txn.Corpus, opts Options) (*Result, error) {
	if err := opts.check(); err != nil {
		return nil, err
	}
	return newScheduler(ctx, cx, corpus, opts).run()
}

// scheduler steps the m session machines of an in-process run on one
// goroutine. Envelopes wait on per-link FIFO queues, and run alternates two
// steps until nothing is queued and nothing is held:
//
//   - drain delivers every queued envelope, lowest (sender, receiver) link
//     first, and carries out each machine's outputs in order as RunPeer's
//     driver does: a send is accounted and queued (dropped if its receiver
//     is done), an Event is stamped and observed, a compute request is held;
//   - wave runs the held compute requests together and applies their
//     results in peer order.
//
// Draining fully before a wave puts every peer's compute of a phase into one
// wave, so peers still compute in parallel; only delivery is serial. The
// schedule, and with it every event, is a function of the options. Timers
// are never armed: a run left with nothing to deliver or compute while a
// machine still waits fails at once with ErrStalled.
type scheduler struct {
	ctx     context.Context
	opts    Options
	cx      *sim.Context
	peers   []*driver
	links   [][]p2p.Envelope // sender*m + receiver
	held    []*compute       // per peer: the compute request it waits on
	results []*PeerResult    // per peer, once done
}

func newScheduler(ctx context.Context, cx *sim.Context, corpus *txn.Corpus, opts Options) *scheduler {
	if ctx == nil {
		ctx = context.Background()
	}
	m := opts.Peers
	r := &scheduler{
		ctx: ctx, opts: opts, cx: cx,
		peers:   make([]*driver, m),
		links:   make([][]p2p.Envelope, m*m),
		held:    make([]*compute, m),
		results: make([]*PeerResult, m),
	}
	r.opts.Fabric, r.opts.Rejoin = nil, false // Run ignores them (see Options)
	start := NewStartMsg(cx, corpus, opts)
	for i := range m {
		var outs []any
		r.peers[i], outs = newDriver(cx, corpus, &r.opts, start, i)
		_ = r.carry(i, outs) // sends and a timer: a machine cannot fail before its first input
	}
	return r
}

// run drives the machines to their end and reports the run: the corpus-wide
// assignment is the one peer 0's machine collected. The first failure, of a
// machine or of a compute request, ends the run at once: no other goroutine
// is left to stop.
func (r *scheduler) run() (*Result, error) {
	t0 := time.Now()
	for {
		if err := r.drain(); err != nil {
			return nil, err
		}
		if !slices.ContainsFunc(r.held, func(c *compute) bool { return c != nil }) {
			break
		}
		if err := r.wave(); err != nil {
			return nil, err
		}
	}
	for i, sr := range r.results {
		if sr == nil {
			return nil, r.fail(i, ErrStalled)
		}
	}
	wall := time.Since(t0)

	res := &Result{
		Assign:   r.results[0].Global,
		Reps:     r.results[0].Reps,
		Items:    r.results[0].Items,
		WallTime: wall,
		Peers:    make([]PeerReport, len(r.peers)),
	}
	for i, pr := range r.results {
		res.Peers[i] = pr.Report
		res.Rounds = max(res.Rounds, pr.Rounds)
		res.Capped = res.Capped || pr.Capped
	}
	if r.opts.Observer != nil {
		msgs, bytes := res.TotalTraffic()
		r.opts.Observer(Event{
			Kind: EventDone, Peer: -1, Round: res.Rounds, Phase: PhaseDone,
			SentMsgs: msgs, SentBytes: bytes,
			CounterSnapshot: r.cx.Counters.Snapshot(),
			Elapsed:         wall,
		})
	}
	return res, nil
}

// drain delivers queued envelopes until none is left.
func (r *scheduler) drain() error {
	m := len(r.peers)
	for {
		l := r.next()
		if l < 0 {
			return nil
		}
		env := r.links[l][0]
		r.links[l] = r.links[l][1:]
		if err := r.step(l%m, env); err != nil {
			return err
		}
	}
}

// next returns the lowest link with a queued envelope, or -1 if every queue
// is empty.
func (r *scheduler) next() int {
	return slices.IndexFunc(r.links, func(q []p2p.Envelope) bool { return len(q) > 0 })
}

// wave runs the held compute requests — inline when there is one, one at a
// time under SerializeCompute, concurrently otherwise — and applies their
// results in peer order.
func (r *scheduler) wave() error {
	var ids []int
	for i, c := range r.held {
		if c != nil {
			ids = append(ids, i)
		}
	}
	errs := make([]error, len(r.peers))
	run := func(i int) { errs[i] = r.peers[i].compute(r.ctx, *r.held[i]) }
	if len(ids) == 1 || r.opts.SerializeCompute {
		for _, i := range ids {
			run(i)
		}
	} else {
		finished := make(chan struct{})
		for _, i := range ids {
			go func() {
				run(i)
				finished <- struct{}{}
			}()
		}
		for range ids {
			<-finished
		}
	}
	for _, i := range ids {
		r.held[i] = nil
		if errs[i] != nil {
			return r.fail(i, errs[i])
		}
		if err := r.step(i, r.peers[i].in); err != nil {
			return err
		}
	}
	return nil
}

// step feeds one input to machine i and carries out its outputs.
func (r *scheduler) step(i int, in any) error { return r.carry(i, r.peers[i].s.Step(in)) }

// carry carries out machine i's outputs in order.
func (r *scheduler) carry(i int, outs []any) error {
	d, m := r.peers[i], len(r.peers)
	for _, o := range outs {
		switch o := o.(type) {
		case send:
			d.account(o)
			if r.results[o.to] == nil {
				l := i*m + o.to
				r.links[l] = append(r.links[l], p2p.Envelope{From: i, To: o.to, Payload: o.payload})
			}
		case Event:
			d.observe(o)
		case compute:
			r.held[i] = &o
		case done:
			if o.err != nil {
				return r.fail(i, o.err)
			}
			r.results[i] = d.s.result()
			for from := range m {
				r.links[from*m+i] = nil
			}
		}
	}
	return nil
}

// fail attributes err to peer i's current round and phase.
func (r *scheduler) fail(i int, err error) error {
	s := r.peers[i].s
	return &SessionError{Peer: i, Round: s.round, Phase: s.phase, Err: err}
}
