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

// PeerConfig assembles everything one peer process N_i of Fig. 5 needs to
// join a CXK-means session.
type PeerConfig struct {
	// ID is this peer's dense id in [0, Transport.Peers()).
	ID int
	// Ctx is the similarity context over the peer's interning tables.
	Ctx *sim.Context
	// Local is S_i, the peer's local transaction set.
	Local []*txn.Transaction
	// Transport connects the peer to the network: a p2p.Node in a
	// multi-process deployment. Run's sessions have none; its scheduler
	// carries their envelopes.
	Transport p2p.Transport
	// Sizer models wire sizes for the per-round traffic report (nil
	// records zero bytes).
	Sizer p2p.Sizer
	// MaxRounds bounds the collaborative loop (0 = DefaultMaxRounds).
	MaxRounds int
	// Seed drives the initial representative selection.
	Seed int64
	// Rule selects the GenerateTreeTuple return reading.
	Rule cluster.ReturnRule
	// Workers bounds intra-peer parallelism (see Options.Workers).
	Workers int
	// Fast selects the fast engine over the reference one (see
	// Options.Fast). It is local to the peer: nothing of it travels, and fast
	// and reference peers can share a session.
	Fast bool
	// PKMeans runs the session under the PK-means policy (see
	// Options.PKMeans).
	PKMeans bool
	// RoundTimeout bounds every blocking receive of the session; a peer
	// that waits longer fails with ErrRoundDeadline instead of hanging on
	// a dead neighbour. 0 disables the deadline.
	RoundTimeout time.Duration
	// StartupTimeout bounds the wait for N0's StartMsg. Peer processes of
	// a distributed deployment boot in any order, so this is typically
	// much longer than RoundTimeout. 0 falls back to RoundTimeout;
	// negative disables the startup deadline.
	StartupTimeout time.Duration
	// Expect, when non-nil, is the StartMsg this peer computed for its own
	// configuration (NewStartMsg); a StartMsg from N0 that disagrees fails
	// the session with ErrConfigMismatch instead of computing silently wrong
	// assignments (every process of a distributed run must share one
	// configuration and one corpus).
	Expect *StartMsg
	// Observer, when non-nil, receives progress events (phase changes,
	// round boundaries, termination) on the goroutine driving the session.
	Observer Observer
	// Fabric, when non-nil, runs the session under the elastic fabric
	// (see Fabric): checkpoints, joins, leaves and recovery.
	Fabric *Fabric
	// Rejoin makes the session announce itself to the coordinator and await
	// its slot's replica instead of a StartMsg: the state machine starts in
	// PhaseRejoin (cxkpeer -join). It requires Fabric.
	Rejoin bool
}

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

// Peer is one protocol participant. Create it with NewPeer and execute the
// protocol with RunSession; a Peer can run several sessions sequentially.
type Peer struct {
	cfg PeerConfig
}

// NewPeer validates and captures a peer configuration.
func NewPeer(cfg PeerConfig) *Peer {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	return &Peer{cfg: cfg}
}

// SessionResult is the local outcome of one completed session.
type SessionResult struct {
	// Assign is the final local assignment, parallel to PeerConfig.Local.
	Assign []int
	// Reps are the final global representatives as seen by this peer (all
	// peers converge to the same set on termination).
	Reps []*txn.Transaction
	// Rounds is the number of collaborative rounds executed.
	Rounds int
	// Capped reports that the round cap, not convergence, stopped it.
	Capped bool
	// Report carries the per-round accounting.
	Report PeerReport
	// PendingAssigns are AssignMsg reports from peers that terminated
	// ahead of this one and whose messages overtook the final round
	// (coordinator only; consumed by RunPeer's collection step).
	PendingAssigns []AssignMsg
}

// RunSession executes the CXK-means protocol for this peer until
// convergence, MaxRounds, ctx cancellation or a protocol failure. It drives
// the session's state machine and does all of its I/O: it reads the
// transport under ctx, owns the real timers, runs compute requests on the
// peer's cluster.Rounds, and under the fabric saves and loads checkpoints,
// sends control traffic epoch-less, resets connections and turns a leave
// request into an input. Errors are *SessionError values wrapping the typed
// causes of phase.go; cancellation surfaces as ErrCanceled, observed at
// blocking receives and around relocation passes.
func (p *Peer) RunSession(ctx context.Context) (*SessionResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := &p.cfg
	d, outs := newDriver(p, cfg.Transport.Peers())
	s := d.s
	for epoch := -1; ; outs = s.Step(d.in) {
		if s.epoch != epoch {
			epoch = s.epoch
			cfg.Transport.SetEpoch(cfg.ID, epoch)
		}
		d.in = nil
		round, phase := s.round, s.phase
		var err error
		for i := 0; err == nil && i < len(outs); i++ {
			switch o := outs[i].(type) {
			case send:
				if err = d.send(o); err != nil {
					round, phase = o.round, o.phase
				}
			case armTimer:
				d.arm(o.startup)
			case Event:
				d.observe(o)
			case checkpoint:
				err = cfg.Fabric.Store.Save(cfg.ID, cfg.Fabric.Fingerprint, o.st)
			case restore:
				var st *SessionState
				st, err = cfg.Fabric.Store.Load(cfg.ID, o.round, cfg.Fabric.Fingerprint)
				d.in = loaded{st}
			case reset:
				cfg.Transport.ResetConn(o.to)
			case compute:
				err = d.compute(ctx, o)
			case done:
				if err = o.err; err == nil {
					return s.result(), nil
				}
			}
		}
		for err == nil && d.in == nil {
			err = d.recv(ctx)
		}
		if err != nil {
			return nil, &SessionError{Peer: cfg.ID, Round: round, Phase: phase, Err: err}
		}
	}
}

// driver is RunSession's side of the session: the I/O, the clock and the
// compute sections. in is the machine's next input.
type driver struct {
	cfg      *PeerConfig
	s        *session
	engine   *cluster.Rounds
	t0       time.Time // session start, for Event.Elapsed
	deadline time.Time // of the armed timer; zero = none
	leave    <-chan struct{}
	in       any
}

// newDriver builds the driver of peer p's session of m peers and returns it
// with the machine's opening outputs.
func newDriver(p *Peer, m int) (*driver, []any) {
	cfg := &p.cfg
	s, outs := newMachine(cfg, m)
	d := &driver{cfg: cfg, s: s, t0: time.Now(), engine: cluster.NewRounds(
		cluster.RepConfig{Ctx: cfg.Ctx, Rule: cfg.Rule, Workers: cfg.Workers}, cfg.Local, cfg.Fast)}
	if cfg.Fabric != nil {
		d.leave = cfg.Fabric.Leave
	}
	return d, outs
}

// arm starts the receive deadline. The wait on N0's StartMsg (and on a
// rejoin state) uses StartupTimeout: peer processes boot in any order, so
// it must tolerate the whole cluster's spin-up, not one round's slack.
func (d *driver) arm(startup bool) {
	t := d.cfg.RoundTimeout
	if startup && d.cfg.StartupTimeout != 0 {
		t = d.cfg.StartupTimeout
	}
	d.deadline = time.Time{}
	if t > 0 {
		d.deadline = time.Now().Add(t)
	}
}

// observe stamps an event with the traffic so far, the work counters and
// the elapsed time, and publishes it.
func (d *driver) observe(ev Event) {
	if d.cfg.Observer == nil {
		return
	}
	ev.SentMsgs, ev.SentBytes, ev.RecvMsgs, ev.RecvBytes = d.s.report.TrafficTotals()
	ev.CounterSnapshot = d.cfg.Ctx.Counters.Snapshot()
	ev.Elapsed = time.Since(d.t0)
	d.cfg.Observer(ev)
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
	case env, ok := <-d.cfg.Transport.Recv(d.cfg.ID):
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
		err = d.cfg.Transport.SendStamped(d.cfg.ID, o.to, p2p.EpochAny, o.payload)
	} else if err = d.cfg.Transport.Send(d.cfg.ID, o.to, o.payload); err == nil {
		d.account(o)
	}
	if err != nil {
		return d.s.sendFailed(o, err)
	}
	return nil
}

// account records a sent payload against its round.
func (d *driver) account(o send) {
	d.s.report.SentMsgsByRound[o.round]++
	d.s.report.SentBytesByRound[o.round] += d.s.size(o.payload)
}

func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}
