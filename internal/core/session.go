package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	// Transport connects the peer to the network. For multi-process
	// deployments this is a p2p.Node; in-process runs use ChanTransport or
	// TCPTransport.
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
	// RoundTimeout bounds every blocking receive of the session; a peer
	// that waits longer fails with ErrRoundDeadline instead of hanging on
	// a dead neighbour. 0 disables the deadline (trusted in-process runs).
	RoundTimeout time.Duration
	// StartupTimeout bounds the wait for N0's StartMsg. Peer processes of
	// a distributed deployment boot in any order, so this is typically
	// much longer than RoundTimeout. 0 falls back to RoundTimeout;
	// negative disables the startup deadline.
	StartupTimeout time.Duration
	// Expect, when non-nil, pins the run parameters this peer was
	// launched with; a StartMsg that disagrees fails the session with
	// ErrConfigMismatch instead of computing silently wrong assignments
	// (every process of a distributed run must share one configuration).
	Expect *StartExpectation
	// ComputeToken, when non-nil, serializes compute sections across peers
	// so per-peer timings stay clean on oversubscribed hosts.
	ComputeToken chan struct{}
	// Observer, when non-nil, receives progress events (phase changes,
	// round boundaries, termination). Peers run concurrently, so it must be
	// safe for concurrent calls.
	Observer Observer
	// Epoch is the membership epoch the session starts in (0 for a fresh
	// session; a recovered session starts in the epoch of its restored
	// state). Envelopes stamped with an older epoch are dropped, newer ones
	// parked until the session catches up.
	Epoch int
	// Initial, when non-nil, is a restored SessionState the session
	// installs instead of running startup: the peer skips the StartMsg wait
	// and re-enters the round loop at Initial.Round (cxkpeer -resume).
	Initial *SessionState
	// Rejoin makes the session await a recovery state transfer (delivered
	// through Hooks.Control) instead of a StartMsg: the state machine
	// starts in PhaseRejoin (cxkpeer -join). Mutually exclusive with
	// Initial.
	Rejoin bool
	// Hooks, when non-nil, attaches a fabric layer to the session: round
	// boundaries (checkpointing), control messages (membership, recovery)
	// and deadline expiries (failure detection) are routed through it. All
	// calls happen on the session goroutine.
	Hooks Hooks
}

// StartExpectation pins the parameters a peer expects node N0 to announce.
type StartExpectation struct {
	K             int
	F             float64
	Gamma         float64
	Seed          int64
	Txns          int
	PartitionHash uint64
}

// check compares the expectation against a received StartMsg.
func (e *StartExpectation) check(msg StartMsg) error {
	switch {
	case msg.K != e.K:
		return fmt.Errorf("%w: k = %d here, %d at N0", ErrConfigMismatch, e.K, msg.K)
	case msg.F != e.F || msg.Gamma != e.Gamma:
		return fmt.Errorf("%w: (f, γ) = (%v, %v) here, (%v, %v) at N0",
			ErrConfigMismatch, e.F, e.Gamma, msg.F, msg.Gamma)
	case msg.Seed != e.Seed:
		return fmt.Errorf("%w: seed = %d here, %d at N0", ErrConfigMismatch, e.Seed, msg.Seed)
	case msg.Txns != e.Txns:
		return fmt.Errorf("%w: corpus has %d transactions here, %d at N0", ErrConfigMismatch, e.Txns, msg.Txns)
	case msg.PartitionHash != e.PartitionHash:
		return fmt.Errorf("%w: data partition diverges from N0's (check the split flags)", ErrConfigMismatch)
	}
	return nil
}

// PartitionFingerprint hashes a data partition (FNV-1a over part sizes and
// indices) so peers can cross-check that they derived the same split.
func PartitionFingerprint(part [][]int) uint64 {
	h := fnv.Offset
	for _, p := range part {
		h = fnv.Mix(h, ^uint64(0)) // part separator
		for _, idx := range p {
			h = fnv.Mix(h, uint64(idx))
		}
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
	// Report carries the per-round accounting.
	Report PeerReport
	// PendingAssigns are AssignMsg reports from peers that terminated
	// ahead of this one and whose messages overtook the final round
	// (coordinator only; consumed by RunPeer's collection step).
	PendingAssigns []AssignMsg
}

// RunSession executes the CXK-means protocol for this peer until
// convergence, MaxRounds, ctx cancellation or a protocol failure. Errors
// are *SessionError values wrapping the typed causes of phase.go;
// cancellation surfaces as ErrCanceled, observed at phase boundaries,
// blocking receives and between relocation passes.
func (p *Peer) RunSession(ctx context.Context) (*SessionResult, error) {
	s := newSession(p)
	if st := p.cfg.Initial; st != nil {
		if err := s.install(st); err != nil {
			return nil, &SessionError{Peer: p.cfg.ID, Round: s.round, Phase: s.phase, Err: err}
		}
	}
	for s.phase != PhaseDone {
		from := s.phase
		if err := s.step(ctx); err != nil {
			var rb *rollbackError
			if errors.As(err, &rb) {
				// A fabric hook rolled the session back (or delivered the
				// rejoin state): install it and re-enter the round loop.
				if ierr := s.install(rb.st); ierr != nil {
					return nil, &SessionError{Peer: p.cfg.ID, Round: s.round, Phase: s.phase, Err: ierr}
				}
				s.emit(EventPhaseChange, s.round, 0)
				continue
			}
			return nil, &SessionError{Peer: p.cfg.ID, Round: s.round, Phase: s.phase, Err: err}
		}
		if s.phase != from {
			s.emit(EventPhaseChange, s.round, 0)
		}
	}
	s.emit(EventDone, s.rounds, s.objective)
	return s.result(), nil
}

// session owns the run state of one protocol execution: the current phase
// and round, the representative sets, the reordering buffers and the
// per-round accounting. Each phase is one method; step dispatches on the
// current phase and the phase methods perform the transitions.
type session struct {
	p        *Peer
	phase    Phase
	round    int
	t0       time.Time // session start, for Event.Elapsed
	deadline time.Time // armed at every blocking-receive phase entry

	// objective is the peer's local clustering objective after the latest
	// relocation loop; maintained only when an Observer is configured.
	objective float64

	// Protocol state (Fig. 5 notation in the comments of peer fields).
	k       int
	m       int
	zs      [][]int
	zi      []int
	global  []*txn.Transaction // g_1..g_k
	localRp []*txn.Transaction // ℓ_i1..ℓ_ik
	sizes   []int              // |C_i_j|
	assign  []int              // local assignment
	rounds  int
	report  PeerReport
	// engine runs the relocate→refine half of every round.
	engine *cluster.Rounds
	// seenStates fingerprints past local-representative states. Fig. 5
	// terminates on exact representative stability; greedy representative
	// refinement can cycle through a short orbit of states instead of
	// reaching a fixpoint, so a revisited state is treated as stable
	// (guaranteeing termination without changing converged results).
	seenStates map[uint64]struct{}
	// changed / bySender / anyContinue carry intermediate per-round state
	// between the Relocate, ExchangeLocals and RefineGlobals phases.
	changed     bool
	bySender    []map[int]WeightedWireRep
	anyContinue bool

	// Message reordering buffers: peers may run ahead by one phase, so
	// messages are buffered per (round, type) once accept has vetted and
	// accounted them. A peer that terminates ahead of this one may even
	// deliver its post-session AssignMsg while this session still drains the
	// final round; those are parked in pendAssign for the post-session
	// consumer (see RunPeer).
	pendGlobal map[int][]GlobalRepsMsg
	pendLocal  map[int][]LocalRepsMsg
	pendAssign []AssignMsg

	// epoch is the membership epoch the session currently runs in. FIFO
	// holds per connection, not across connections, so after a membership
	// change a peer can receive new-epoch traffic before its own view
	// update (parked in pendFuture) or stale traffic from the abandoned
	// epoch (dropped, counted in staleDropped).
	epoch        int
	pendFuture   []p2p.Envelope
	staleDropped int64
}

func newSession(p *Peer) *session {
	s := &session{
		p:     p,
		phase: PhaseStartup,
		t0:    time.Now(),
		m:     p.cfg.Transport.Peers(),
		engine: cluster.NewRounds(
			cluster.RepConfig{Ctx: p.cfg.Ctx, Rule: p.cfg.Rule, Workers: p.cfg.Workers},
			p.cfg.Local, p.cfg.Fast),
		epoch:      p.cfg.Epoch,
		seenStates: map[uint64]struct{}{},
		pendGlobal: map[int][]GlobalRepsMsg{},
		pendLocal:  map[int][]LocalRepsMsg{},
	}
	if p.cfg.Rejoin {
		s.phase = PhaseRejoin
	}
	if es, ok := p.cfg.Transport.(p2p.EpochSetter); ok {
		es.SetEpoch(p.cfg.ID, s.epoch)
	}
	return s
}

// emit publishes a progress event when an observer is configured.
func (s *session) emit(kind EventKind, round int, objective float64) {
	obs := s.p.cfg.Observer
	if obs == nil {
		return
	}
	sm, sb, rm, rb := s.report.TrafficTotals()
	obs(Event{
		Kind: kind, Peer: s.p.cfg.ID, Round: round, Phase: s.phase,
		Objective: objective,
		SentMsgs:  sm, SentBytes: sb, RecvMsgs: rm, RecvBytes: rb,
		CounterSnapshot: s.p.cfg.Ctx.Counters.Snapshot(),
		Elapsed:         time.Since(s.t0),
	})
}

// step executes the current phase. Phase methods mutate s.phase to advance
// the state machine. Cancellation is observed here at every phase edge, so
// an aborted session always stops on a clean protocol boundary.
func (s *session) step(ctx context.Context) error {
	if ctx != nil {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		default:
		}
	}
	switch s.phase {
	case PhaseStartup:
		return s.startup(ctx)
	case PhaseBroadcastGlobals:
		return s.broadcastGlobals(ctx)
	case PhaseRelocate:
		return s.relocate(ctx)
	case PhaseExchangeLocals:
		return s.exchangeLocals(ctx)
	case PhaseRefineGlobals:
		return s.refineGlobals(ctx)
	case PhaseRejoin:
		return s.rejoin(ctx)
	default:
		return fmt.Errorf("core: step in terminal phase %s", s.phase)
	}
}

// startup awaits N0's StartMsg, initializes the protocol state and selects
// the initial global representatives this peer is responsible for. Round
// messages from fast neighbours may overtake the StartMsg on a real network
// (FIFO holds per connection, not across connections), so they are held back
// rather than rejected, and accepted once k is known.
func (s *session) startup(ctx context.Context) error {
	s.armStartupDeadline()
	var startMsg StartMsg
	var early []p2p.Envelope
awaitStart:
	for {
		env, err := s.recvEnvelope(ctx)
		if err != nil {
			return err
		}
		switch msg := env.Payload.(type) {
		case StartMsg:
			startMsg = msg
			break awaitStart
		case GlobalRepsMsg, LocalRepsMsg, AssignMsg:
			early = append(early, env)
		default:
			return fmt.Errorf("%w: expected StartMsg, got %T", ErrUnexpectedMessage, env.Payload)
		}
	}
	id := s.p.cfg.ID
	if len(startMsg.Zs) != s.m || id >= s.m {
		return fmt.Errorf("%w: StartMsg for %d peers, transport has %d (peer %d)",
			ErrUnexpectedMessage, len(startMsg.Zs), s.m, id)
	}
	if e := s.p.cfg.Expect; e != nil {
		if err := e.check(startMsg); err != nil {
			return err
		}
	}
	s.k = startMsg.K
	s.zs = startMsg.Zs
	s.zi = startMsg.Zs[id]

	s.global = make([]*txn.Transaction, s.k)
	s.localRp = make([]*txn.Transaction, s.k)
	s.sizes = make([]int, s.k)
	s.assign = make([]int, len(s.p.cfg.Local))
	for i := range s.assign {
		s.assign[i] = cluster.TrashCluster
	}

	// Select q_i initial global representatives from distinct local trees.
	rng := rand.New(rand.NewSource(s.p.cfg.Seed))
	for idx, tr := range cluster.SelectInitial(s.p.cfg.Local, len(s.zi), rng) {
		s.global[s.zi[idx]] = tr
	}
	for _, env := range early {
		if err := s.accept(env); err != nil {
			return err
		}
	}
	s.phase = PhaseBroadcastGlobals
	return nil
}

// broadcastGlobals is protocol phase 1: send the global representatives
// this peer is responsible for, then collect everyone else's. Its entry is
// the round boundary: the protocol state is quiescent (no message of the
// round sent yet), so this is where the fabric hook checkpoints — and where
// a coordinator admits pending joins, which may install a same-round state
// under a bumped epoch.
func (s *session) broadcastGlobals(ctx context.Context) error {
	if h := s.p.cfg.Hooks; h != nil {
		st, err := h.RoundBoundary(s.capture())
		if err != nil {
			return err
		}
		if st != nil {
			return &rollbackError{st: st}
		}
	}
	s.rounds = s.round + 1
	s.growRound(s.round)
	s.emit(EventRoundStart, s.round, 0)

	own := map[int]WireTxn{}
	for _, j := range s.zi {
		own[j] = toWire(s.items(), s.global[j])
	}
	id := s.p.cfg.ID
	for h := 0; h < s.m; h++ {
		if h == id {
			continue
		}
		if err := s.send(s.round, h, GlobalRepsMsg{From: id, Round: s.round, Reps: own}); err != nil {
			return err
		}
	}
	s.armDeadline()
	for received := 0; received < s.m-1; {
		msg, err := s.nextGlobal(ctx, s.round)
		if err != nil {
			return err
		}
		for j, w := range msg.Reps {
			s.global[j] = fromWire(s.items(), w)
		}
		received++
	}
	s.phase = PhaseRelocate
	return nil
}

// relocate is protocol phase 2: one relocation pass against the globals,
// followed by the local representative of every non-empty cluster. The
// globals are fixed for the round and relocation against a fixed set is a
// pure function of it, so the pass is its own fixpoint. It is cancellable:
// ctx is checked inside the parallel fork-join, so a canceled session aborts
// the compute section without finishing the corpus scan.
func (s *session) relocate(ctx context.Context) error {
	cfg := &s.p.cfg
	var newLocalRp []*txn.Transaction
	var relocErr error
	s.compute(s.round, func() {
		assign, err := s.engine.Assign(ctx, s.global)
		if err != nil {
			relocErr = fmt.Errorf("%w: %w", ErrCanceled, err)
			return
		}
		s.assign = assign
		newLocalRp, s.sizes = s.engine.LocalReps(s.assign)
	})
	if relocErr != nil {
		return relocErr
	}
	if cfg.Observer != nil {
		s.objective = s.engine.Objective()
	}
	s.changed = !cluster.RepsEqual(newLocalRp, s.localRp)
	s.localRp = newLocalRp
	if s.changed {
		fp := fingerprintReps(s.localRp)
		if _, cycle := s.seenStates[fp]; cycle {
			s.changed = false
		}
		s.seenStates[fp] = struct{}{}
	}
	s.phase = PhaseExchangeLocals
	return nil
}

// exchangeLocals is protocol phase 3: exchange local representatives (or a
// done broadcast) and collect the other peers' for own clusters. When every
// peer is done the session terminates; the flags are identical at every
// peer, so termination is consistent.
func (s *session) exchangeLocals(ctx context.Context) error {
	id := s.p.cfg.ID
	flag := FlagContinue
	if !s.changed {
		flag = FlagDone
	}
	for h := 0; h < s.m; h++ {
		if h == id {
			continue
		}
		msg := LocalRepsMsg{From: id, Round: s.round, Flag: flag}
		if s.changed {
			msg.Reps = map[int]WeightedWireRep{}
			for _, j := range s.zs[h] {
				if s.localRp[j] != nil {
					msg.Reps[j] = WeightedWireRep{Rep: toWire(s.items(), s.localRp[j]), Weight: s.sizes[j]}
				}
			}
		}
		if err := s.send(s.round, h, msg); err != nil {
			return err
		}
	}

	// Per-sender slots keep the representative input order deterministic
	// regardless of message arrival order (reproducibility for a fixed
	// seed; floating-point aggregation is order-sensitive).
	s.bySender = make([]map[int]WeightedWireRep, s.m)
	s.anyContinue = s.changed
	s.armDeadline()
	for received := 0; received < s.m-1; {
		msg, err := s.nextLocal(ctx, s.round)
		if err != nil {
			return err
		}
		if msg.Flag == FlagContinue {
			s.anyContinue = true
		}
		s.bySender[msg.From] = msg.Reps
		received++
	}
	s.emit(EventRepsExchanged, s.round, 0)

	if !s.anyContinue {
		s.emit(EventRoundEnd, s.round, s.objective)
		s.phase = PhaseDone // V_1 = … = V_m = done
		return nil
	}
	s.phase = PhaseRefineGlobals
	return nil
}

// refineGlobals is protocol phase 4: compute the global representatives for
// own clusters from the m local representatives in peer-id order, then
// advance the round.
func (s *session) refineGlobals(ctx context.Context) error {
	_ = ctx // pure local compute; cancellation is observed at the next receive
	cfg := &s.p.cfg
	s.compute(s.round, func() {
		for _, j := range s.zi {
			var reps []cluster.WeightedRep
			for h := 0; h < s.m; h++ {
				if h == cfg.ID {
					if s.localRp[j] != nil {
						reps = append(reps, cluster.WeightedRep{Rep: s.localRp[j], Weight: s.sizes[j]})
					}
					continue
				}
				if wr, ok := s.bySender[h][j]; ok {
					reps = append(reps, cluster.WeightedRep{Rep: fromWire(s.items(), wr.Rep), Weight: wr.Weight})
				}
			}
			if len(reps) == 0 {
				continue // keep the previous global representative
			}
			if g := s.engine.GlobalRep(reps); g != nil {
				s.global[j] = g
			}
		}
	})
	s.bySender = nil
	s.emit(EventRoundEnd, s.round, s.objective)
	s.round++
	if s.round >= s.p.cfg.MaxRounds {
		s.phase = PhaseDone
		return nil
	}
	s.phase = PhaseBroadcastGlobals
	return nil
}

// result snapshots the session outcome.
func (s *session) result() *SessionResult {
	return &SessionResult{
		Assign:         append([]int(nil), s.assign...),
		Reps:           append([]*txn.Transaction(nil), s.global...),
		Rounds:         s.rounds,
		Report:         s.report,
		PendingAssigns: s.pendAssign,
	}
}

// armDeadline starts the receive deadline for the current blocking phase.
func (s *session) armDeadline() {
	if s.p.cfg.RoundTimeout > 0 {
		s.deadline = time.Now().Add(s.p.cfg.RoundTimeout)
	} else {
		s.deadline = time.Time{}
	}
}

// armStartupDeadline starts the (typically longer) deadline for the wait on
// N0's StartMsg: peer processes boot in any order, so the first wait must
// tolerate the whole cluster's spin-up, not just one round's slack.
func (s *session) armStartupDeadline() {
	st := s.p.cfg.StartupTimeout
	switch {
	case st > 0:
		s.deadline = time.Now().Add(st)
	case st == 0:
		s.armDeadline()
	default:
		s.deadline = time.Time{}
	}
}

// recvEnvelope blocks for the next protocol envelope of the current epoch,
// honouring ctx and the armed phase deadline. Control-plane payloads are
// routed to the fabric hooks from here — any phase, any epoch — and never
// surface to the protocol state machine; a hook that returns a state makes
// recvEnvelope fail with the internal rollback signal, unwound by
// RunSession. Stale-epoch protocol traffic is dropped, future-epoch traffic
// parked until the session catches up.
func (s *session) recvEnvelope(ctx context.Context) (p2p.Envelope, error) {
	ch := s.p.cfg.Transport.Recv(s.p.cfg.ID)
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	for {
		if env, ok := s.takeFuture(); ok {
			return env, nil
		}
		var timer *time.Timer
		var timerC <-chan time.Time
		if !s.deadline.IsZero() {
			d := time.Until(s.deadline)
			if d <= 0 {
				if err := s.deadlineExpired(); err != nil {
					return p2p.Envelope{}, err
				}
				continue
			}
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		select {
		case env, ok := <-ch:
			if timer != nil {
				timer.Stop()
			}
			if !ok {
				return p2p.Envelope{}, ErrTransportClosed
			}
			if _, ctl := env.Payload.(ControlPayload); ctl {
				if err := s.handleControl(env); err != nil {
					return p2p.Envelope{}, err
				}
				continue
			}
			if env.Epoch != p2p.EpochAny {
				if env.Epoch < s.epoch {
					s.staleDropped++
					continue
				}
				if env.Epoch > s.epoch {
					s.pendFuture = append(s.pendFuture, env)
					continue
				}
			}
			return env, nil
		case <-ctxDone:
			if timer != nil {
				timer.Stop()
			}
			return p2p.Envelope{}, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		case <-timerC:
			if err := s.deadlineExpired(); err != nil {
				return p2p.Envelope{}, err
			}
		}
	}
}

// handleControl routes a control-plane envelope to the fabric hooks. A
// session without hooks cannot participate in membership changes, so
// control traffic reaching it is a deployment mismatch and fails loudly.
func (s *session) handleControl(env p2p.Envelope) error {
	h := s.p.cfg.Hooks
	if h == nil {
		return fmt.Errorf("%w: control message %T on a session without fabric hooks",
			ErrUnexpectedMessage, env.Payload)
	}
	st, err := h.Control(env)
	if err != nil {
		return err
	}
	if st != nil {
		return &rollbackError{st: st}
	}
	return nil
}

// deadlineExpired consults the fabric hooks when a blocking receive ran out
// of time. Without hooks the legacy behaviour holds: the session fails with
// ErrRoundDeadline. With hooks, (nil, nil) grants one more timeout window
// (the hook does its own accounting — e.g. reporting a suspect to the
// coordinator and bounding the recovery wait), a state rolls back, an error
// fails the session.
func (s *session) deadlineExpired() error {
	h := s.p.cfg.Hooks
	if h == nil {
		return ErrRoundDeadline
	}
	st, err := h.Deadline(s.phase, s.round)
	if err != nil {
		return err
	}
	if st != nil {
		return &rollbackError{st: st}
	}
	s.armDeadline()
	return nil
}

// takeFuture scans the future-epoch parking lot for envelopes the session
// has caught up to; entries whose epoch fell behind in the meantime are
// dropped.
func (s *session) takeFuture() (p2p.Envelope, bool) {
	for i := 0; i < len(s.pendFuture); i++ {
		env := s.pendFuture[i]
		if env.Epoch < s.epoch {
			s.pendFuture = append(s.pendFuture[:i], s.pendFuture[i+1:]...)
			s.staleDropped++
			i--
			continue
		}
		if env.Epoch == s.epoch {
			s.pendFuture = append(s.pendFuture[:i], s.pendFuture[i+1:]...)
			return env, true
		}
	}
	return p2p.Envelope{}, false
}

// rejoin parks protocol traffic while the fabric negotiates this peer's
// admission; the session leaves this phase only through a rollback install
// (the recovery state arrives via Hooks.Control) or a failure. Protocol
// messages of the admission epoch race ahead of the state transfer on other
// connections, so they are parked rather than rejected — takeFuture replays
// them once the state is installed.
func (s *session) rejoin(ctx context.Context) error {
	if s.p.cfg.Hooks == nil {
		return fmt.Errorf("%w: rejoin requires fabric hooks", ErrUnexpectedMessage)
	}
	s.armStartupDeadline()
	for {
		env, err := s.recvEnvelope(ctx)
		if err != nil {
			return err
		}
		// Anything surfacing here carries the session's pre-admission epoch:
		// leftovers of the slot's previous occupant. They predate the view
		// the joiner will be admitted under and are superseded by the
		// incoming state transfer. (New-epoch traffic racing ahead of the
		// state transfer is parked inside recvEnvelope and replayed by
		// takeFuture after the install.)
		switch env.Payload.(type) {
		case GlobalRepsMsg, LocalRepsMsg, AssignMsg, StartMsg:
		default:
			return fmt.Errorf("%w: %T while awaiting rejoin state", ErrUnexpectedMessage, env.Payload)
		}
	}
}

// growRound ensures the per-round accounting slices cover the given round.
// Idempotent: messages can arrive one phase ahead of the local round.
func (s *session) growRound(round int) {
	for len(s.report.ComputeByRound) <= round {
		s.report.ComputeByRound = append(s.report.ComputeByRound, 0)
		s.report.SentBytesByRound = append(s.report.SentBytesByRound, 0)
		s.report.RecvBytesByRound = append(s.report.RecvBytesByRound, 0)
		s.report.SentMsgsByRound = append(s.report.SentMsgsByRound, 0)
		s.report.RecvMsgsByRound = append(s.report.RecvMsgsByRound, 0)
	}
	s.report.LocalTransactions = len(s.p.cfg.Local)
}

// compute runs fn under the optional compute token, accounting its wall
// time to the given round.
func (s *session) compute(round int, fn func()) {
	if tok := s.p.cfg.ComputeToken; tok != nil {
		<-tok
		defer func() { tok <- struct{}{} }()
	}
	t0 := time.Now()
	fn()
	s.report.ComputeByRound[round] += time.Since(t0)
}

// send delivers a payload and accounts it; transport failures fail the
// session (a silent drop would leave the receiving peer to starve) unless
// fabric hooks decide the failure is survivable — then the message is
// dropped unaccounted and the deadline/recovery machinery reconciles.
func (s *session) send(round, to int, payload any) error {
	if err := s.p.cfg.Transport.Send(s.p.cfg.ID, to, payload); err != nil {
		if h := s.p.cfg.Hooks; h != nil {
			if herr := h.SendFailed(to, round, err); herr != nil {
				return herr
			}
			return nil
		}
		return fmt.Errorf("%w: to peer %d: %v", ErrSend, to, err)
	}
	s.report.SentMsgsByRound[round]++
	s.report.SentBytesByRound[round] += s.size(payload)
	return nil
}

func (s *session) size(payload any) int64 {
	if s.p.cfg.Sizer == nil {
		return 0
	}
	return s.p.cfg.Sizer(payload)
}

// items is the peer's interning table (shared in-process, private per OS
// process).
func (s *session) items() *txn.ItemTable { return s.p.cfg.Ctx.Items }

// accept is where every round message is consumed, whether it came straight
// off the transport or was held back until the StartMsg: the numbers it
// claims are vetted against the session's dimensions before anything is grown
// or indexed by them (frames arrive from a port anyone on the host can dial),
// it is accounted to its round, and it is buffered under (type, round) for
// nextGlobal / nextLocal. A violation fails the session with
// ErrUnexpectedMessage.
func (s *session) accept(env p2p.Envelope) error {
	nItems := s.items().Len()
	var round int
	switch msg := env.Payload.(type) {
	case GlobalRepsMsg:
		if err := CheckHeader(env, msg.From, msg.Round, s.m, s.p.cfg.MaxRounds); err != nil {
			return err
		}
		for j, w := range msg.Reps {
			if err := CheckWireRep(j, s.k, w, nItems); err != nil {
				return err
			}
		}
		round = msg.Round
		s.pendGlobal[round] = append(s.pendGlobal[round], msg)
	case LocalRepsMsg:
		if err := CheckHeader(env, msg.From, msg.Round, s.m, s.p.cfg.MaxRounds); err != nil {
			return err
		}
		for j, wr := range msg.Reps {
			if err := CheckWireRep(j, s.k, wr.Rep, nItems); err != nil {
				return err
			}
		}
		round = msg.Round
		s.pendLocal[round] = append(s.pendLocal[round], msg)
	case AssignMsg:
		s.pendAssign = append(s.pendAssign, msg) // vetted by collectAssignments
		return nil
	default:
		return fmt.Errorf("%w: %T in phase %s", ErrUnexpectedMessage, env.Payload, s.phase)
	}
	s.growRound(round)
	s.report.RecvMsgsByRound[round]++
	s.report.RecvBytesByRound[round] += s.size(env.Payload)
	return nil
}

// nextGlobal returns the next GlobalRepsMsg for the given round, accepting
// (and thereby buffering) whatever arrives in the meantime.
func (s *session) nextGlobal(ctx context.Context, round int) (GlobalRepsMsg, error) {
	for len(s.pendGlobal[round]) == 0 {
		if err := s.acceptNext(ctx); err != nil {
			return GlobalRepsMsg{}, err
		}
	}
	q := s.pendGlobal[round]
	s.pendGlobal[round] = q[1:]
	return q[0], nil
}

// nextLocal returns the next LocalRepsMsg for the given round.
func (s *session) nextLocal(ctx context.Context, round int) (LocalRepsMsg, error) {
	for len(s.pendLocal[round]) == 0 {
		if err := s.acceptNext(ctx); err != nil {
			return LocalRepsMsg{}, err
		}
	}
	q := s.pendLocal[round]
	s.pendLocal[round] = q[1:]
	return q[0], nil
}

// acceptNext blocks for one envelope and accepts it.
func (s *session) acceptNext(ctx context.Context) error {
	env, err := s.recvEnvelope(ctx)
	if err != nil {
		return err
	}
	return s.accept(env)
}

// fingerprintReps hashes a representative slice (FNV-1a over item ids and
// separators) for cycle detection.
func fingerprintReps(reps []*txn.Transaction) uint64 {
	h := fnv.Offset
	for _, rep := range reps {
		h = fnv.Mix(h, ^uint64(0)) // cluster separator
		if rep == nil {
			continue
		}
		for _, id := range rep.Items {
			h = fnv.Mix(h, uint64(id))
		}
	}
	return h
}
