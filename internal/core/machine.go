package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"xmlclust/internal/cluster"
	"xmlclust/internal/fnv"
	"xmlclust/internal/p2p"
	"xmlclust/internal/txn"
)

// A session is one peer's protocol state machine (Fig. 5; see doc.go):
// Step takes one input — a p2p.Envelope, a timeout, a computed result or an
// installState — and returns the outputs in order of execution: send,
// armTimer, Event (stamped by the driver before it is observed), and at most
// one request the machine then waits on — boundary (answered with an
// installState), compute (answered with computed) or done.
type (
	timeout  struct{}
	computed struct {
		assign    []int
		localRp   []*txn.Transaction
		sizes     []int
		objective float64
		refined   []*txn.Transaction // parallel to zi; nil keeps the global
	}
	// installState answers a boundary (st == nil resumes the round) or rolls
	// the session back to st — a fabric recovery, a rejoin state transfer.
	installState struct{ st *SessionState }

	send struct {
		to, round int
		phase     Phase
		payload   any
	}
	armTimer struct{ startup bool } // the wait on N0's StartMsg is the longer one
	// boundary reports a round boundary: the state is quiescent and
	// capturable, no message of the round is sent yet.
	boundary struct{}
	compute  struct {
		round  int
		refine bool // relocate against the globals, or refine the owned ones
	}
	done struct{ err error }
)

type session struct {
	id, m, maxRounds int
	seed             int64
	pk               bool // the PK-means policy (PeerConfig.PKMeans)
	local            []*txn.Transaction
	items            *txn.ItemTable
	sizer            p2p.Sizer
	expect           *StartMsg

	phase      Phase
	round      int
	atBoundary bool // in PhaseBroadcastGlobals, awaiting the boundary answer
	received   int  // messages of the current exchange taken so far
	out        []any

	// objective is the peer's local clustering objective after the latest
	// relocation; prevTotal is PK-means's objective summed over the peers in
	// the previous round (+Inf before the first).
	objective, prevTotal float64

	// Protocol state (Fig. 5 notation in the comments of peer fields).
	k       int
	zs      [][]int
	zi      []int
	global  []*txn.Transaction // g_1..g_k
	localRp []*txn.Transaction // ℓ_i1..ℓ_ik
	sizes   []int              // |C_i_j|
	assign  []int              // local assignment
	rounds  int
	report  PeerReport
	// seenStates fingerprints past local-representative states. Fig. 5
	// terminates on exact representative stability; greedy representative
	// refinement can cycle through a short orbit of states instead of
	// reaching a fixpoint, so a revisited state is treated as stable
	// (guaranteeing termination without changing converged results). Under
	// PK-means it holds the bits of past summed objectives, which can orbit
	// for the same reason.
	seenStates map[uint64]struct{}
	// changed / bySender / anyContinue carry intermediate per-round state
	// between the Relocate, ExchangeLocals and RefineGlobals phases.
	changed     bool
	bySender    []LocalRepsMsg
	anyContinue bool

	// Reordering buffers: peers may run ahead by one phase, so messages are
	// buffered per (round, type) once accept has vetted and accounted them.
	// Round messages that overtake the StartMsg wait in early. A peer that
	// terminates ahead of this one may deliver its post-session AssignMsg
	// while this session still drains the final round; those are parked in
	// pendAssign for the post-session consumer (see RunPeer).
	early      []p2p.Envelope
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

// newMachine builds peer cfg.ID's state machine for a session of m peers and
// returns it with its opening outputs: the wait for the StartMsg (or the
// rejoin state) is armed, or a session restored from cfg.Initial opens the
// boundary of its round.
func newMachine(cfg *PeerConfig, m int) (*session, []any) {
	s := &session{
		id: cfg.ID, m: m, maxRounds: cfg.MaxRounds, seed: cfg.Seed, pk: cfg.PKMeans, local: cfg.Local,
		items: cfg.Ctx.Items, sizer: cfg.Sizer, expect: cfg.Expect,
		phase: PhaseStartup, epoch: cfg.Epoch, prevTotal: math.Inf(1),
		seenStates: map[uint64]struct{}{},
		pendGlobal: map[int][]GlobalRepsMsg{},
		pendLocal:  map[int][]LocalRepsMsg{},
	}
	if s.pk {
		s.maxRounds++ // the seeding round counts
	}
	if cfg.Rejoin {
		s.phase = PhaseRejoin
	}
	if cfg.Initial == nil {
		s.arm(true)
	} else if err := s.install(cfg.Initial); err != nil {
		s.out = append(s.out, done{err})
	} else {
		s.openBoundary()
	}
	return s, s.out
}

// Step feeds one input to the machine and returns its outputs, valid until
// the next call. Whenever the machine waits for messages, parked envelopes
// of its epoch are taken before anything new.
func (s *session) Step(in any) []any {
	s.out = s.out[:0]
	err := s.step(in)
	for err == nil && s.listening() {
		env, ok := s.takeFuture()
		if !ok {
			break
		}
		err = s.deliver(env)
	}
	if err != nil {
		s.out = append(s.out, done{err})
	}
	return s.out
}

func (s *session) step(in any) error {
	switch in := in.(type) {
	case p2p.Envelope:
		return s.deliver(in)
	case timeout:
		return ErrRoundDeadline
	case installState:
		if in.st != nil {
			if err := s.install(in.st); err != nil {
				return err
			}
			s.emit(EventPhaseChange, s.round, 0)
			s.openBoundary()
			return nil
		}
		s.broadcastGlobals()
	case computed:
		if s.phase == PhaseRelocate {
			s.relocated(in)
		} else {
			s.refined(in)
		}
	}
	return s.collect()
}

// listening reports whether the machine waits for protocol messages.
func (s *session) listening() bool {
	switch s.phase {
	case PhaseStartup, PhaseRejoin, PhaseExchangeLocals:
		return true
	case PhaseBroadcastGlobals:
		return !s.atBoundary
	}
	return false
}

// enter moves to phase p, announces it and starts the phase: a boundary at
// a round's entry, a compute request for relocation and refinement, the
// local representatives' sends for the exchange.
func (s *session) enter(p Phase) {
	s.phase = p
	s.emit(EventPhaseChange, s.round, 0)
	switch p {
	case PhaseBroadcastGlobals:
		s.openBoundary()
	case PhaseRelocate:
		s.out = append(s.out, compute{round: s.round})
	case PhaseExchangeLocals:
		s.exchangeLocals()
	case PhaseRefineGlobals:
		s.out = append(s.out, compute{round: s.round, refine: true})
	case PhaseDone:
		s.emit(EventDone, s.rounds, s.objective)
		s.out = append(s.out, done{})
	}
}

// openBoundary is the entry of PhaseBroadcastGlobals: the protocol state is
// quiescent, so this is where a fabric checkpoints, and where a coordinator
// admits pending joins, which may install a same-round state under a bumped
// epoch.
func (s *session) openBoundary() {
	s.atBoundary = true
	s.out = append(s.out, boundary{})
}

// deliver routes one envelope: the epoch filter first, then the phase.
func (s *session) deliver(env p2p.Envelope) error {
	if env.Epoch != p2p.EpochAny {
		if env.Epoch < s.epoch {
			s.staleDropped++
			return nil
		}
		if env.Epoch > s.epoch {
			s.pendFuture = append(s.pendFuture, env)
			return nil
		}
	}
	switch s.phase {
	case PhaseStartup:
		switch msg := env.Payload.(type) {
		case StartMsg:
			return s.startup(msg)
		case GlobalRepsMsg, LocalRepsMsg, AssignMsg:
			s.early = append(s.early, env)
			return nil
		}
		return fmt.Errorf("%w: expected StartMsg, got %T", ErrUnexpectedMessage, env.Payload)
	case PhaseRejoin:
		// What surfaces here carries the pre-admission epoch: leftovers of the
		// slot's previous occupant, superseded by the incoming state transfer.
		// New-epoch traffic racing ahead of it is parked and replayed after
		// the install.
		switch env.Payload.(type) {
		case GlobalRepsMsg, LocalRepsMsg, AssignMsg, StartMsg:
			return nil
		}
		return fmt.Errorf("%w: %T while awaiting rejoin state", ErrUnexpectedMessage, env.Payload)
	}
	if err := s.accept(env); err != nil {
		return err
	}
	return s.collect()
}

// startup initializes the protocol state from N0's StartMsg and selects the
// initial global representatives this peer is responsible for. Round
// messages that overtook the StartMsg (FIFO holds per connection, not across
// connections) are accepted now that k is known.
func (s *session) startup(msg StartMsg) error {
	if len(msg.Zs) != s.m || s.id >= s.m {
		return fmt.Errorf("%w: StartMsg for %d peers, transport has %d (peer %d)",
			ErrUnexpectedMessage, len(msg.Zs), s.m, s.id)
	}
	if s.expect != nil {
		if err := checkStart(s.expect, msg); err != nil {
			return err
		}
	}
	s.k, s.zs, s.zi = msg.K, msg.Zs, msg.Zs[s.id]
	s.global = make([]*txn.Transaction, s.k)
	s.localRp = make([]*txn.Transaction, s.k)
	s.sizes = make([]int, s.k)
	s.assign = make([]int, len(s.local))
	for i := range s.assign {
		s.assign[i] = cluster.TrashCluster
	}
	// Select q_i initial global representatives from distinct local trees.
	rng := rand.New(rand.NewSource(s.seed))
	for idx, tr := range cluster.SelectInitial(s.local, len(s.zi), rng) {
		s.global[s.zi[idx]] = tr
	}
	for _, env := range s.early {
		if err := s.accept(env); err != nil {
			return err
		}
	}
	s.early = nil
	s.enter(PhaseBroadcastGlobals)
	return nil
}

// broadcastGlobals is protocol phase 1 past its boundary: send the global
// representatives this peer is responsible for; collect gathers the others'.
// Under PK-means only the seeding round broadcasts: afterwards every peer
// refines every global itself.
func (s *session) broadcastGlobals() {
	s.atBoundary = false
	s.rounds = s.round + 1
	s.report.GrowRound(s.round, len(s.local))
	s.emit(EventRoundStart, s.round, 0)
	s.received = 0
	if s.pk && s.round > 0 {
		s.received = s.m - 1
		return
	}
	own := map[int]WireTxn{}
	for _, j := range s.zi {
		own[j] = toWire(s.items, s.global[j])
	}
	for h := 0; h < s.m; h++ {
		if h != s.id {
			s.send(h, GlobalRepsMsg{From: s.id, Round: s.round, Reps: own})
		}
	}
	s.arm(false)
}

// seeded closes PK-means's seeding round: every peer now holds the k initial
// globals, and from here on every peer is responsible for every cluster, so
// exchangeLocals sends each peer every local representative and refinement
// covers all k globals. zs is replaced, not edited: in-process peers share
// the StartMsg's slices.
func (s *session) seeded() {
	all := make([]int, s.k)
	for j := range all {
		all[j] = j
	}
	s.zi, s.zs = all, make([][]int, s.m)
	for h := range s.zs {
		s.zs[h] = all
	}
	s.emit(EventRepsExchanged, s.round, 0)
	s.emit(EventRoundEnd, s.round, 0)
	s.round++
	s.enter(PhaseBroadcastGlobals)
}

// relocated closes protocol phase 2: one relocation pass against the
// globals and the local representative of every non-empty cluster. The
// globals are fixed for the round and relocation against a fixed set is a
// pure function of it, so the pass is its own fixpoint.
func (s *session) relocated(c computed) {
	s.assign, s.sizes, s.objective = c.assign, c.sizes, c.objective
	s.changed = !cluster.RepsEqual(c.localRp, s.localRp)
	s.localRp = c.localRp
	if s.pk {
		s.changed = true // PK-means stops on the summed objective alone
	} else if s.changed {
		fp := fingerprintReps(s.localRp)
		if _, cycle := s.seenStates[fp]; cycle {
			s.changed = false
		}
		s.seenStates[fp] = struct{}{}
	}
	s.enter(PhaseExchangeLocals)
}

// exchangeLocals is protocol phase 3: send each peer the local
// representatives of its clusters, or a done flag; collect gathers theirs.
func (s *session) exchangeLocals() {
	flag := FlagContinue
	if !s.changed {
		flag = FlagDone
	}
	for h := 0; h < s.m; h++ {
		if h == s.id {
			continue
		}
		msg := LocalRepsMsg{From: s.id, Round: s.round, Flag: flag, Objective: s.objective}
		if s.changed {
			msg.Reps = map[int]WeightedWireRep{}
			for _, j := range s.zs[h] {
				if s.localRp[j] != nil {
					msg.Reps[j] = WeightedWireRep{Rep: toWire(s.items, s.localRp[j]), Weight: s.sizes[j]}
				}
			}
		}
		s.send(h, msg)
	}
	// Per-sender slots keep the representative input order deterministic
	// regardless of message arrival order (reproducibility for a fixed
	// seed; floating-point aggregation is order-sensitive).
	s.bySender = make([]LocalRepsMsg, s.m)
	s.bySender[s.id].Objective = s.objective
	s.anyContinue = s.changed
	s.arm(false)
	s.received = 0
}

// collect takes the buffered messages the current phase waits for and
// leaves the phase once all m−1 are in. When every peer is done the session
// terminates; the flags are identical at every peer, so termination is
// consistent.
func (s *session) collect() error {
	switch {
	case s.phase == PhaseBroadcastGlobals && !s.atBoundary:
		for ; s.received < s.m-1; s.received++ {
			q := s.pendGlobal[s.round]
			if len(q) == 0 {
				return nil
			}
			s.pendGlobal[s.round] = q[1:]
			for j, w := range q[0].Reps {
				s.global[j] = fromWire(s.items, w)
			}
		}
		if s.pk && s.round == 0 {
			s.seeded()
		} else {
			s.enter(PhaseRelocate)
		}
	case s.phase == PhaseExchangeLocals:
		for ; s.received < s.m-1; s.received++ {
			q := s.pendLocal[s.round]
			if len(q) == 0 {
				return nil
			}
			s.pendLocal[s.round] = q[1:]
			if q[0].Flag == FlagContinue {
				s.anyContinue = true
			}
			s.bySender[q[0].From] = q[0]
		}
		s.emit(EventRepsExchanged, s.round, 0)
		if !s.anyContinue {
			s.emit(EventRoundEnd, s.round, s.objective)
			s.enter(PhaseDone) // V_1 = … = V_m = done
		} else {
			s.enter(PhaseRefineGlobals)
		}
	}
	return nil
}

// refineInputs lists cluster j's weighted local representatives in peer-id
// order — the input of its global representative (protocol phase 4).
func (s *session) refineInputs(j int) []cluster.WeightedRep {
	var reps []cluster.WeightedRep
	for h := 0; h < s.m; h++ {
		if h == s.id {
			if s.localRp[j] != nil {
				reps = append(reps, cluster.WeightedRep{Rep: s.localRp[j], Weight: s.sizes[j]})
			}
		} else if wr, ok := s.bySender[h].Reps[j]; ok {
			reps = append(reps, cluster.WeightedRep{Rep: fromWire(s.items, wr.Rep), Weight: wr.Weight})
		}
	}
	return reps
}

// refined closes protocol phase 4 and advances the round.
func (s *session) refined(c computed) {
	for i, j := range s.zi {
		if c.refined[i] != nil {
			s.global[j] = c.refined[i]
		}
	}
	stop := s.pk && s.converged()
	s.bySender = nil
	s.emit(EventRoundEnd, s.round, s.objective)
	s.round++
	if stop || s.round >= s.maxRounds {
		s.enter(PhaseDone)
	} else {
		s.enter(PhaseBroadcastGlobals)
	}
}

// converged is the PK-means stop rule, taken after the round's refinement:
// the local objectives summed in peer order (so every peer computes the same
// bits) moved by at most 1e-9 since the previous round, or repeat an
// earlier round's sum — the greedy XML representative update is not monotone
// like the Euclidean mean, so the sum can orbit.
func (s *session) converged() bool {
	total := 0.0
	for _, msg := range s.bySender {
		total += msg.Objective
	}
	if math.Abs(total-s.prevTotal) <= 1e-9 {
		return true
	}
	bits := math.Float64bits(total)
	if _, cycle := s.seenStates[bits]; cycle {
		return true
	}
	s.seenStates[bits] = struct{}{}
	s.prevTotal = total
	return false
}

func (s *session) emit(kind EventKind, round int, objective float64) {
	s.out = append(s.out, Event{Kind: kind, Peer: s.id, Round: round, Phase: s.phase, Objective: objective})
}

func (s *session) send(to int, payload any) {
	s.out = append(s.out, send{to: to, round: s.round, phase: s.phase, payload: payload})
}

func (s *session) arm(startup bool) { s.out = append(s.out, armTimer{startup}) }

func (s *session) size(payload any) int64 {
	if s.sizer == nil {
		return 0
	}
	return s.sizer(payload)
}

// accept is where every round message is consumed, whether it arrived in
// its phase or was held back until the StartMsg: the numbers it claims are
// vetted against the session's dimensions before anything is grown or
// indexed by them (frames arrive from a port anyone on the host can dial),
// it is accounted to its round, and it is buffered under (type, round). A
// violation fails the session with ErrUnexpectedMessage.
func (s *session) accept(env p2p.Envelope) error {
	nItems := s.items.Len()
	var round int
	switch msg := env.Payload.(type) {
	case GlobalRepsMsg:
		if err := CheckHeader(env, msg.From, msg.Round, s.m, s.maxRounds); err != nil {
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
		if err := CheckHeader(env, msg.From, msg.Round, s.m, s.maxRounds); err != nil {
			return err
		}
		if math.IsNaN(msg.Objective) || math.IsInf(msg.Objective, 0) {
			return fmt.Errorf("%w: LocalRepsMsg from peer %d carries objective %v",
				ErrUnexpectedMessage, msg.From, msg.Objective)
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
	s.report.GrowRound(round, len(s.local))
	s.report.RecvMsgsByRound[round]++
	s.report.RecvBytesByRound[round] += s.size(env.Payload)
	return nil
}

// takeFuture returns the first parked envelope the session has caught up
// to, or fallen behind (deliver drops those as stale).
func (s *session) takeFuture() (p2p.Envelope, bool) {
	i := slices.IndexFunc(s.pendFuture, func(env p2p.Envelope) bool { return env.Epoch <= s.epoch })
	if i < 0 {
		return p2p.Envelope{}, false
	}
	env := s.pendFuture[i]
	s.pendFuture = slices.Delete(s.pendFuture, i, i+1)
	return env, true
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
