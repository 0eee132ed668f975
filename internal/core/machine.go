package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"

	"xmlclust/internal/cluster"
	"xmlclust/internal/p2p"
	"xmlclust/internal/txn"
)

// A session is one peer's protocol state machine (Fig. 5; see doc.go), from
// N0's StartMsg to the coordinator's corpus-wide assignment: Step takes one
// input — a p2p.Envelope, a timeout, a computed result, or under the fabric a
// leave or a loaded state — and returns the outputs in order of execution:
// send, armTimer, Event (stamped by the driver before it is observed), the
// fabric's checkpoint and reset, and at most one request the machine then
// waits on — compute (answered with computed), restore (answered with the
// loaded state) or done.
type (
	timeout  struct{}
	computed struct {
		assign    []int
		localRp   []*txn.Transaction
		sizes     []int
		objective float64
		refined   []*txn.Transaction // parallel to zi; nil keeps the global
	}
	// loaded answers a restore with the state the store holds.
	loaded struct{ st *SessionState }

	send struct {
		to, round int
		phase     Phase
		payload   any
		control   bool // a fabric control message
	}
	armTimer struct{ startup bool } // the wait on N0's StartMsg is the longer one
	compute  struct {
		round  int
		refine bool // relocate against the globals, or refine the owned ones
	}
	done struct{ err error }
)

type session struct {
	id, m, maxRounds int
	seed             int64
	pk               bool // the PK-means policy (Options.PKMeans)
	local            []*txn.Transaction
	items            *txn.ItemTable
	sizer            p2p.Sizer
	start            StartMsg // the run's, which N0's must equal
	partition        [][]int

	phase    Phase
	round    int
	received int // messages of the current exchange taken so far
	out      []any

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
	capped  bool // stopped by maxRounds, not by convergence
	report  PeerReport
	// seenStates fingerprints this peer's past local-representative states.
	// Fig. 5 terminates on exact representative stability; greedy
	// representative refinement can cycle through a short orbit of states
	// instead of reaching a fixpoint, so a peer whose own locals revisit a
	// state reports itself unchanged (a run whose every state is new ends as
	// Fig. 5 says). It does not bound the run: maxRounds does. It is per
	// peer, so a run can end with every peer's own locals revisiting an
	// earlier state while the joint state (the globals and every peer's
	// locals) never repeated. A state is hashed by content (digestReps, into
	// flat), so a restored session, whose table interned in another order,
	// still knows it. Under PK-means it holds the bits of past summed
	// objectives, which can orbit for the same reason.
	seenStates map[uint64]struct{}
	flat       []txn.ItemID
	// changed / bySender / peersChanged carry intermediate per-round state
	// between the Relocate, ExchangeLocals and RefineGlobals phases;
	// peersChanged counts the round's FlagContinue, own flag included.
	changed      bool
	bySender     []LocalRepsMsg
	peersChanged int
	// prevGlobal holds the globals of the previous round (nil ones before
	// the first), and globalsChanged how many of this round's differ from
	// them (Event.GlobalsChanged).
	prevGlobal     []*txn.Transaction
	globalsChanged int

	// Reordering buffers: peers may run ahead by one phase, so messages are
	// buffered per (round, type) once accept has vetted and accounted them;
	// a taken one keeps its header there, so a second is refused. Round
	// messages that overtake the StartMsg wait in early.
	early      []p2p.Envelope
	pendGlobal map[int][]GlobalRepsMsg
	pendLocal  map[int][]LocalRepsMsg

	// The coordinator's collection: the corpus-wide assignment, and which
	// slots have placed theirs in it. A member's report can overtake the
	// coordinator's final round; accept places it whenever it arrives.
	final    []int
	reported []bool

	// epoch is the membership epoch the session currently runs in. FIFO
	// holds per connection, not across connections, so after a membership
	// change a peer can receive new-epoch traffic before its own view
	// update (parked in pendFuture) or stale traffic from the abandoned
	// epoch (dropped, counted in staleDropped).
	epoch        int
	pendFuture   []p2p.Envelope
	staleDropped int64

	// fab is the fabric policy (Options.Fabric; nil = off, see fabric.go).
	fab *fabric
}

// newMachine builds peer id's state machine for a run of opts over corpus,
// whose StartMsg is start, and returns it with its opening outputs: local is
// its part of the corpus, items the job's table it works in (Rounds.Items).
// Peer 0 plays N0 — the paper notes any peer can perform this trivial duty —
// and opens by sending every peer, itself included, the StartMsg. Then the
// wait for the StartMsg, or for the rejoin state after the join announcement,
// is armed.
func newMachine(items *txn.ItemTable, local []*txn.Transaction, corpus *txn.Corpus, opts *Options, start StartMsg, id int) (*session, []any) {
	m := opts.Peers
	s := &session{
		id: id, m: m, maxRounds: opts.MaxRounds, seed: opts.Seed + int64(id), pk: opts.PKMeans, local: local,
		items: items, sizer: Sizer(items), start: start, partition: opts.Partition,
		phase: PhaseStartup, prevTotal: math.Inf(1),
		seenStates: map[uint64]struct{}{},
		pendGlobal: map[int][]GlobalRepsMsg{},
		pendLocal:  map[int][]LocalRepsMsg{},
	}
	if s.maxRounds <= 0 {
		s.maxRounds = DefaultMaxRounds
	}
	if s.pk {
		s.maxRounds++ // the seeding round counts
	}
	if opts.Fabric != nil {
		s.fab = newFabric(opts.Fabric, m)
	}
	if opts.Rejoin {
		if s.fab == nil {
			s.out = append(s.out, done{fmt.Errorf("%w: rejoin requires the fabric", ErrUnexpectedMessage)})
			return s, s.out
		}
		s.phase, s.fab.joining = PhaseRejoin, true
		s.control(0, JoinMsg{Slot: s.id, Fingerprint: s.fab.fp})
	}
	if id == 0 {
		s.final = slices.Repeat([]int{cluster.TrashCluster}, len(corpus.Transactions))
		s.reported = make([]bool, m)
		for i := range m {
			s.send(i, start)
		}
	}
	s.arm(true)
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
		if s.phase == PhaseDone {
			return fmt.Errorf("%w: no assignment from slot %d", ErrRoundDeadline, slices.Index(s.reported, false))
		}
		if s.fab == nil {
			return ErrRoundDeadline
		}
		return s.expired()
	case leave:
		s.fab.leaving = true
	case loaded:
		return s.restored(in.st)
	case computed:
		if s.phase == PhaseRelocate {
			return s.relocated(in)
		}
		return s.refined(in)
	}
	return nil
}

// listening reports whether the machine waits for protocol messages.
func (s *session) listening() bool {
	switch s.phase {
	case PhaseStartup, PhaseRejoin, PhaseBroadcastGlobals, PhaseExchangeLocals, PhaseDone:
		return true
	}
	return false
}

// enter moves to phase p, announces it and starts the phase: the boundary
// and the globals' sends at a round's entry, a compute request for
// relocation and refinement, the local representatives' sends for the
// exchange, and at the end a member's report to the coordinator or the
// coordinator's collection.
func (s *session) enter(p Phase) error {
	s.phase = p
	s.emit(EventPhaseChange, s.round, 0)
	switch p {
	case PhaseBroadcastGlobals:
		return s.boundary()
	case PhaseRelocate:
		s.out = append(s.out, compute{round: s.round})
	case PhaseExchangeLocals:
		s.exchangeLocals()
		return s.collect()
	case PhaseRefineGlobals:
		s.out = append(s.out, compute{round: s.round, refine: true})
	case PhaseDone:
		s.emit(EventDone, s.rounds, s.objective)
		if s.id != 0 {
			s.send(0, AssignMsg{From: s.id, Assign: s.assign})
			s.out = append(s.out, done{})
			return nil
		}
		s.place(0, s.assign)
		s.arm(false)
		return s.collect()
	}
	return nil
}

// deliver routes one envelope: control traffic to the fabric, then the epoch
// filter, then the phase.
func (s *session) deliver(env p2p.Envelope) error {
	if isControl(env.Payload) {
		return s.onControl(env)
	}
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
	if err := checkStart(&s.start, msg); err != nil {
		return err
	}
	s.k, s.zs, s.zi = msg.K, msg.Zs, msg.Zs[s.id]
	s.global = make([]*txn.Transaction, s.k)
	s.prevGlobal = make([]*txn.Transaction, s.k)
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
	return s.enter(PhaseBroadcastGlobals)
}

// broadcastGlobals is protocol phase 1 past its boundary: send the global
// representatives this peer is responsible for; collect gathers the others'.
// Under PK-means only the seeding round broadcasts: afterwards every peer
// refines every global itself.
func (s *session) broadcastGlobals() {
	s.rounds = s.round + 1
	s.report.GrowRound(s.round, len(s.local))
	s.emit(EventRoundStart, s.round, 0)
	s.received = 0
	if s.pk && s.round > 0 {
		s.received = s.m - 1
		return
	}
	if s.m > 1 { // a lone peer has no one to send its globals to
		own := map[int]WireTxn{}
		for _, j := range s.zi {
			own[j] = toWire(s.items, s.global[j])
		}
		for h := 0; h < s.m; h++ {
			if h != s.id {
				s.send(h, GlobalRepsMsg{From: s.id, Round: s.round, Reps: own})
			}
		}
	}
	s.arm(false)
}

// seeded closes PK-means's seeding round: every peer now holds the k initial
// globals, and from here on every peer is responsible for every cluster, so
// exchangeLocals sends each peer every local representative and refinement
// covers all k globals. zs is replaced, not edited: in-process peers share
// the StartMsg's slices.
func (s *session) seeded() error {
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
	return s.enter(PhaseBroadcastGlobals)
}

// relocated closes protocol phase 2: one relocation pass against the
// globals and the local representative of every non-empty cluster. The
// globals are fixed for the round and relocation against a fixed set is a
// pure function of it, so the pass is its own fixpoint.
func (s *session) relocated(c computed) error {
	s.assign, s.sizes, s.objective = c.assign, c.sizes, c.objective
	s.changed = !cluster.RepsEqual(c.localRp, s.localRp)
	s.localRp = c.localRp
	if s.pk {
		s.changed = true // PK-means stops on the summed objective alone
	} else if s.changed {
		var fp uint64
		fp, s.flat = digestReps(s.items, s.localRp, s.flat)
		if _, cycle := s.seenStates[fp]; cycle {
			s.changed = false
		}
		s.seenStates[fp] = struct{}{}
	}
	return s.enter(PhaseExchangeLocals)
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
	s.peersChanged = 0
	if s.changed {
		s.peersChanged = 1
	}
	s.arm(false)
	s.received = 0
}

// collect takes the buffered messages the current phase waits for and
// leaves the phase once all m−1 are in. When every peer is done the session
// terminates; the flags are identical at every peer, so termination is
// consistent. The coordinator ends once every slot has reported.
func (s *session) collect() error {
	switch {
	case s.phase == PhaseDone:
		if !slices.Contains(s.reported, false) {
			s.out = append(s.out, done{})
		}
	case s.phase == PhaseBroadcastGlobals:
		for ; s.received < s.m-1; s.received++ {
			q := s.pendGlobal[s.round]
			if len(q) == s.received {
				return nil
			}
			for _, j := range slices.Sorted(maps.Keys(q[s.received].Reps)) { // in key order: the job table's ids follow it
				s.global[j] = fromWire(s.items, q[s.received].Reps[j])
			}
			q[s.received].Reps = nil // taken: the header stays to refuse a copy
		}
		s.globalsChanged = cluster.RepsChanged(s.global, s.prevGlobal)
		s.prevGlobal = append(s.prevGlobal[:0], s.global...)
		if s.pk && s.round == 0 {
			return s.seeded()
		}
		return s.enter(PhaseRelocate)
	case s.phase == PhaseExchangeLocals:
		for ; s.received < s.m-1; s.received++ {
			q := s.pendLocal[s.round]
			if len(q) == s.received {
				return nil
			}
			if q[s.received].Flag == FlagContinue {
				s.peersChanged++
			}
			s.bySender[q[s.received].From] = q[s.received]
			q[s.received].Reps = nil
		}
		s.emit(EventRepsExchanged, s.round, 0)
		if s.peersChanged == 0 {
			s.emit(EventRoundEnd, s.round, s.objective)
			return s.enter(PhaseDone) // V_1 = … = V_m = done
		}
		return s.enter(PhaseRefineGlobals)
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
func (s *session) refined(c computed) error {
	for i, j := range s.zi {
		if c.refined[i] != nil {
			s.global[j] = c.refined[i]
		}
	}
	stop := s.pk && s.converged()
	s.bySender = nil
	s.emit(EventRoundEnd, s.round, s.objective)
	s.round++
	s.capped = !stop && s.round >= s.maxRounds
	if stop || s.capped {
		return s.enter(PhaseDone)
	}
	return s.enter(PhaseBroadcastGlobals)
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
	ev := Event{Kind: kind, Peer: s.id, Epoch: s.epoch, Round: round, Phase: s.phase, Objective: objective}
	if kind == EventRoundEnd {
		ev.PeersChanged, ev.GlobalsChanged = s.peersChanged, s.globalsChanged
	}
	s.out = append(s.out, ev)
}

func (s *session) send(to int, payload any) {
	s.out = append(s.out, send{to: to, round: s.round, phase: s.phase, payload: payload})
}

func (s *session) arm(startup bool) { s.out = append(s.out, armTimer{startup}) }

// accept is where every round message is consumed, whether it arrived in
// its phase or was held back until the StartMsg: the numbers it claims are
// vetted against the session's dimensions before anything is grown or
// indexed by them (frames arrive from a port anyone on the host can dial),
// it is accounted to its round, and it is buffered under (type, round), one
// per sender and epoch. A member's final AssignMsg is vetted and placed
// instead (onAssign). A violation fails the session with
// ErrUnexpectedMessage.
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
		if slices.ContainsFunc(s.pendGlobal[round], func(q GlobalRepsMsg) bool { return q.From == msg.From }) {
			return fmt.Errorf("%w: a second GlobalRepsMsg from peer %d in round %d", ErrUnexpectedMessage, msg.From, round)
		}
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
		if slices.ContainsFunc(s.pendLocal[round], func(q LocalRepsMsg) bool { return q.From == msg.From }) {
			return fmt.Errorf("%w: a second LocalRepsMsg from peer %d in round %d", ErrUnexpectedMessage, msg.From, round)
		}
		s.pendLocal[round] = append(s.pendLocal[round], msg)
	case AssignMsg:
		return s.onAssign(env, msg)
	default:
		return fmt.Errorf("%w: %T in phase %s", ErrUnexpectedMessage, env.Payload, s.phase)
	}
	s.report.GrowRound(round, len(s.local))
	s.report.RecvMsgsByRound[round]++
	s.report.RecvBytesByRound[round] += s.sizer(env.Payload)
	return nil
}

// onAssign vets a member's final assignment and places it in the coordinator's
// corpus-wide one. An AssignMsg has no round, so the header check's round is
// a formality; it is not round traffic and is not accounted.
func (s *session) onAssign(env p2p.Envelope, msg AssignMsg) error {
	if err := CheckHeader(env, msg.From, 0, s.m, 1); err != nil {
		return err
	}
	if s.id != 0 || msg.From == 0 || s.reported[msg.From] {
		return fmt.Errorf("%w: AssignMsg from peer %d at peer %d is not a first member report",
			ErrUnexpectedMessage, msg.From, s.id)
	}
	if n := len(s.partition[msg.From]); len(msg.Assign) != n {
		return fmt.Errorf("%w: peer %d reported %d assignments for %d local transactions",
			ErrUnexpectedMessage, msg.From, len(msg.Assign), n)
	}
	for i, a := range msg.Assign {
		if a < cluster.TrashCluster || a >= s.k {
			return fmt.Errorf("%w: peer %d assigns transaction %d to cluster %d, outside [%d,%d)",
				ErrUnexpectedMessage, msg.From, i, a, cluster.TrashCluster, s.k)
		}
	}
	s.place(msg.From, msg.Assign)
	return nil
}

// place maps slot from's local assignment into the corpus-wide one through
// the partition.
func (s *session) place(from int, assign []int) {
	for i, a := range assign {
		s.final[s.partition[from][i]] = a
	}
	s.reported[from] = true
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
func (s *session) result() *PeerResult {
	return &PeerResult{
		ID:     s.id,
		Rounds: s.rounds,
		Capped: s.capped,
		Assign: append([]int(nil), s.assign...),
		Reps:   append([]*txn.Transaction(nil), s.global...),
		Items:  s.items,
		Report: s.report,
		Global: s.final,
	}
}
