// Package fabric implements the elastic peer fabric of distributed
// CXK-means sessions: round-boundary checkpointing with replication to the
// coordinator, dynamic membership (join/leave at round boundaries under
// epoch-stamped views), and failure recovery by rolling every peer back to
// the last common checkpoint.
//
// The fabric layers on internal/core through the core.Hooks interface: it
// never touches protocol internals, only round-boundary states (capture /
// install) and the control-plane messages of messages.go. Because the
// protocol is deterministic given (corpus, partition, seed, k, f, γ), a
// session that loses a peer mid-round and recovers replays to final
// assignments and representatives byte-identical to an uninterrupted run —
// the equivalence the recovery tests enforce.
//
// Roles. Peer 0 (the coordinator) is the membership authority: members
// replicate their boundary checkpoints to it (a leave is one more such
// checkpoint), joins funnel through it, and on failure it computes the
// rollback barrier — the newest round C every slot has replicated — bumps
// the membership epoch and broadcasts ResumeMsg. Survivors restore round C
// from their own store; a joining process, whatever its disk holds,
// installs the slot's replica at C, which the ResumeMsg carries. Data never
// travels: every process loads its own corpus, and the run fingerprint
// (ConfigFingerprint) folds a digest of that corpus's content, so the
// coordinator drops a join from a process whose corpus differs. Coordinator
// death is not recovered from: members fail with core.ErrCoordinatorLost.
package fabric

import (
	"fmt"
	"slices"

	"xmlclust/internal/core"
	"xmlclust/internal/p2p"
)

// Defaults for the tunable knobs of Config.
const (
	// DefaultEvery checkpoints every round boundary.
	DefaultEvery = 1
	// DefaultRecoveryWindows grants two extra receive windows after the
	// first expiry before a peer gives up — recovery must complete within
	// 2× the round timeout.
	DefaultRecoveryWindows = 2
)

// Config parameterizes one peer's fabric layer.
type Config struct {
	// ID is this peer's slot (0 = coordinator).
	ID int
	// Transport is the session transport; control traffic is sent through
	// it epoch-less when it supports stamping (p2p.Node, TCPTransport).
	Transport p2p.Transport
	// Store is the local checkpoint store.
	Store *Store
	// Fingerprint is the run-configuration fingerprint (ConfigFingerprint);
	// checkpoints, replicas and joins under a different fingerprint are
	// rejected.
	Fingerprint uint64
	// Every is the checkpoint cadence in rounds (0 = DefaultEvery).
	// Replication to the coordinator happens at the same cadence, so the
	// rollback barrier is always locally restorable by every survivor.
	Every int
	// RecoveryWindows is how many extra receive windows a stalled peer
	// grants recovery before failing with core.ErrRecoveryTimeout
	// (0 = DefaultRecoveryWindows).
	RecoveryWindows int
	// Metrics receives the fabric counters (optional).
	Metrics *Metrics
}

// Peer is the fabric layer of one session peer. It implements core.Hooks;
// wire it into core.Options.Hooks (plus Rejoin for a joining process) and
// run the session as usual. All hook methods run on the session goroutine;
// SendJoin and RequestLeave are safe from other goroutines.
type Peer struct {
	cfg         Config
	coordinator bool
	epoch       int

	leave   atomicFlag
	joining atomicFlag

	// Failure-detection accounting (session goroutine only).
	windows   int
	suspected bool

	// Coordinator state (session goroutine only).
	pending []JoinMsg
	replica map[int]map[int]*core.SessionState // slot → round → boundary state
	latest  map[int]int                        // slot → newest replicated round
}

// NewPeer validates the configuration and builds the fabric layer.
func NewPeer(cfg Config) (*Peer, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("fabric: need a transport")
	}
	m := cfg.Transport.Peers()
	if cfg.ID < 0 || cfg.ID >= m {
		return nil, fmt.Errorf("fabric: peer id %d outside transport of %d peers", cfg.ID, m)
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("fabric: need a checkpoint store")
	}
	if cfg.Every < 0 || cfg.RecoveryWindows < 0 {
		return nil, fmt.Errorf("fabric: negative cadence %d or recovery windows %d", cfg.Every, cfg.RecoveryWindows)
	}
	if cfg.Every == 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.RecoveryWindows == 0 {
		cfg.RecoveryWindows = DefaultRecoveryWindows
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	if sc, ok := cfg.Transport.(staleCounter); ok {
		cfg.Metrics.stale = sc
	}
	p := &Peer{cfg: cfg, coordinator: cfg.ID == 0}
	if p.coordinator {
		p.replica = make(map[int]map[int]*core.SessionState, m)
		p.latest = make(map[int]int, m)
		for i := 0; i < m; i++ {
			p.latest[i] = -1
		}
	}
	return p, nil
}

// Metrics returns the peer's counters.
func (p *Peer) Metrics() *Metrics { return p.cfg.Metrics }

// RequestLeave asks for a graceful departure: at the next cadence-aligned
// round boundary the peer replicates its checkpoint to the coordinator as
// usual and the session terminates with core.ErrLeft. The slot's replica
// then waits there for a replacement's join.
func (p *Peer) RequestLeave() { p.leave.set() }

// SendJoin announces this peer to the coordinator as a process taking over
// its slot and must be called before the session runs (with
// core.Options.Rejoin set). Whatever the local store holds, the joiner
// installs the coordinator's replica of the slot.
func (p *Peer) SendJoin() error {
	if p.coordinator {
		return fmt.Errorf("fabric: the coordinator cannot join (%w on coordinator death)", core.ErrCoordinatorLost)
	}
	p.joining.set()
	return p.sendJoinMsg()
}

func (p *Peer) sendJoinMsg() error {
	msg := JoinMsg{Slot: p.cfg.ID, Fingerprint: p.cfg.Fingerprint}
	if err := sendCtl(p.cfg.Transport, p.cfg.ID, 0, msg); err != nil {
		return fmt.Errorf("%w: join announcement: %v", core.ErrCoordinatorLost, err)
	}
	return nil
}

// RoundBoundary implements core.Hooks: checkpoint at the configured
// cadence, replicate to the coordinator, honor a leave request after the
// replica is sent, and (on the coordinator) admit pending joins.
func (p *Peer) RoundBoundary(st *core.SessionState) (*core.SessionState, error) {
	m := p.cfg.Metrics
	m.rounds.Add(1)
	m.epoch.Store(int64(st.Epoch))
	m.beat()
	p.epoch = st.Epoch
	p.windows = 0
	p.suspected = false

	onCadence := st.Round%p.cfg.Every == 0
	if onCadence {
		if err := p.cfg.Store.Save(p.cfg.ID, p.cfg.Fingerprint, st); err != nil {
			return nil, err
		}
		m.ckptWritten.Add(1)
	}

	if p.coordinator {
		if onCadence {
			p.record(0, st)
		}
		if len(p.pending) > 0 {
			return p.admit()
		}
		return nil, nil
	}

	if onCadence {
		if err := sendCtl(p.cfg.Transport, p.cfg.ID, 0, CheckpointMsg{
			Slot: p.cfg.ID, Fingerprint: p.cfg.Fingerprint, State: *st,
		}); err != nil {
			return nil, fmt.Errorf("%w: checkpoint replication: %v", core.ErrCoordinatorLost, err)
		}
		if p.leave.isSet() {
			return nil, core.ErrLeft
		}
	}
	return nil, nil
}

// Control implements core.Hooks: the fabric's control-plane dispatch.
func (p *Peer) Control(env p2p.Envelope) (*core.SessionState, error) {
	switch msg := env.Payload.(type) {
	case CheckpointMsg:
		if !p.coordinator {
			return nil, nil
		}
		if msg.Fingerprint != p.cfg.Fingerprint {
			return nil, fmt.Errorf("%w: replica from slot %d under fingerprint %016x, this run is %016x",
				ErrCheckpointMismatch, msg.Slot, msg.Fingerprint, p.cfg.Fingerprint)
		}
		st := msg.State
		p.record(msg.Slot, &st)
		return nil, nil

	case JoinMsg:
		if !p.coordinator {
			return nil, nil
		}
		if msg.Fingerprint != p.cfg.Fingerprint {
			// A misconfigured joiner cannot be admitted; dropping the
			// request lets a correctly configured replacement still win.
			return nil, nil
		}
		// The slot is occupied by a new process: a cached connection still
		// leads to its dead predecessor and must not carry the admission.
		resetConn(p.cfg.Transport, msg.Slot)
		for i, q := range p.pending {
			if q.Slot == msg.Slot {
				p.pending[i] = msg
				return nil, nil
			}
		}
		p.pending = append(p.pending, msg)
		return nil, nil

	case SuspectMsg:
		// Informational: the coordinator's own deadline drives recovery,
		// and the member learns about coordinator death from the send
		// failing, not from a reply.
		return nil, nil

	case ResumeMsg:
		if p.coordinator {
			return nil, nil
		}
		if msg.Fingerprint != p.cfg.Fingerprint {
			return nil, fmt.Errorf("%w: resume under fingerprint %016x, this run is %016x",
				ErrCheckpointMismatch, msg.Fingerprint, p.cfg.Fingerprint)
		}
		if msg.State == nil && p.joining.isSet() {
			// A survivors' barrier that raced this join: a joiner installs
			// only the replica its own admission carries.
			return nil, nil
		}
		for _, slot := range msg.Joined {
			if slot != p.cfg.ID {
				resetConn(p.cfg.Transport, slot)
			}
		}
		st := msg.State
		if st != nil {
			// The replica becomes this process's own checkpoint, so a later
			// barrier at the same round restores it locally like a survivor.
			if err := p.cfg.Store.Save(p.cfg.ID, p.cfg.Fingerprint, st); err != nil {
				return nil, err
			}
			p.cfg.Metrics.ckptWritten.Add(1)
		} else {
			var err error
			if st, err = p.cfg.Store.Load(p.cfg.ID, msg.Round, p.cfg.Fingerprint); err != nil {
				return nil, err
			}
		}
		st.Epoch = msg.Epoch
		p.cfg.Metrics.ckptLoaded.Add(1)
		p.joining.clear()
		p.windows = 0
		p.suspected = false
		return st, nil
	}
	return nil, nil
}

// Deadline implements core.Hooks: failure detection. A member's first
// expiry raises a SuspectMsg (whose send failure exposes coordinator
// death); the coordinator's expiry is its cue to admit pending joins.
// Either side grants RecoveryWindows extra windows, then gives up.
func (p *Peer) Deadline(phase core.Phase, round int) (*core.SessionState, error) {
	p.windows++
	if p.coordinator {
		if len(p.pending) > 0 {
			st, err := p.admit()
			if err != nil || st != nil {
				return st, err
			}
		}
	} else if p.joining.isSet() {
		// The announcement may have raced a dying coordinator or been sent
		// before the listener came up; re-announce instead of suspecting.
		if err := p.sendJoinMsg(); err != nil {
			return nil, err
		}
	} else if !p.suspected {
		p.suspected = true
		p.cfg.Metrics.suspects.Add(1)
		if err := sendCtl(p.cfg.Transport, p.cfg.ID, 0, SuspectMsg{
			From: p.cfg.ID, Round: round, Phase: int(phase),
		}); err != nil {
			return nil, fmt.Errorf("%w: suspect report: %v", core.ErrCoordinatorLost, err)
		}
	}
	if p.windows > p.cfg.RecoveryWindows {
		return nil, fmt.Errorf("%w: %s round %d stalled through %d windows",
			core.ErrRecoveryTimeout, phase, round, p.windows)
	}
	return nil, nil
}

// SendFailed implements core.Hooks: a failed protocol send to a member is
// swallowed — the receive deadline and the coordinator's barrier reconcile
// the session — but a member that cannot reach the coordinator is done.
func (p *Peer) SendFailed(to, round int, err error) error {
	if !p.coordinator && to == 0 {
		return fmt.Errorf("%w: send to coordinator in round %d: %v", core.ErrCoordinatorLost, round, err)
	}
	return nil
}

// record stores a replicated boundary state on the coordinator and prunes
// rounds below the current barrier (they can never be rolled back to:
// the barrier is the minimum of per-slot latests, which only grows).
func (p *Peer) record(slot int, st *core.SessionState) {
	byRound := p.replica[slot]
	if byRound == nil {
		byRound = make(map[int]*core.SessionState)
		p.replica[slot] = byRound
	}
	byRound[st.Round] = st
	if st.Round > p.latest[slot] {
		p.latest[slot] = st.Round
	}
	if c := p.barrier(); c > 0 {
		for _, rounds := range p.replica {
			for r := range rounds {
				if r < c {
					delete(rounds, r)
				}
			}
		}
	}
}

// barrier returns the newest round every slot has replicated (-1 when some
// slot never has).
func (p *Peer) barrier() int {
	c := int(^uint(0) >> 1)
	for _, r := range p.latest {
		if r < c {
			c = r
		}
	}
	return c
}

// admit computes the rollback barrier for the pending joins, bumps the
// epoch, broadcasts the recovery fan-out and returns the coordinator's own
// state at the barrier for installation. Every joining slot gets its replica
// at the barrier in its ResumeMsg; survivors restore theirs locally. Returns
// (nil, nil) when some slot has nothing to barrier on yet — the joins stay
// queued for the next boundary or window.
func (p *Peer) admit() (*core.SessionState, error) {
	c := p.barrier()
	if c < 0 {
		return nil, nil
	}
	newEpoch := p.epoch + 1
	joined := make([]int, 0, len(p.pending))
	for _, j := range p.pending {
		joined = append(joined, j.Slot)
	}
	resume := ResumeMsg{Epoch: newEpoch, Round: c, Joined: joined, Fingerprint: p.cfg.Fingerprint}
	for _, slot := range joined {
		st := p.replica[slot][c]
		if st == nil {
			return nil, fmt.Errorf("fabric: no replica for joining slot %d at barrier round %d", slot, c)
		}
		msg, replica := resume, *st
		msg.State = &replica
		// A joiner that died again misses its admission; its next
		// announcement re-queues it.
		_ = sendCtl(p.cfg.Transport, 0, slot, msg)
	}
	for slot := 1; slot < p.cfg.Transport.Peers(); slot++ {
		if !slices.Contains(joined, slot) {
			// A survivor that died since its last replica misses the resume;
			// its replacement's join triggers the next barrier.
			_ = sendCtl(p.cfg.Transport, 0, slot, resume)
		}
	}

	own := p.replica[0][c]
	if own == nil {
		return nil, fmt.Errorf("fabric: coordinator has no own replica at barrier round %d", c)
	}
	for slot := range p.latest {
		if p.latest[slot] > c {
			p.latest[slot] = c
		}
	}
	p.pending = p.pending[:0]
	p.epoch = newEpoch
	p.windows = 0
	p.cfg.Metrics.epoch.Store(int64(newEpoch))
	st := *own
	st.Epoch = newEpoch
	return &st, nil
}
