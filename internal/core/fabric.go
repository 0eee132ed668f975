package core

import (
	"errors"
	"fmt"
	"slices"

	"xmlclust/internal/p2p"
)

// Fabric turns on the elastic fabric for a RunPeer session: round-boundary
// checkpoints replicated to the coordinator, joins and leaves at round
// boundaries under epoch-stamped views, and recovery by rolling every peer
// back to the newest round all slots have replicated (see doc.go). The
// policy is part of the session machine; RunPeer's driver does its I/O.
type Fabric struct {
	// Store keeps this peer's boundary checkpoints (fabric.Store).
	Store Checkpoints
	// Fingerprint is the run-configuration fingerprint
	// (fabric.ConfigFingerprint); replicas, resumes and joins under another
	// one are refused.
	Fingerprint uint64
	// Every is the checkpoint cadence in rounds (0 = every round).
	// Replication to the coordinator happens at the same cadence, so the
	// rollback barrier is always locally restorable by every survivor.
	Every int
	// RecoveryWindows is how many extra receive windows a stalled peer
	// grants recovery before failing with ErrRecoveryTimeout (0 = 2).
	RecoveryWindows int
	// Leave, once it yields or is closed, asks for a graceful departure: at
	// its next checkpoint the member replicates it as usual and the session
	// ends with ErrLeft. The slot's replica then waits for a joiner.
	Leave <-chan struct{}
}

// Checkpoints persists a fabric session's boundary states, one per (slot,
// round), under the run's fingerprint.
type Checkpoints interface {
	Save(slot int, fp uint64, st *SessionState) error
	Load(slot, round int, fp uint64) (*SessionState, error)
}

// ErrCheckpointMismatch reports a checkpoint or replica written under a
// different run configuration (k, f, γ, seed, corpus, partition or peer
// count): restoring it would replay a different protocol and diverge
// silently.
var ErrCheckpointMismatch = errors.New("fabric: checkpoint configuration mismatch")

// The fabric's requests to the driver, beside send (control sends are
// stamped p2p.EpochAny and not accounted to the protocol's traffic).
type (
	// checkpoint saves a boundary state to the store.
	checkpoint struct{ st *SessionState }
	// restore loads this peer's checkpoint of a round; the machine waits on
	// the answer, a loaded state.
	restore struct{ round int }
	// reset drops the cached connection to a slot held by a new process.
	reset struct{ to int }
	// leave is the input of a requested departure.
	leave struct{}
)

// fabric is the policy state of a session under Options.Fabric.
type fabric struct {
	fp               uint64
	every, windows   int
	expired          int  // timer expiries since the last boundary
	suspected        bool // a SuspectMsg went out since the last boundary
	joining, leaving bool
	resumeEpoch      int // of the restore in flight
	// dropped counts control messages refused by vetting.
	dropped int

	// Coordinator only.
	pending []JoinMsg
	replica map[int]map[int]*SessionState // slot → round → boundary state
	latest  []int                         // slot → newest replicated round
}

func newFabric(cfg *Fabric, m int) *fabric {
	f := &fabric{fp: cfg.Fingerprint, every: max(cfg.Every, 1), windows: cfg.RecoveryWindows,
		replica: map[int]map[int]*SessionState{}, latest: make([]int, m)}
	if f.windows <= 0 {
		f.windows = 2
	}
	for i := range f.latest {
		f.latest[i] = -1
	}
	return f
}

// control queues a control-plane send.
func (s *session) control(to int, payload any) {
	s.out = append(s.out, send{to: to, round: s.round, phase: s.phase, payload: payload, control: true})
}

// boundary is the entry of PhaseBroadcastGlobals: the protocol state is
// quiescent, so on cadence the fabric checkpoints here — a member then
// replicates the state to the coordinator and honours a pending leave, the
// coordinator records its own and admits pending joins. Then the round's
// broadcast begins.
func (s *session) boundary() error {
	if f := s.fab; f != nil {
		f.expired, f.suspected = 0, false
		if s.round%f.every == 0 {
			st := s.capture()
			s.out = append(s.out, checkpoint{st})
			s.emit(EventCheckpoint, s.round, 0)
			if s.id == 0 {
				f.record(0, st)
			} else {
				s.control(0, CheckpointMsg{Slot: s.id, Fingerprint: f.fp, State: *st})
				if f.leaving {
					return ErrLeft
				}
			}
		}
		if s.id == 0 && len(f.pending) > 0 {
			if admitted, err := s.admit(); admitted || err != nil {
				return err
			}
		}
	}
	s.broadcastGlobals()
	return s.collect()
}

// expired is a fired timer under the fabric, where it means failure
// detection rather than failure: the coordinator admits pending joins, a
// joiner re-announces itself (the first announcement may have raced a dying
// coordinator or a listener not up yet), and any other member reports the
// stall once — a report that fails to send exposes a dead coordinator. Each
// side grants RecoveryWindows extra windows, then gives up.
func (s *session) expired() error {
	f := s.fab
	f.expired++
	switch {
	case s.id == 0:
		if len(f.pending) > 0 {
			if admitted, err := s.admit(); admitted || err != nil {
				return err
			}
		}
	case f.joining:
		s.control(0, JoinMsg{Slot: s.id, Fingerprint: f.fp})
	case !f.suspected:
		f.suspected = true
		s.emit(EventSuspect, s.round, 0)
		s.control(0, SuspectMsg{From: s.id, Round: s.round, Phase: int(s.phase)})
	}
	if f.expired > f.windows {
		return fmt.Errorf("%w: %s round %d stalled through %d windows",
			ErrRecoveryTimeout, s.phase, s.round, f.expired)
	}
	s.arm(false)
	return nil
}

// sendFailed judges a failed send. Without the fabric every failure fails
// the session (a silent drop would leave the receiving peer to starve), and
// so does N0's StartMsg failing to reach a peer under it. Under the fabric a
// member that cannot reach the coordinator is done, and any other failure is
// survivable: the message is dropped, and the receive deadline and the
// coordinator's barrier reconcile the session — a dead neighbour must not
// cascade into every survivor failing before recovery can run.
func (s *session) sendFailed(o send, err error) error {
	_, isStart := o.payload.(StartMsg)
	switch {
	case s.fab == nil || isStart:
		return fmt.Errorf("%w: to peer %d: %v", ErrSend, o.to, err)
	case s.id != 0 && o.to == 0:
		return fmt.Errorf("%w: %T in round %d: %v", ErrCoordinatorLost, o.payload, o.round, err)
	}
	return nil
}

// onControl takes one control-plane message, in any phase and any epoch. A
// replica or a join is only the coordinator's business and a resume only a
// member's; each must name its sender's own slot (a resume comes from slot
// 0), or it is dropped and counted: a peer cannot replicate or claim
// another's slot.
func (s *session) onControl(env p2p.Envelope) error {
	f := s.fab
	if f == nil {
		return fmt.Errorf("%w: control message %T on a session without the fabric",
			ErrUnexpectedMessage, env.Payload)
	}
	member := func(slot int) bool {
		ok := slot == env.From && slot > 0 && slot < s.m
		if !ok {
			f.dropped++
		}
		return ok
	}
	switch msg := env.Payload.(type) {
	case CheckpointMsg:
		if s.id != 0 || !member(msg.Slot) {
			return nil
		}
		if msg.Fingerprint != f.fp {
			return fmt.Errorf("%w: replica from slot %d under fingerprint %016x, this run is %016x",
				ErrCheckpointMismatch, msg.Slot, msg.Fingerprint, f.fp)
		}
		st := msg.State
		f.record(msg.Slot, &st)

	case JoinMsg:
		// A misconfigured joiner cannot be admitted; dropping its request
		// lets a correctly configured replacement still win.
		if s.id != 0 || !member(msg.Slot) || msg.Fingerprint != f.fp {
			return nil
		}
		// A cached connection still leads to the slot's dead predecessor
		// and must not carry the admission.
		s.out = append(s.out, reset{msg.Slot})
		if i := slices.IndexFunc(f.pending, func(q JoinMsg) bool { return q.Slot == msg.Slot }); i >= 0 {
			f.pending[i] = msg
		} else {
			f.pending = append(f.pending, msg)
		}

	case ResumeMsg:
		if s.id == 0 {
			return nil
		}
		if env.From != 0 {
			f.dropped++
			return nil
		}
		if msg.Fingerprint != f.fp {
			return fmt.Errorf("%w: resume under fingerprint %016x, this run is %016x",
				ErrCheckpointMismatch, msg.Fingerprint, f.fp)
		}
		if msg.State == nil && f.joining {
			// A survivors' barrier that raced this join: a joiner installs
			// only the replica its own admission carries.
			return nil
		}
		for _, slot := range msg.Joined {
			if slot != s.id {
				s.out = append(s.out, reset{slot})
			}
		}
		f.joining, f.resumeEpoch = false, msg.Epoch
		if msg.State == nil {
			s.out = append(s.out, restore{msg.Round})
			return nil
		}
		// The replica's boundary checkpoints it as this process's own, so a
		// later barrier at the same round restores it like a survivor's.
		return s.restored(msg.State)
	}
	// A SuspectMsg is informational: the coordinator's own deadline drives
	// recovery, and a member learns of coordinator death from a failed send.
	return nil
}

// restored installs a resumed state under the resume's epoch and re-enters
// the round loop at its boundary.
func (s *session) restored(st *SessionState) error {
	st.Epoch = s.fab.resumeEpoch
	if err := s.install(st); err != nil {
		return err
	}
	s.emit(EventRestore, s.round, 0)
	return s.enter(PhaseBroadcastGlobals)
}

// record stores a replicated boundary state on the coordinator and prunes
// rounds below the current barrier (they can never be rolled back to: the
// barrier is the minimum of per-slot latests, which only grows).
func (f *fabric) record(slot int, st *SessionState) {
	byRound := f.replica[slot]
	if byRound == nil {
		byRound = map[int]*SessionState{}
		f.replica[slot] = byRound
	}
	byRound[st.Round] = st
	f.latest[slot] = max(f.latest[slot], st.Round)
	if c := slices.Min(f.latest); c > 0 {
		for _, rounds := range f.replica {
			for r := range rounds {
				if r < c {
					delete(rounds, r)
				}
			}
		}
	}
}

// admit rolls the session back for the pending joins: to the barrier, the
// newest round every slot has replicated, under the next epoch. Every
// joining slot gets its replica at the barrier in its ResumeMsg; survivors
// restore theirs from their own stores, and the coordinator installs its
// own. It reports false, with the joins still queued, while some slot has
// nothing to barrier on.
func (s *session) admit() (bool, error) {
	f := s.fab
	c := slices.Min(f.latest)
	if c < 0 {
		return false, nil
	}
	joined := make([]int, len(f.pending))
	for i, j := range f.pending {
		joined[i] = j.Slot
	}
	resume := ResumeMsg{Epoch: s.epoch + 1, Round: c, Joined: joined, Fingerprint: f.fp}
	for _, slot := range joined {
		st := f.replica[slot][c]
		if st == nil {
			return false, fmt.Errorf("fabric: no replica for joining slot %d at barrier round %d", slot, c)
		}
		// A joiner that died again misses its admission; its next
		// announcement re-queues it.
		msg, replica := resume, *st
		msg.State = &replica
		s.control(slot, msg)
	}
	for slot := 1; slot < s.m; slot++ {
		if !slices.Contains(joined, slot) {
			// A survivor that died since its last replica misses the
			// resume; its replacement's join triggers the next barrier.
			s.control(slot, resume)
		}
	}
	own := f.replica[0][c]
	if own == nil {
		return false, fmt.Errorf("fabric: coordinator has no own replica at barrier round %d", c)
	}
	for slot := range f.latest {
		f.latest[slot] = min(f.latest[slot], c)
	}
	f.pending = f.pending[:0]
	st := *own
	st.Epoch = resume.Epoch
	if err := s.install(&st); err != nil {
		return false, err
	}
	return true, s.enter(PhaseBroadcastGlobals)
}
