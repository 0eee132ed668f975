package core

import (
	"cmp"
	"fmt"
	"slices"

	"xmlclust/internal/cluster"
	"xmlclust/internal/txn"
)

// SessionState is the restorable protocol state of a peer session at a
// round boundary (the entry of PhaseBroadcastGlobals, before any message of
// the round is sent). It is the unit of checkpointing and recovery for the
// elastic peer fabric: gob-encodable and process-portable — representatives
// travel in wire form (flattened raw item ids), so a state captured in one
// OS process installs into a fresh process that loaded the same corpus and
// replays the remaining rounds byte-identically.
type SessionState struct {
	// Epoch is the membership epoch the state belongs to. A session
	// installing a state adopts its epoch and rejects older traffic.
	Epoch int
	// Round is the 0-based round about to start.
	Round int
	// Rounds is the executed-round count at capture time (== Round).
	Rounds int
	// K is the cluster count; Zs the responsibility partition Z_1..Z_m
	// exactly as announced in the StartMsg.
	K  int
	Zs [][]int
	// Assign is the local assignment, parallel to the peer's partition part.
	Assign []int
	// Sizes holds the per-cluster local membership counts |C_i_j|.
	Sizes []int
	// Global and LocalRp are the global and local representatives in wire
	// form (index = cluster id; empty wire form = nil representative).
	Global  []WireTxn
	LocalRp []WireTxn
	// SeenStates are the cycle-detection fingerprints of past local
	// representative states, sorted so the encoding is deterministic.
	SeenStates []uint64
}

// capture snapshots the session's restorable state. Valid at round
// boundaries only (protocol state initialized, no round in flight).
func (s *session) capture() *SessionState {
	zs := make([][]int, len(s.zs))
	for i, z := range s.zs {
		zs[i] = append([]int(nil), z...)
	}
	seen := make([]uint64, 0, len(s.seenStates))
	for fp := range s.seenStates {
		seen = append(seen, fp)
	}
	slices.Sort(seen)
	return &SessionState{
		Epoch:      s.epoch,
		Round:      s.round,
		Rounds:     s.rounds,
		K:          s.k,
		Zs:         zs,
		Assign:     append([]int(nil), s.assign...),
		Sizes:      append([]int(nil), s.sizes...),
		Global:     wireReps(s.items, s.global),
		LocalRp:    wireReps(s.items, s.localRp),
		SeenStates: seen,
	}
}

// vet checks a state against this session before any of it is assigned: a
// checkpoint file or a streamed join state is bytes this process did not
// write, and its numbers become slice indices (cluster ids into
// representative slices, item ids into the interning table on
// re-conflation). A state that fails wraps ErrUnexpectedMessage.
func (s *session) vet(st *SessionState) error {
	if st.K <= 0 || len(st.Zs) != s.m || s.id >= len(st.Zs) {
		return fmt.Errorf("%w: state for %d peers, transport has %d (peer %d)",
			ErrUnexpectedMessage, len(st.Zs), s.m, s.id)
	}
	if len(st.Assign) != len(s.local) {
		return fmt.Errorf("%w: state carries %d assignments for %d local transactions",
			ErrUnexpectedMessage, len(st.Assign), len(s.local))
	}
	if len(st.Global) != st.K || len(st.LocalRp) != st.K || len(st.Sizes) != st.K {
		return fmt.Errorf("%w: state carries %d/%d representatives and %d sizes for k = %d",
			ErrUnexpectedMessage, len(st.Global), len(st.LocalRp), len(st.Sizes), st.K)
	}
	for i, a := range st.Assign {
		if a != cluster.TrashCluster && (a < 0 || a >= st.K) {
			return fmt.Errorf("%w: state assigns transaction %d to cluster %d, outside [0,%d)",
				ErrUnexpectedMessage, i, a, st.K)
		}
	}
	for peer, z := range st.Zs {
		for _, j := range z {
			if j < 0 || j >= st.K {
				return fmt.Errorf("%w: state makes peer %d responsible for cluster %d, outside [0,%d)",
					ErrUnexpectedMessage, peer, j, st.K)
			}
		}
	}
	nItems := s.items.Len()
	for _, reps := range [][]WireTxn{st.Global, st.LocalRp} {
		for j, w := range reps {
			if err := CheckWireRep(j, st.K, w, nItems); err != nil {
				return err
			}
		}
	}
	return nil
}

// install replaces the session's protocol state with st and re-enters the
// round loop at st.Round under st.Epoch: reorder buffers are reset (traffic
// from the abandoned attempt belongs to a dead epoch) and parked
// future-epoch envelopes become deliverable. The inverse of capture. A state
// that does not pass vet leaves the session as it was.
func (s *session) install(st *SessionState) error {
	if err := s.vet(st); err != nil {
		return err
	}
	s.epoch, s.k, s.zs, s.zi = st.Epoch, st.K, st.Zs, st.Zs[s.id]
	s.round, s.rounds = st.Round, st.Rounds
	s.assign, s.sizes = append([]int(nil), st.Assign...), append([]int(nil), st.Sizes...)
	s.global, s.localRp = unwireReps(s.items, st.Global), unwireReps(s.items, st.LocalRp)
	s.seenStates = make(map[uint64]struct{}, len(st.SeenStates))
	for _, fp := range st.SeenStates {
		s.seenStates[fp] = struct{}{}
	}
	s.prevGlobal = make([]*txn.Transaction, s.k)
	s.changed, s.bySender, s.peersChanged, s.early = false, nil, 0, nil
	s.pendGlobal, s.pendLocal = map[int][]GlobalRepsMsg{}, map[int][]LocalRepsMsg{}
	s.phase = PhaseBroadcastGlobals
	return nil
}

// wireReps converts a representative slice to wire form (nil-safe per
// entry; nil representatives become the empty wire form).
func wireReps(items *txn.ItemTable, reps []*txn.Transaction) []WireTxn {
	out := make([]WireTxn, len(reps))
	for i, rep := range reps {
		out[i] = toWire(items, rep)
	}
	return out
}

// Reconflate rebuilds reps, which resolve in src, a job's stage over dst, in
// dst: how a job hands its result to the corpus. An item below src's base is
// dst's and keeps its id; a job item is interned in dst by its ⟨path, answer⟩
// with its own vector and constituents, without a second sum. Job ids follow
// the job's schedule, so a representative's job items go in by content, in
// ascending order of their smallest raw constituent (an order without ties:
// the items sit at distinct paths, so their constituents are disjoint) —
// the ids, in the order and with the bits that re-conflating the wire form
// gives. An empty representative becomes nil.
func Reconflate(dst, src *txn.ItemTable, reps []*txn.Transaction) []*txn.Transaction {
	out := make([]*txn.Transaction, len(reps))
	var ids []txn.ItemID
	for i, rep := range reps {
		if rep == nil || rep.Len() == 0 {
			continue
		}
		ids = append(ids[:0], rep.Items...)
		tail, _ := slices.BinarySearch(ids, src.Base()) // job ids sort last
		job := ids[tail:]
		slices.SortFunc(job, func(a, b txn.ItemID) int {
			return cmp.Compare(src.Get(a).Constituents[0], src.Get(b).Constituents[0])
		})
		for k, id := range job {
			it := src.Get(id)
			job[k] = dst.InternSynthetic(it.Path, it.Answer, it.Vector, it.Constituents)
		}
		out[i] = txn.NewTransaction(ids, -1, -1, -1)
	}
	return out
}

// unwireReps re-conflates a wire-form representative slice in the local
// interning table.
func unwireReps(items *txn.ItemTable, reps []WireTxn) []*txn.Transaction {
	out := make([]*txn.Transaction, len(reps))
	for i, w := range reps {
		out[i] = fromWire(items, w)
	}
	return out
}
