// Package core implements CXK-means (Fig. 5 of the paper): the
// collaborative distributed clustering of XML transactions over a P2P
// network. Every peer clusters its local transactions against the k global
// representatives, computes local cluster representatives, and exchanges
// them so that the peers responsible for each cluster can compute the
// global representatives collaboratively.
//
// # The round engine
//
// The relocate→refine half of every round runs on a cluster.Rounds: the
// fast engine (posting-list scoring, the local-representative memo) with
// Options.Fast set, the reference engine the fast one is checked against
// without. Output is byte-identical either way, and so is everything on the
// wire: every representative travels in full on every engine, in one wire
// form, so the engine is a peer's own business — fast and reference peers can
// share a session. What the engine carries between rounds is a pure function
// of cluster memberships, so installing a checkpoint or a coordinator state
// stream (restore, crash recovery, -join) and a membership epoch change have
// nothing to invalidate.
//
// No frame carries a protocol version: all processes of a session are
// expected to run one build.
package core

import (
	"fmt"
	"slices"

	"xmlclust/internal/cluster"
	"xmlclust/internal/fnv"
	"xmlclust/internal/p2p"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
)

// WireTxn is the transport representation of a (representative)
// transaction: the flattened raw item ids of its leaves. Raw item ids are
// stable across every process that loaded the same corpus, while synthetic
// (conflated) representative items are process-local — so senders flatten
// to raw constituents (toWire) and receivers re-conflate in their own
// interning table (fromWire). WireTxnSize accounts for the full semantic
// payload (paths, answers, TCU vectors) a cross-machine deployment ships,
// matching the paper's cost model O(|tr|·(|u|+depth)).
type WireTxn struct {
	Items []txn.ItemID
}

// StartMsg is the trivial startup message of node N0: the partition of the
// cluster identifiers {1..k} into responsibility sets Z_1..Z_m, plus the
// clustering parameters. Seed, Txns and PartitionHash let every peer check
// that the whole cluster was launched with one consistent configuration —
// a multi-process deployment with divergent flags would otherwise compute
// silently wrong assignments.
type StartMsg struct {
	Zs    [][]int
	K     int
	F     float64
	Gamma float64
	// Seed is the base seed of the run (peer i derives Seed+i).
	Seed int64
	// Txns is the corpus size |S|.
	Txns int
	// PartitionHash fingerprints the data partition S_1..S_m.
	PartitionHash uint64
}

// GlobalRepsMsg broadcasts the global representatives a peer is responsible
// for at the start of every round.
type GlobalRepsMsg struct {
	From  int
	Round int
	// Reps maps cluster id → representative.
	Reps map[int]WireTxn
}

// Flag is a peer's per-round state signal.
type Flag uint8

const (
	// FlagContinue signals that the peer's local representatives changed.
	FlagContinue Flag = iota
	// FlagDone signals a stable local clustering.
	FlagDone
)

// LocalRepsMsg carries a peer's local representatives (with cluster sizes
// as weights) for the clusters the destination peer is responsible for —
// or an empty broadcast when the peer is done.
type LocalRepsMsg struct {
	From  int
	Round int
	Flag  Flag
	// Reps maps cluster id → (representative, |C_i_j|).
	Reps map[int]WeightedWireRep
	// Objective is the sender's local clustering objective after the round's
	// relocation; the PK-means stop rule sums it over the peers.
	Objective float64
}

// WeightedWireRep pairs a representative with its local cluster size.
type WeightedWireRep struct {
	Rep    WireTxn
	Weight int
}

// AssignMsg reports a peer's final local assignment to the coordinator
// after its session terminates. Fig. 5 leaves result collection out of
// scope; multi-process deployments (RunPeer / cmd/cxkpeer) use it so the
// coordinator can assemble the corpus-wide assignment.
type AssignMsg struct {
	From   int
	Rounds int
	// Assign is the sender's local assignment in local transaction order
	// (the coordinator maps it back through the shared partition).
	Assign []int
}

func init() {
	p2p.RegisterWireType(StartMsg{})
	p2p.RegisterWireType(GlobalRepsMsg{})
	p2p.RegisterWireType(LocalRepsMsg{})
	p2p.RegisterWireType(AssignMsg{})
}

// CheckHeader vets the sender and the round a received round message claims,
// before anything is grown or indexed by them: the sender must be the one the
// transport saw and a peer id in [0, peers), the round in [0, rounds). Frames
// come from a port anyone on the host can dial, so a violation is an error
// (ErrUnexpectedMessage), never a panic or an allocation.
func CheckHeader(env p2p.Envelope, from, round, peers, rounds int) error {
	if from != env.From || from < 0 || from >= peers {
		return fmt.Errorf("%w: %T claims sender %d on a frame from peer %d (of %d)",
			ErrUnexpectedMessage, env.Payload, from, env.From, peers)
	}
	if round < 0 || round >= rounds {
		return fmt.Errorf("%w: %T from peer %d for round %d, outside [0,%d)",
			ErrUnexpectedMessage, env.Payload, from, round, rounds)
	}
	return nil
}

// CheckWireRep vets one received representative: its cluster id must lie in
// [0, k) and every wire item id in the interning table of nItems items.
func CheckWireRep(j, k int, w WireTxn, nItems int) error {
	if j < 0 || j >= k {
		return fmt.Errorf("%w: representative for cluster %d, outside [0,%d)", ErrUnexpectedMessage, j, k)
	}
	for _, id := range w.Items {
		if id < 0 || int(id) >= nItems {
			return fmt.Errorf("%w: representative for cluster %d names item %d, outside [0,%d)",
				ErrUnexpectedMessage, j, id, nItems)
		}
	}
	return nil
}

// toWire converts a transaction to its wire form: the flattened raw item
// ids (nil-safe). Synthetic (conflated) representative items are
// process-local — their ids do not exist in a remote peer's interning
// table — but they are fully determined by their raw constituents, which
// are corpus items and therefore share ids across every process that loaded
// the same corpus.
func toWire(items *txn.ItemTable, tr *txn.Transaction) WireTxn {
	if tr == nil {
		return WireTxn{}
	}
	out := make([]txn.ItemID, 0, len(tr.Items))
	for _, id := range tr.Items {
		out = append(out, items.Get(id).Flatten()...)
	}
	return WireTxn{Items: out}
}

// fromWire rebuilds a transaction by re-conflating the raw ids in the local
// interning table (nil for the empty wire form). Conflation is
// deterministic and dedupes through the table, so on a shared in-process
// table it reproduces the sender's exact item ids, and across processes it
// reproduces items with identical semantics (path, merged answer, vector).
func fromWire(items *txn.ItemTable, w WireTxn) *txn.Transaction {
	if len(w.Items) == 0 {
		return nil
	}
	return cluster.ConflateItems(items, w.Items)
}

// RepsDigest canonically fingerprints a representative set: FNV-1a over
// each representative's sorted flattened raw item ids with separators, so
// two processes (or two runs) with the same corpus produce equal digests
// exactly when their representatives are identical item sets. This is the
// cross-process equality check behind the fabric's recovery-equivalence
// gate — synthetic item ids are process-local, raw constituents are not.
func RepsDigest(items *txn.ItemTable, reps []*txn.Transaction) uint64 {
	h := fnv.Offset
	for _, rep := range reps {
		h = fnv.Mix(h, ^uint64(0)) // representative separator
		ids := slices.Clone(toWire(items, rep).Items)
		slices.Sort(ids)
		for _, id := range ids {
			h = fnv.Mix(h, uint64(id))
		}
	}
	return h
}

// WireTxnSize models the semantic wire size of a representative: each item
// costs its dotted path length + answer length + 12 bytes per sparse vector
// entry (term id + weight), mirroring the O(|trmax|·(|umax|+depth))
// transfer-cost bound of Sect. 4.3.3.
func WireTxnSize(items *txn.ItemTable, w WireTxn) int64 {
	n := int64(8)
	for _, id := range w.Items {
		it := items.Get(id)
		n += int64(len(it.Answer)) + 8
		n += int64(len(items.Paths().Path(it.Path).String()))
		n += vectorBytes(it.Vector)
	}
	return n
}

// Sizer returns a p2p.Sizer that models wire sizes for the core message
// types against the given item table.
func Sizer(items *txn.ItemTable) p2p.Sizer {
	return func(payload any) int64 {
		switch m := payload.(type) {
		case StartMsg:
			return int64(16 + 8*m.K)
		case GlobalRepsMsg:
			n := int64(16)
			for _, r := range m.Reps {
				n += 8 + WireTxnSize(items, r)
			}
			return n
		case LocalRepsMsg:
			n := int64(17)
			for _, r := range m.Reps {
				n += 16 + WireTxnSize(items, r.Rep)
			}
			return n
		case AssignMsg:
			return int64(24 + 8*len(m.Assign))
		default:
			return 64
		}
	}
}

// vectorBytes models the cost of shipping a sparse TCU vector.
func vectorBytes(v vector.Sparse) int64 { return int64(12 * v.Len()) }
