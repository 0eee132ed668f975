package cluster

import (
	"context"
	"slices"

	"xmlclust/internal/fnv"
	"xmlclust/internal/parallel"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// Rounds is the relocate→refine round engine of Fig. 5 behind the peer
// session, under CXK-means and PK-means alike: one run's transaction set and
// representative configuration, in one of two modes fixed at construction.
//
// A fast engine is two things. It scores through posting lists — documents
// against the representatives in relocation (sim.RepIndex), representative
// items against the cluster in the refinement objective (sim.MemberIndex).
// And it keeps one memo from round to round: per cluster, the
// fingerprint of its member transaction indices and the local representative
// computed for exactly that membership. Reuse is exact by a pure-replay
// argument over content: the members are corpus transactions, and
// recomputing for the same members under the same context would find, by
// ⟨path, merged answer⟩, the very synthetic items the memo's representative
// holds, and re-derive it item for item. Being a pure function of the
// membership, an entry cannot go stale, whatever the run does between two
// rounds (rollback, restore, epoch change).
//
// A reference engine is the specification the fast one is checked against:
// the dense Eq. 4 kernel per (document, representative) pair in relocation
// and in the objective, every representative recomputed.
//
// The contract is byte-identity: for any call sequence, a fast engine's
// results equal a reference engine's exactly, including the lowest-index tie
// rule, and its representatives have the same content. It holds while the
// similarity context and the transaction slice stay fixed. A Rounds serves
// one sequential run and is not safe for concurrent use. It forks two
// passes, each under RepConfig.Workers: relocation inside Assign, one
// transaction per slot, and refinement inside LocalReps and GlobalReps, one
// cluster per slot (fork). Its synthetic items go to a table of its own
// (Items): the corpus is left as it was found. Their ids are handles,
// numbered in the order the schedule interns them; what a job hands out is
// ordered by content.
type Rounds struct {
	cfg RepConfig
	s   []*txn.Transaction
	k   int // len(reps) of the latest Assign

	ix     *sim.RepIndex // nil in a reference engine
	local  repMemo       // nil in a reference engine
	fps    []uint64
	scores []float64         // winning similarity per transaction, latest pass
	order  func(n int) []int // if set, runs a pass's n items serially in this order (tests)
}

// repMemo is the per-cluster memo of local representatives, keyed by the
// fingerprint of the cluster's membership and its member count: the one place
// where two memberships hashing alike would change a result silently, so the
// 64-bit fingerprint does not stand alone. An entry of size 0 is unset — empty
// clusters have no representative to keep.
type repMemo []struct {
	fp   uint64
	size int
	rep  *txn.Transaction
}

// NewRounds returns the round engine for one run over the transactions s:
// cfg carries the similarity context, the return rule and the worker bound
// of every pass, fast selects the fast engine over the reference one. The
// cluster count is the length of the representative slice handed to Assign.
func NewRounds(cfg RepConfig, s []*txn.Transaction, fast bool) *Rounds {
	cfg.dense = !fast
	cfg.Ctx = cfg.Ctx.WithItems(cfg.Ctx.Items.Stage())
	r := &Rounds{cfg: cfg, s: s}
	if fast {
		r.ix = sim.NewRepIndex()
	}
	return r
}

// Items returns the run's item table, a stage over the corpus's made at
// construction, which every representative the run returns resolves in.
func (r *Rounds) Items() *txn.ItemTable { return r.cfg.Ctx.Items }

// Assign is the relocation step of Fig. 5 against reps: every transaction
// joins its argmax cluster (ties to the lowest index, nil and empty
// representatives never win) or TrashCluster when every similarity is zero.
// Relocation against a fixed set is a pure function of that set, so one pass
// is the fixpoint; a fast engine builds its index over reps first (O(postings),
// microseconds beside the pass). The returned slice is the caller's. A done
// ctx aborts the pass with ctx's error (nil never cancels) and the engine
// stays usable.
func (r *Rounds) Assign(ctx context.Context, reps []*txn.Transaction) ([]int, error) {
	cx := r.cfg.Ctx
	if len(reps) != r.k {
		// A different cluster count voids the per-cluster memo.
		r.k = len(reps)
		if r.ix != nil {
			r.local = make(repMemo, r.k)
		}
	}
	if r.ix != nil {
		r.ix.Build(cx, reps)
	}
	assign := make([]int, len(r.s))
	r.scores = slices.Grow(r.scores[:0], len(r.s))[:len(r.s)]
	if err := RelocateScores(ctx, cx, r.s, reps, r.cfg.Workers, r.ix, assign, r.scores); err != nil {
		return nil, err
	}
	return assign, nil
}

// Objective is the K-means-style clustering objective of the latest
// completed Assign: Σ over the transactions, in index order, of
// 1 − simγJ(tr, its representative), a trash assignment contributing 1. It is
// a by-product of relocation — the winning similarities are kept, nothing is
// scored again — and the PK-means stop rule and the progress events read it.
func (r *Rounds) Objective() float64 {
	sum := 0.0
	for _, v := range r.scores {
		sum += 1 - v
	}
	return sum
}

// LocalReps is the refinement step for the clustering assign (an Assign
// result): the local representative and the size of every cluster, nil and
// 0 for an empty one. On a fast engine a cluster whose membership is
// unchanged since its representative was last computed gets that very object
// back (Counters.RepsReused). The others are computed in one pass (fork).
func (r *Rounds) LocalReps(assign []int) (reps []*txn.Transaction, sizes []int) {
	members := make([][]*txn.Transaction, r.k)
	r.fps = slices.Grow(r.fps[:0], r.k)[:r.k]
	for j := range r.fps {
		r.fps[j] = fnv.Offset
	}
	for i, a := range assign {
		if a >= 0 {
			members[a] = append(members[a], r.s[i])
			r.fps[a] = fnv.Mix(r.fps[a], uint64(i))
		}
	}
	reps, sizes = make([]*txn.Transaction, r.k), make([]int, r.k)
	var todo []int // the clusters to compute, ascending
	for j, mem := range members {
		sizes[j] = len(mem)
		if len(mem) == 0 {
			continue
		}
		if r.local != nil && r.local[j].size == len(mem) && r.local[j].fp == r.fps[j] {
			r.cfg.Ctx.Counters.RepsReused.Add(1)
			reps[j] = r.local[j].rep
			continue
		}
		todo = append(todo, j)
	}
	computed := r.fork(len(todo), func(i int) *txn.Transaction {
		return ComputeLocalRepresentative(r.cfg, members[todo[i]])
	})
	for i, j := range todo {
		reps[j] = computed[i]
		if r.local != nil {
			r.local[j].fp, r.local[j].size, r.local[j].rep = r.fps[j], len(members[j]), reps[j]
		}
	}
	return reps, sizes
}

// GlobalReps merges each input, the weighted local representatives of one
// cluster, into that cluster's global representative
// (ComputeGlobalRepresentative) in one pass (fork): nil for an input with no
// non-empty representative.
func (r *Rounds) GlobalReps(inputs [][]WeightedRep) []*txn.Transaction {
	return r.fork(len(inputs), func(i int) *txn.Transaction {
		return ComputeGlobalRepresentative(r.cfg, inputs[i])
	})
}

// fork runs a pass of n work items, one cluster each, drawn one at a time
// under the Workers bound (inline and in index order for one worker), and
// returns rep(i) for every i. The items intern straight into the run's
// table, so the ids a pass hands out follow the schedule; its choices do
// not: a representative's members hold corpus items, its objective is a
// ratio of counts, a ranking adds IC's content up with the job's own items
// ordered by their raw constituents (view.collect), rank ties travel in one
// batch, and a conflated item is found or made by its content, its raw
// constituents summed in raw-id order (TestRepresentativeForkScheduleOrders).
func (r *Rounds) fork(n int, rep func(i int) *txn.Transaction) []*txn.Transaction {
	out := make([]*txn.Transaction, n)
	item := func(_, i int) { out[i] = rep(i) }
	if r.order != nil {
		for _, i := range r.order(n) {
			item(0, i)
		}
	} else {
		_ = parallel.ForCtxWorkers(nil, r.cfg.Workers, 1, n, item) // a nil ctx never cancels
	}
	return out
}
