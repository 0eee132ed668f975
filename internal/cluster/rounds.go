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
// argument: recomputing for the same members under the same context would
// re-intern identical content-addressed synthetic items (no table change) and
// re-derive the identical item sequence, so downstream interning order — and
// every later representative — is unaffected by the skip. Being a pure
// function of the membership, an entry cannot go stale, whatever the run does
// between two rounds (rollback, restore, epoch change).
//
// A reference engine is the specification the fast one is checked against:
// the dense Eq. 4 kernel per (document, representative) pair in relocation
// and in the objective, every representative recomputed.
//
// The contract is byte-identity: for any call sequence, a fast engine's
// results equal a reference engine's exactly, including the lowest-index tie
// rule. It holds while the similarity context and the transaction slice stay
// fixed. A Rounds serves one sequential run and is not safe for concurrent
// use. It forks two passes, each under RepConfig.Workers: relocation inside
// Assign, one transaction per slot, and refinement inside LocalReps and
// GlobalReps, one cluster per slot (fork). Its synthetic items go to a table
// of its own (Items): the corpus is left as it was found.
type Rounds struct {
	cfg RepConfig
	s   []*txn.Transaction
	k   int // len(reps) of the latest Assign

	ix     *sim.RepIndex // nil in a reference engine
	local  repMemo       // nil in a reference engine
	fps    []uint64
	scores []float64 // winning similarity per transaction, latest pass

	// The refinement passes' state (fork), kept from pass to pass: the stage,
	// the context over it, a log per work item, the staged → adopted ids.
	stage *txn.ItemTable
	scx   *sim.Context
	logs  [][]txn.ItemID
	remap []txn.ItemID
	order func(n int) []int // if set, runs a pass's n items serially in this order (tests)
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
	stage := cfg.Ctx.Items.Stage()
	r := &Rounds{cfg: cfg, s: s, stage: stage, scx: cfg.Ctx.WithItems(stage)}
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
	computed := r.fork(len(todo), func(cfg RepConfig, i int) *txn.Transaction {
		return ComputeLocalRepresentative(cfg, members[todo[i]])
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
	return r.fork(len(inputs), func(cfg RepConfig, i int) *txn.Transaction {
		return ComputeGlobalRepresentative(cfg, inputs[i])
	})
}

// fork runs a pass of n work items, one cluster each, drawn one at a time
// under the Workers bound (inline and in index order for one worker), and
// returns rep(cfg, i) for every i. The items intern synthetic items into a
// stage over the run's table, each logging the staged ids it resolved to,
// and commit replays the logs in index order. So the ids are the serial
// loop's under any schedule: a representative's choices never depend on a
// synthetic id (its members hold committed items, its objective is a ratio
// of counts, rank ties travel in one batch, and a conflated item is found or
// made by its content), so each item meets the same keys in the same order
// whichever ran first, and the serial loop creates exactly the keys no
// earlier cluster met, in the order it met them.
func (r *Rounds) fork(n int, rep func(cfg RepConfig, i int) *txn.Transaction) []*txn.Transaction {
	out := make([]*txn.Transaction, n)
	if n == 0 {
		return out
	}
	r.stage.Restage()
	for len(r.logs) < n {
		r.logs = append(r.logs, nil)
	}
	logs := r.logs[:n]
	item := func(_, i int) {
		cfg := r.cfg
		cfg.Ctx, logs[i] = r.scx, logs[i][:0]
		cfg.log = &logs[i]
		out[i] = rep(cfg, i)
	}
	if r.order != nil {
		for _, i := range r.order(n) {
			item(0, i)
		}
	} else {
		_ = parallel.ForCtxWorkers(nil, r.cfg.Workers, 1, n, item) // a nil ctx never cancels
	}
	r.commit(logs, out)
	return out
}

// commit adopts a pass's staged items into the run's table — the logs in
// index order, each log in order, every staged id once — and rewrites the
// staged ids of reps to the adopted ones, re-sorting each representative
// that held one.
func (r *Rounds) commit(logs [][]txn.ItemID, reps []*txn.Transaction) {
	base := r.stage.Base()
	staged := r.stage.Len() - int(base)
	remap := slices.Grow(r.remap[:0], staged)[:staged]
	for i := range remap {
		remap[i] = -1
	}
	tab := r.cfg.Ctx.Items
	for _, log := range logs {
		for _, id := range log {
			if remap[id-base] < 0 {
				remap[id-base] = tab.Adopt(r.stage.Get(id))
			}
		}
	}
	for _, rep := range reps {
		// Staged ids sort after the run's: they are the tail.
		if rep == nil || rep.Len() == 0 || rep.Items[rep.Len()-1] < base {
			continue
		}
		for k, id := range rep.Items {
			if id >= base {
				rep.Items[k] = remap[id-base]
			}
		}
		slices.Sort(rep.Items)
	}
	r.remap = remap
}
