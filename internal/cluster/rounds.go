package cluster

import (
	"context"
	"slices"

	"xmlclust/internal/fnv"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// Rounds is the relocate→refine round engine of Fig. 5 shared by the
// CXK-means session and the PK-means peer: one run's transaction set and
// representative configuration, in one of two modes fixed at construction.
//
// A fast engine scores documents through posting lists over the
// representatives (sim.RepIndex) — in relocation and in the refinement
// objective — and carries three caches from round to round, so a round that
// changes nothing costs nothing:
//
//  1. Local-representative memo: per cluster, the fingerprint of its member
//     transaction indices and the representative computed for exactly that
//     membership. Reuse is exact by a pure-replay argument: recomputing for
//     the same members under the same context would re-intern identical
//     content-addressed synthetic items (no table change) and re-derive the
//     identical item sequence, so downstream interning order — and every
//     later representative — is unaffected by the skip.
//
//  2. The last relocation pass: the assignment and the representative set
//     it was computed against. An Assign against an equal set returns that
//     assignment without scoring a document (Counters.DocsSkipped) — the
//     steady state of the within-round fixpoint loop and of converged
//     sessions.
//
//  3. Global-representative memo: per cluster, a fingerprint of the
//     (weight, representative items) inputs of ComputeGlobalRepresentative.
//
// A reference engine is the specification the fast one is checked against:
// the dense Eq. 4 kernel per (document, representative) pair in relocation
// and in the objective, every pass scanned in full, every representative
// recomputed.
//
// The contract is byte-identity: for any call sequence, a fast engine's
// results equal a reference engine's exactly, including the lowest-index tie
// rule. It holds while the similarity context and the transaction slice stay
// fixed and representatives are immutable once handed in; call Invalidate
// when the run's continuity breaks (a session rollback, restore or epoch
// change). A Rounds serves one sequential run and is not safe for
// concurrent use — worker parallelism happens inside its methods.
type Rounds struct {
	cfg  RepConfig
	s    []*txn.Transaction
	fast bool
	k    int // len(reps) of the latest Assign

	ix     *sim.RepIndex      // nil in a reference engine
	ixReps []*txn.Transaction // the set ix was built over

	local, global repMemo // nil in a reference engine
	fps           []uint64
	prevReps      []*txn.Transaction // the set prevAssign holds for; nil = none
	prevAssign    []int
	scores        []float64 // winning similarity per transaction, latest pass
}

// repMemo is a per-cluster memo of representatives keyed by an input
// fingerprint.
type repMemo []struct {
	set bool
	fp  uint64
	rep *txn.Transaction
}

// NewRounds returns the round engine for one run over the transactions s:
// cfg carries the similarity context, the return rule and the worker bound
// of every pass, fast selects the fast engine over the reference one. The
// cluster count is the length of the representative slice handed to Assign.
func NewRounds(cfg RepConfig, s []*txn.Transaction, fast bool) *Rounds {
	cfg.dense = !fast
	r := &Rounds{cfg: cfg, s: s, fast: fast}
	if fast {
		r.ix = sim.NewRepIndex()
	}
	return r
}

// Invalidate forgets everything carried over from earlier calls: the next
// Assign rebuilds the index and scans in full, the next representatives are
// recomputed. No answer changes, only its cost.
func (r *Rounds) Invalidate() {
	r.ixReps = r.ixReps[:0]
	r.prevReps = nil
	clear(r.local)
	clear(r.global)
}

// Assign is the relocation step of Fig. 5 against reps: every transaction
// joins its argmax cluster (ties to the lowest index, nil and empty
// representatives never win) or TrashCluster when every similarity is zero.
// The index is rebuilt only when reps differs by pointer from the set it was
// last built over (or a weighting pass rewrote one of their vectors), so the
// passes of a fixpoint loop over fixed representatives share one build — and
// on a fast engine the second pass is the first one's result. The returned
// slice is the engine's record of the pass: it is never written again, and
// callers must not modify it. A done ctx aborts the pass with ctx's error
// (nil never cancels); the engine stays usable, the next Assign scans in
// full.
func (r *Rounds) Assign(ctx context.Context, reps []*txn.Transaction) ([]int, error) {
	cx := r.cfg.Ctx
	if len(reps) != r.k {
		// A different cluster count voids every per-cluster cache.
		r.k = len(reps)
		r.prevReps = nil
		if r.fast {
			r.local, r.global = make(repMemo, r.k), make(repMemo, r.k)
		}
	}
	if r.prevReps != nil && RepsEqual(r.prevReps, reps) {
		cx.Counters.DocsSkipped.Add(int64(len(r.s)))
		return r.prevAssign, nil
	}
	if r.ix != nil && !(slices.Equal(r.ixReps, reps) && r.ix.Enabled()) {
		// Built over a private copy: callers replace entries of reps in
		// place. A disabled index rebuilds in O(1), a stale one afresh.
		r.ixReps = append(r.ixReps[:0], reps...)
		r.ix.Build(cx, r.ixReps)
	}
	assign := make([]int, len(r.s))
	r.scores = slices.Grow(r.scores[:0], len(r.s))[:len(r.s)]
	if err := RelocateScores(ctx, cx, r.s, reps, r.cfg.Workers, r.ix, assign, r.scores); err != nil {
		r.prevReps = nil
		return nil, err
	}
	if r.fast {
		r.prevReps, r.prevAssign = append(r.prevReps[:0], reps...), assign
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
// 0 for an empty one. A cluster whose membership is unchanged since its
// representative was last computed gets that very object back
// (Counters.RepsReused).
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
	// The cluster loop stays ordered: representative generation interns
	// synthetic items, and interning order must not depend on the schedule
	// (item ids are assigned sequentially). The worker pool parallelizes
	// inside each representative computation.
	for j, mem := range members {
		sizes[j] = len(mem)
		if len(mem) > 0 {
			reps[j] = r.memoized(r.local, j, r.fps[j], func() *txn.Transaction {
				return ComputeLocalRepresentative(r.cfg, mem)
			})
		}
	}
	return reps, sizes
}

// GlobalRep merges the weighted local representatives of cluster j into its
// global representative (ComputeGlobalRepresentative); the previous merge is
// returned when every weight and item sequence is unchanged
// (Counters.RepsReused).
func (r *Rounds) GlobalRep(j int, weighted []WeightedRep) *txn.Transaction {
	return r.memoized(r.global, j, weightedRepsFingerprint(weighted), func() *txn.Transaction {
		return ComputeGlobalRepresentative(r.cfg, weighted)
	})
}

// memoized is the one memo-or-compute switch: entry j of m is served while
// its input fingerprint holds, and recomputed otherwise. In a reference
// engine m is nil and every call computes.
func (r *Rounds) memoized(m repMemo, j int, fp uint64, compute func() *txn.Transaction) *txn.Transaction {
	if m == nil {
		return compute()
	}
	if e := m[j]; e.set && e.fp == fp {
		r.cfg.Ctx.Counters.RepsReused.Add(1)
		return e.rep
	}
	rep := compute()
	m[j].set, m[j].fp, m[j].rep = true, fp, rep
	return rep
}

// weightedRepsFingerprint hashes the inputs of ComputeGlobalRepresentative:
// every contributing (weight, representative item sequence) in slice order,
// with separators so (nil, rep) and (rep, nil) hash differently.
func weightedRepsFingerprint(reps []WeightedRep) uint64 {
	h := fnv.Offset
	for _, wr := range reps {
		h = fnv.Mix(h, ^uint64(0)) // separator
		h = fnv.Mix(h, uint64(wr.Weight))
		if wr.Rep == nil {
			continue
		}
		for _, id := range wr.Rep.Items {
			h = fnv.Mix(h, uint64(id))
		}
	}
	return h
}
