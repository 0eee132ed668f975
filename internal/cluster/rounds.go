package cluster

import (
	"context"
	"slices"

	"xmlclust/internal/fnv"
	"xmlclust/internal/parallel"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// Tiers selects the exact speed tiers a Rounds engine stacks on the flat
// relocation scan. Every combination produces byte-identical assignments
// and representatives; the tiers only change how much work a round costs.
type Tiers struct {
	// Index relocates through a sim.RepIndex over the representatives:
	// documents evaluate only the candidates the index cannot prove losers.
	// The index disables itself at γ ≤ 0 or under semantic tag matchers.
	Index bool
	// Delta carries memoized representatives and per-document relocation
	// anchors from round to round, so a round that changes little costs
	// little.
	Delta bool
}

// Rounds is the relocate→refine round engine of Fig. 5 shared by XKMeans,
// the CXK-means session and the PK-means peer: one run's transaction set
// and representative configuration, plus the state the tiers carry between
// rounds — the representative index, and under Tiers.Delta three caches:
//
//  1. Local-representative memo: per cluster, the fingerprint of its member
//     transaction indices and the representative computed for exactly that
//     membership. Reuse is exact by a pure-replay argument: recomputing for
//     the same members under the same context would re-intern identical
//     content-addressed synthetic items (no table change) and re-derive the
//     identical item sequence, so downstream interning order — and every
//     later representative — is unaffected by the skip.
//
//  2. Relocation anchors: per document, the (cluster, score) of the previous
//     Assign plus the representative set they were computed against. A
//     cached score is exact (the winner is always evaluated above the
//     branch-and-bound threshold) and remains the lowest-index argmax over
//     every UNCHANGED representative: none of them could beat it last time
//     and none of their scores moved. So only CHANGED representatives are
//     folded over the anchor, and when the index's upper bounds prove none
//     of them can beat it the document costs zero kernel evaluations
//     (Counters.DocsSkipped). A document whose own winner changed runs the
//     full scan.
//
//  3. Global-representative memo: per cluster, a fingerprint of the
//     (weight, representative items) inputs of ComputeGlobalRepresentative.
//
// The contract is byte-identity: for any call sequence, results equal the
// tier-free computation exactly, including the lowest-index tie rule. It
// holds while the similarity context and the transaction slice stay fixed
// and representatives are immutable once handed in; call Invalidate when
// the run's continuity breaks (a session rollback, restore or epoch
// change). A Rounds serves one sequential run and is not safe for
// concurrent use — worker parallelism happens inside its methods.
type Rounds struct {
	cfg   RepConfig
	s     []*txn.Transaction
	tiers Tiers
	k     int // len(reps) of the latest Assign

	ix     *sim.RepIndex      // nil without Tiers.Index
	ixReps []*txn.Transaction // the set ix was built over

	local, global repMemo
	fps           []uint64
	prevReps      []*txn.Transaction // the set the anchors hold for; nil = none
	changed       []bool
	bestJ         []int
	bestScore     []float64
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
// of every pass. The cluster count is the length of the representative
// slice handed to Assign.
func NewRounds(cfg RepConfig, s []*txn.Transaction, tiers Tiers) *Rounds {
	r := &Rounds{cfg: cfg, s: s, tiers: tiers}
	if tiers.Index {
		r.ix = sim.NewRepIndex()
	}
	if tiers.Delta {
		r.bestJ = make([]int, len(s))
		r.bestScore = make([]float64, len(s))
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
// last built over, so the passes of a fixpoint loop over fixed
// representatives share one build — and under Tiers.Delta the second pass
// resolves every document from its anchor. A done ctx aborts the pass with
// ctx's error (nil never cancels); the engine stays usable, the next Assign
// scans in full.
func (r *Rounds) Assign(ctx context.Context, reps []*txn.Transaction) ([]int, error) {
	cx := r.cfg.Ctx
	if len(reps) != r.k {
		// A different cluster count voids every per-cluster cache.
		r.k = len(reps)
		r.prevReps = nil
		if r.tiers.Delta {
			r.local, r.global = make(repMemo, r.k), make(repMemo, r.k)
			r.changed = make([]bool, r.k)
		}
	}
	if r.ix != nil && !slices.Equal(r.ixReps, reps) {
		// Built over a private copy: callers replace entries of reps in place.
		r.ixReps = append(r.ixReps[:0], reps...)
		r.ix.Build(cx, r.ixReps)
	}
	assign := make([]int, len(r.s))
	if !r.tiers.Delta {
		if err := RelocateScores(ctx, cx, r.s, reps, r.cfg.Workers, r.ix, assign, nil); err != nil {
			return nil, err
		}
		return assign, nil
	}
	if err := r.reanchor(ctx, reps); err != nil {
		r.prevReps = nil // the anchors are half old, half new
		return nil, err
	}
	copy(assign, r.bestJ)
	return assign, nil
}

// reanchor moves the per-document anchors (bestJ, bestScore) from prevReps
// to reps: a full pass when there are none, otherwise a fold of the changed
// representatives over each anchor.
func (r *Rounds) reanchor(ctx context.Context, reps []*txn.Transaction) error {
	cx, workers := r.cfg.Ctx, r.cfg.Workers
	if r.prevReps == nil {
		if err := RelocateScores(ctx, cx, r.s, reps, workers, r.ix, r.bestJ, r.bestScore); err != nil {
			return err
		}
		r.prevReps = slices.Clone(reps)
		return nil
	}
	nChanged := 0
	for j := range reps {
		r.changed[j] = !repEqual(r.prevReps[j], reps[j])
		if r.changed[j] {
			nChanged++
		}
	}
	if nChanged == 0 {
		// Every anchor is the exact argmax over an unchanged set: the steady
		// state of the within-round fixpoint loop and of converged sessions.
		cx.Counters.DocsSkipped.Add(int64(len(r.s)))
		return nil
	}
	nw := parallel.WorkerCount(workers, len(r.s))
	ws := sim.BorrowScratches(nw)
	defer ws.Release()
	skipped := make([]int64, nw)
	err := parallel.ForCtxWorkers(ctx, workers, len(r.s), func(w, i int) {
		var skip bool
		r.bestJ[i], r.bestScore[i], skip = relocateScan(cx, r.s[i], reps, r.ix, ws.Worker(w), r.bestJ[i], r.bestScore[i], r.changed)
		if skip {
			skipped[w]++
		}
	})
	if err != nil {
		return err
	}
	for _, c := range skipped {
		cx.Counters.DocsSkipped.Add(c)
	}
	copy(r.prevReps, reps)
	return nil
}

// LocalReps is the refinement step for the clustering assign (an Assign
// result): the local representative and the size of every cluster, nil and
// 0 for an empty one. Under Tiers.Delta a cluster whose membership is
// unchanged since its representative was last computed gets that very
// object back (Counters.RepsReused).
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
// global representative (ComputeGlobalRepresentative); under Tiers.Delta the
// previous merge is returned when every weight and item sequence is
// unchanged (Counters.RepsReused).
func (r *Rounds) GlobalRep(j int, weighted []WeightedRep) *txn.Transaction {
	return r.memoized(r.global, j, weightedRepsFingerprint(weighted), func() *txn.Transaction {
		return ComputeGlobalRepresentative(r.cfg, weighted)
	})
}

// memoized is the one memo-or-compute switch: entry j of m is served while
// its input fingerprint holds, and recomputed otherwise. Without Tiers.Delta
// m is nil and every call computes.
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
