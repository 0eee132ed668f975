package cluster

import (
	"context"
	"math"

	"xmlclust/internal/parallel"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// This file implements the convergence-aware delta-round engine: cross-round
// memoization that makes late clustering rounds — where almost nothing moves
// — cost almost nothing, while keeping every assignment and representative
// byte-identical to the from-scratch loop.
//
// A DeltaState carries three caches between the rounds of ONE clustering run
// (one sim.Context, one fixed transaction slice, one ReturnRule):
//
//  1. Representative memo: per cluster, the FNV fingerprint of its member
//     transaction indices and the representative computed for exactly that
//     membership. When a cluster's membership is unchanged since its
//     representative was last refined, the cached representative is returned
//     verbatim and the whole rank + generateTreeTuple objective loop is
//     skipped. Reuse is exact by a pure-replay argument: recomputing for the
//     same members under the same context would re-intern identical
//     content-addressed synthetic items (no table change) and re-derive the
//     identical item sequence, so downstream interning order — and therefore
//     every later representative — is unaffected by the skip.
//
//  2. Delta relocation: per document, the (bestJ, bestScore) pair of the
//     previous relocation pass, plus a pointer/byte snapshot of the previous
//     representatives. A cached score is exact (the winning candidate is
//     always evaluated above the branch-and-bound threshold), and it remains
//     the min-index argmax over every UNCHANGED representative: no unchanged
//     rep could beat it last round and none of their scores moved. So only
//     CHANGED representatives are folded over the cached anchor — with the
//     same math.Nextafter threshold and lowest-index tie rule as
//     RelocateOneIndexed — and when the index's upper bounds prove no changed
//     candidate can beat the anchor, the document is skipped outright with
//     zero kernel evaluations (Counters.DocsSkipped). If the cached best rep
//     itself changed, the document falls back to a full indexed scan.
//
//  3. Global-representative memo (collaborative refinement): per cluster,
//     a fingerprint over the contributing (weight, representative items)
//     inputs of ComputeGlobalRepresentative. When every peer re-sent an
//     unchanged representative with an unchanged weight, the merged global
//     representative is reused without re-ranking.
//
// Invalidation contract: a DeltaState is valid for exactly one
// (sim.Context, transaction slice, ReturnRule) triple — callers allocate one
// per run and Reset() it whenever the state it anchors to is replaced
// wholesale (session rollback/epoch change, serve refresh builds a new run
// anyway). Reset drops all three caches, so the next round pays full price
// and re-primes them.
type DeltaState struct {
	k int

	// Layer 1: per-cluster representative memo.
	memoSet []bool
	memoFp  []uint64
	memoRep []*txn.Transaction

	// Layer 3 support: per-cluster global-representative memo.
	gmemoSet []bool
	gmemoFp  []uint64
	gmemoRep []*txn.Transaction

	// Layer 2: previous representatives and per-document relocation cache.
	relocValid bool
	prevReps   []*txn.Transaction
	changed    []bool
	bestJ      []int
	bestScore  []float64

	fpScratch []uint64
}

// NewDeltaState returns a fresh delta cache for a run with k clusters.
func NewDeltaState(k int) *DeltaState {
	return &DeltaState{
		k:        k,
		memoSet:  make([]bool, k),
		memoFp:   make([]uint64, k),
		memoRep:  make([]*txn.Transaction, k),
		gmemoSet: make([]bool, k),
		gmemoFp:  make([]uint64, k),
		gmemoRep: make([]*txn.Transaction, k),
		prevReps: make([]*txn.Transaction, k),
		changed:  make([]bool, k),
	}
}

// Reset invalidates every cache: the next relocation runs the full scan and
// the next representative computations recompute from scratch. Called on
// session rollback and membership epoch changes, where the assignments and
// representatives the caches anchor to are replaced wholesale.
func (d *DeltaState) Reset() {
	for j := 0; j < d.k; j++ {
		d.memoSet[j] = false
		d.memoRep[j] = nil
		d.gmemoSet[j] = false
		d.gmemoRep[j] = nil
		d.prevReps[j] = nil
	}
	d.relocValid = false
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit value into an FNV-1a hash byte by byte.
func fnvMix(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= fnvPrime
	}
	return h
}

// MemberFingerprints hashes each cluster's membership — the ascending
// transaction indices assigned to it — in one pass over the assignment. The
// returned slice is scratch owned by d, valid until the next call.
func (d *DeltaState) MemberFingerprints(assign []int) []uint64 {
	if cap(d.fpScratch) < d.k {
		d.fpScratch = make([]uint64, d.k)
	}
	fps := d.fpScratch[:d.k]
	for j := range fps {
		fps[j] = fnvOffset
	}
	for i, a := range assign {
		if a >= 0 && a < d.k {
			fps[a] = fnvMix(fps[a], uint64(i))
		}
	}
	return fps
}

// LocalRep returns cluster j's representative for the given membership
// fingerprint: the memoized representative when the membership is unchanged
// since it was last computed (counted in Counters.RepsReused), a fresh
// ComputeLocalRepresentative otherwise. members must be exactly the
// membership fp hashes.
func (d *DeltaState) LocalRep(cfg RepConfig, j int, fp uint64, members []*txn.Transaction) *txn.Transaction {
	if d.memoSet[j] && d.memoFp[j] == fp {
		cfg.Ctx.Counters.RepsReused.Add(1)
		return d.memoRep[j]
	}
	rep := ComputeLocalRepresentative(cfg, members)
	d.memoSet[j], d.memoFp[j], d.memoRep[j] = true, fp, rep
	return rep
}

// WeightedRepsFingerprint hashes the inputs of ComputeGlobalRepresentative:
// every contributing (weight, representative item sequence) in slice order,
// with separators so (nil, rep) and (rep, nil) hash differently.
func WeightedRepsFingerprint(reps []WeightedRep) uint64 {
	h := uint64(fnvOffset)
	for _, wr := range reps {
		h = fnvMix(h, ^uint64(0)) // separator
		h = fnvMix(h, uint64(wr.Weight))
		if wr.Rep == nil {
			continue
		}
		for _, id := range wr.Rep.Items {
			h = fnvMix(h, uint64(id))
		}
	}
	return h
}

// GlobalRep returns cluster j's merged global representative for the given
// contributing inputs: memoized when every input (weights and item
// sequences) is unchanged since the last merge (Counters.RepsReused), a
// fresh ComputeGlobalRepresentative otherwise.
func (d *DeltaState) GlobalRep(cfg RepConfig, j int, reps []WeightedRep) *txn.Transaction {
	fp := WeightedRepsFingerprint(reps)
	if d.gmemoSet[j] && d.gmemoFp[j] == fp {
		cfg.Ctx.Counters.RepsReused.Add(1)
		return d.gmemoRep[j]
	}
	rep := ComputeGlobalRepresentative(cfg, reps)
	d.gmemoSet[j], d.gmemoFp[j], d.gmemoRep[j] = true, fp, rep
	return rep
}

// repUnchanged reports whether a representative is byte-identical to its
// previous-round snapshot. The pointer check catches the common cases for
// free: memoized representatives and kept-alive empty-cluster reps are the
// same object across rounds.
func repUnchanged(prev, cur *txn.Transaction) bool {
	switch {
	case prev == cur:
		return true
	case prev == nil || cur == nil:
		return false
	default:
		return prev.Equal(cur)
	}
}

// Relocate is RelocateCtxIndexed with the cross-round document cache: the
// first call (or the first after Reset) runs the full scan while priming the
// per-document (bestJ, bestScore) anchors; later calls evaluate only the
// representatives that changed since the previous call, skipping documents
// outright when the cached anchor provably still wins. Assignments are
// byte-identical to the full scan for any worker count. len(reps) must be
// d's k, and s must be the same transaction slice on every call.
func (d *DeltaState) Relocate(ctx context.Context, cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int, ix *sim.RepIndex) ([]int, error) {
	if len(reps) != d.k {
		// Defensive: a mismatched rep set invalidates every anchor.
		d.Reset()
	}
	assign := make([]int, len(s))
	if !d.relocValid || len(d.bestJ) != len(s) {
		if cap(d.bestJ) < len(s) {
			d.bestJ = make([]int, len(s))
			d.bestScore = make([]float64, len(s))
		}
		d.bestJ = d.bestJ[:len(s)]
		d.bestScore = d.bestScore[:len(s)]
		if err := d.fullPass(ctx, cx, s, reps, workers, ix, assign); err != nil {
			return nil, err
		}
		d.snapshot(reps)
		d.relocValid = true
		return assign, nil
	}

	nChanged := 0
	for j := range reps {
		c := !repUnchanged(d.prevReps[j], reps[j])
		d.changed[j] = c
		if c {
			nChanged++
		}
	}
	if nChanged == 0 {
		// Nothing to re-evaluate anywhere: every cached anchor is the exact
		// argmax over an unchanged representative set. This is the steady
		// state of the within-round fixpoint loop and of converged sessions.
		copy(assign, d.bestJ)
		cx.Counters.DocsSkipped.Add(int64(len(s)))
		return assign, nil
	}

	nw := parallel.WorkerCount(workers, len(s))
	ws := sim.BorrowScratches(nw)
	defer ws.Release()
	skipped := make([]int64, nw)
	err := parallel.ForCtxWorkers(ctx, workers, len(s), func(w, i int) {
		j, v, skip := d.relocateOneDelta(cx, s[i], reps, ix, ws.Worker(w), d.bestJ[i], d.bestScore[i])
		d.bestJ[i], d.bestScore[i] = j, v
		assign[i] = j
		if skip {
			skipped[w]++
		}
	})
	if err != nil {
		d.relocValid = false // partial cache updates are unusable
		return nil, err
	}
	var nSkip int64
	for _, c := range skipped {
		nSkip += c
	}
	cx.Counters.DocsSkipped.Add(nSkip)
	d.snapshot(reps)
	return assign, nil
}

// fullPass runs the plain indexed relocation while recording every
// document's (bestJ, bestScore) anchor.
func (d *DeltaState) fullPass(ctx context.Context, cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int, ix *sim.RepIndex, assign []int) error {
	ws := sim.BorrowScratches(parallel.WorkerCount(workers, len(s)))
	defer ws.Release()
	return parallel.ForCtxWorkers(ctx, workers, len(s), func(w, i int) {
		j, v := RelocateOneIndexed(cx, s[i], reps, ix, ws.Worker(w))
		d.bestJ[i], d.bestScore[i] = j, v
		assign[i] = j
	})
}

// snapshot records the representative set the per-document anchors were
// computed against. Representatives are immutable between rounds, so pointer
// copies suffice.
func (d *DeltaState) snapshot(reps []*txn.Transaction) {
	if len(d.prevReps) != len(reps) {
		d.prevReps = make([]*txn.Transaction, len(reps))
		d.changed = make([]bool, len(reps))
	}
	copy(d.prevReps, reps)
}

// relocateOneDelta relocates one document given its previous-round anchor
// (bestJ0, best0) and d.changed flags for the current reps. It returns the
// new (cluster, score) plus whether the document was decided without a
// single kernel evaluation (a delta skip).
//
// Exactness: best0 is the exact min-index argmax over the previous reps. If
// reps[bestJ0] is unchanged (or bestJ0 is the trash cluster, best0 = 0), no
// unchanged rep can beat or lower-index-tie the anchor — their scores did
// not move and the previous argmax already ruled them out. Folding only the
// changed reps over the anchor with RelocateOneIndexed's threshold and tie
// discipline therefore reproduces the full scan's result byte for byte. If
// reps[bestJ0] itself changed, the anchor is void and the document runs a
// full indexed scan.
func (d *DeltaState) relocateOneDelta(cx *sim.Context, tr *txn.Transaction, reps []*txn.Transaction, ix *sim.RepIndex, sc *sim.Scratch, bestJ0 int, best0 float64) (int, float64, bool) {
	if bestJ0 != TrashCluster && d.changed[bestJ0] {
		j, v := RelocateOneIndexed(cx, tr, reps, ix, sc)
		return j, v, false
	}
	best, bestJ := best0, bestJ0
	evaluated := 0
	if ix != nil && ix.Enabled() {
		rq := sc.Query()
		n := ix.Candidates(tr, rq)
		for c := 0; c < n; c++ {
			j, ub := rq.Candidate(c)
			if ub < best || (ub == best && j > bestJ) {
				break
			}
			if !d.changed[j] {
				continue // its cached score already lost to the anchor
			}
			v := cx.TransactionsAtLeast(tr, reps[j], math.Nextafter(best, math.Inf(-1)), sc)
			evaluated++
			if v > best {
				best, bestJ = v, j
			} else if v == best && j < bestJ {
				bestJ = j
			}
		}
		cx.Counters.IndexCandidates.Add(int64(evaluated))
		cx.Counters.IndexSkipped.Add(int64(ix.Active() - evaluated))
		return bestJ, best, evaluated == 0
	}
	for j, rep := range reps {
		if !d.changed[j] || rep == nil || rep.Len() == 0 {
			continue
		}
		v := cx.TransactionsAtLeast(tr, rep, math.Nextafter(best, math.Inf(-1)), sc)
		evaluated++
		if v > best {
			best, bestJ = v, j
		} else if v == best && j < bestJ {
			bestJ = j
		}
	}
	return bestJ, best, evaluated == 0
}
