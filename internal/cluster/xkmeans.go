package cluster

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"

	"xmlclust/internal/parallel"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// TrashCluster is the assignment value for the (k+1)-th cluster collecting
// transactions with zero similarity to every representative (Sect. 4.2).
const TrashCluster = -1

// Config parameterizes the centralized XK-means variant of [33,32]: the
// K-means-like transactional clustering that CXK-means runs per peer and
// that constitutes the m=1 baseline.
type Config struct {
	K int
	// MaxIter bounds the outer relocation/representative loop (the paper
	// observes convergence in fewer than 10 iterations).
	MaxIter int
	// Seed drives the deterministic initial representative selection.
	Seed int64
	// Rule selects the GenerateTreeTuple return reading.
	Rule ReturnRule
	// Workers bounds the goroutines used by the similarity-heavy loops
	// (relocation, item ranking, refinement objectives). 0 or negative
	// means one worker per CPU; 1 forces the serial path. Any value
	// produces output byte-identical to Workers: 1 for a fixed Seed.
	Workers int
	// Tiers selects the speed tiers of the round engine (see Rounds);
	// assignments and representatives are byte-identical for every value.
	Tiers Tiers
}

// DefaultMaxIter is the safety bound on clustering iterations.
const DefaultMaxIter = 20

// Clustering is the result of a (local or centralized) clustering run.
type Clustering struct {
	// Assign maps transaction index → cluster in [0,K), or TrashCluster.
	Assign []int
	// Reps holds the K cluster representatives (nil for empty clusters).
	Reps []*txn.Transaction
	// Sizes holds |C_j| per cluster.
	Sizes []int
	// Iterations is the number of outer iterations executed.
	Iterations int
}

// Members collects the transactions assigned to cluster j.
func (cl *Clustering) Members(s []*txn.Transaction, j int) []*txn.Transaction {
	var out []*txn.Transaction
	for i, a := range cl.Assign {
		if a == j {
			out = append(out, s[i])
		}
	}
	return out
}

// SelectInitial picks up to q transactions from s originating in distinct
// source documents ("coming from distinct original trees", Fig. 5), using
// the seeded rng for tie-breaking. The selection is deterministic for a
// fixed seed.
func SelectInitial(s []*txn.Transaction, q int, rng *rand.Rand) []*txn.Transaction {
	if q <= 0 || len(s) == 0 {
		return nil
	}
	perm := rng.Perm(len(s))
	seenDoc := map[int]struct{}{}
	var out []*txn.Transaction
	for _, i := range perm {
		tr := s[i]
		if tr.Len() == 0 {
			continue
		}
		if _, dup := seenDoc[tr.Doc]; dup {
			continue
		}
		seenDoc[tr.Doc] = struct{}{}
		out = append(out, tr)
		if len(out) == q {
			return out
		}
	}
	// Fewer distinct documents than q: fill with remaining transactions.
	for _, i := range perm {
		if len(out) == q {
			break
		}
		tr := s[i]
		if tr.Len() == 0 {
			continue
		}
		dup := false
		for _, o := range out {
			if o == tr {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, tr)
		}
	}
	return out
}

// RelocateCtxIndexed performs the transaction-relocation step of Fig. 5 for
// a fixed set of representatives: every transaction with zero similarity to
// all representatives joins the trash cluster; the others join the argmax
// cluster (ties to the lowest index). nil reps never win.
//
// Transactions are independent under a fixed representative set, so each
// worker runs RelocateOneIndexed for the indices it draws, on one pooled
// similarity Scratch, and writes into the pre-indexed slot of the
// assignment: the result is byte-identical for any worker count. Workers
// stop drawing transactions once ctx is done and the call returns ctx's
// error; a nil ctx never cancels. ix must have been built over exactly this
// reps slice under cx's parameters; a nil or disabled index is the flat
// scan, with byte-identical assignments either way.
func RelocateCtxIndexed(ctx context.Context, cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int, ix *sim.RepIndex) ([]int, error) {
	assign := make([]int, len(s))
	if err := RelocateScores(ctx, cx, s, reps, workers, ix, assign, nil); err != nil {
		return nil, err
	}
	return assign, nil
}

// RelocateScores is RelocateCtxIndexed writing into caller-owned slices:
// assign[i] receives transaction i's cluster and, when scores is non-nil,
// scores[i] the winning similarity (0 for trash). On error both are
// partially written.
func RelocateScores(ctx context.Context, cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int, ix *sim.RepIndex, assign []int, scores []float64) error {
	ws := sim.BorrowScratches(parallel.WorkerCount(workers, len(s)))
	defer ws.Release()
	return parallel.ForCtxWorkers(ctx, workers, len(s), func(w, i int) {
		j, v := RelocateOneIndexed(cx, s[i], reps, ix, ws.Worker(w))
		assign[i] = j
		if scores != nil {
			scores[i] = v
		}
	})
}

// RelocateOneIndexed relocates a single transaction against a fixed
// representative set: it returns the argmax cluster (ties to the lowest
// index, nil and empty representatives never win, TrashCluster when every
// similarity is zero) together with the winning similarity. It is the scan
// every batch relocation runs per transaction — and the single-document
// entry point of the serving layer, so online assignments match what a
// batch relocation would produce for the same representatives by
// construction.
//
// A nil or disabled index scans every representative in index order,
// threading the running best through the branch-and-bound kernel (no index
// counters move). Through an index only ix's candidates for tr are
// evaluated, in decreasing upper-bound order, and the scan stops once the
// remaining bounds prove no unseen candidate can strictly beat the running
// best — or tie it at a lower cluster index. The result is byte-identical:
//
//   - every representative with nonzero similarity to tr is a candidate
//     (sim.RepIndex's soundness guarantee), and a zero-similarity
//     representative can never win the flat scan either (best starts at 0
//     and only strict improvements move it);
//   - the kernel threshold is nudged one ulp below the running best, so a
//     candidate that exactly ties is always evaluated to completion and can
//     claim the tie when its index is lower — the flat scan's lowest-index
//     rule, reached from a different evaluation order;
//   - the early exit only fires when a candidate's bound is strictly below
//     best, or equal to it at a higher index: the (UB desc, index asc)
//     candidate order makes every remaining candidate lose by the same
//     argument.
//
// Work accounting: evaluated candidates are added to
// Counters.IndexCandidates, and the representatives never touched
// (non-candidates plus bound-pruned candidates) to Counters.IndexSkipped;
// the two sum to ix.Active() per call. The index query runs on sc's own
// query state (sim.Scratch.Query); sc may be nil (allocates per call) — pass
// a per-goroutine Scratch on hot paths.
func RelocateOneIndexed(cx *sim.Context, tr *txn.Transaction, reps []*txn.Transaction, ix *sim.RepIndex, sc *sim.Scratch) (int, float64) {
	j, v, _ := relocateScan(cx, tr, reps, ix, sc, TrashCluster, 0, nil)
	return j, v
}

// relocateScan is the one candidate loop behind every relocation. With a nil
// changed mask it is RelocateOneIndexed. With a mask, (bestJ, best) is the
// document's anchor — its exact lowest-index argmax over the previous
// representative set — and changed flags the representatives that differ
// from that set: if reps[bestJ] is unchanged (or the anchor is the trash
// cluster at 0), no unchanged representative can beat or lower-index-tie the
// anchor, so only the changed ones are folded over it, with the same
// threshold and tie discipline; if reps[bestJ] itself changed the anchor is
// void and the scan starts over. skipped reports a document decided from
// its anchor without a single kernel evaluation.
func relocateScan(cx *sim.Context, tr *txn.Transaction, reps []*txn.Transaction, ix *sim.RepIndex, sc *sim.Scratch, bestJ int, best float64, changed []bool) (_ int, _ float64, skipped bool) {
	if changed != nil && bestJ != TrashCluster && changed[bestJ] {
		bestJ, best, changed = TrashCluster, 0, nil
	}
	indexed := ix != nil && ix.Enabled()
	n := len(reps)
	var rq *sim.RepQuery
	if indexed {
		if sc == nil {
			sc = sim.NewScratch()
		}
		rq = sc.Query()
		n = ix.Candidates(tr, rq)
	}
	evaluated := 0
	for c := 0; c < n; c++ {
		j := c
		if indexed {
			var ub float64
			j, ub = rq.Candidate(c)
			if ub < best || (ub == best && j > bestJ) {
				break
			}
		} else if reps[j] == nil || reps[j].Len() == 0 {
			continue
		}
		if changed != nil && !changed[j] {
			continue // its score already lost to the anchor
		}
		// A tie only matters where it can claim a lower index: in index order
		// anywhere, in the flat scan only below an anchor.
		threshold := best
		if indexed || j < bestJ {
			threshold = math.Nextafter(best, math.Inf(-1))
		}
		v := cx.TransactionsAtLeast(tr, reps[j], threshold, sc)
		evaluated++
		if v > best {
			best, bestJ = v, j
		} else if v == best && j < bestJ {
			bestJ = j
		}
	}
	if indexed {
		cx.Counters.IndexCandidates.Add(int64(evaluated))
		cx.Counters.IndexSkipped.Add(int64(ix.Active() - evaluated))
	}
	return bestJ, best, changed != nil && evaluated == 0
}

// XKMeans runs the centralized transactional clustering: select k initial
// representatives from distinct documents, then alternate relocation and
// representative recomputation until representatives are stable.
func XKMeans(cx *sim.Context, s []*txn.Transaction, cfg Config) *Clustering {
	k := cfg.K
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rounds := NewRounds(RepConfig{Ctx: cx, Rule: cfg.Rule, Workers: cfg.Workers}, s, cfg.Tiers)

	reps := make([]*txn.Transaction, k)
	copy(reps, SelectInitial(s, k, rng))
	cl := &Clustering{Assign: make([]int, len(s)), Reps: reps}
	for i := range cl.Assign {
		cl.Assign[i] = TrashCluster
	}
	for iter := 0; iter < maxIter; iter++ {
		cl.Iterations = iter + 1
		assign, _ := rounds.Assign(nil, reps) // a nil ctx never cancels
		newReps, sizes := rounds.LocalReps(assign)
		for j, size := range sizes {
			if size == 0 {
				newReps[j] = reps[j] // keep the old representative alive
			}
		}
		stable := slices.Equal(assign, cl.Assign) && RepsEqual(newReps, reps)
		cl.Assign, cl.Reps, cl.Sizes = assign, newReps, sizes
		reps = newReps
		if stable {
			break
		}
	}
	return cl
}

// RepsEqual reports whether two representative slices hold the same item
// sequences cluster by cluster (nil only equals nil).
func RepsEqual(a, b []*txn.Transaction) bool {
	return slices.EqualFunc(a, b, repEqual)
}

// repEqual reports whether two representatives are byte-identical. The
// pointer check catches the common cases for free: memoized representatives
// and kept-alive empty-cluster reps are the same object across rounds.
func repEqual(a, b *txn.Transaction) bool {
	return a == b || (a != nil && b != nil && a.Equal(b))
}

// SSE computes the K-means-style objective adapted to the transactional
// similarity: Σ over non-trash transactions of (1 − simγJ(tr, rep_assigned)).
// Used by the PK-means baseline's global stopping rule.
func SSE(cx *sim.Context, s []*txn.Transaction, assign []int, reps []*txn.Transaction) float64 {
	return SSEWorkers(cx, s, assign, reps, 1)
}

// SSEWorkers is SSE spread over a worker pool, each worker reusing one
// pooled similarity Scratch so the objective allocates nothing per pair.
// Terms are reduced in index order (parallel.SumWorkers), so the float
// result is byte-identical to the serial SSE for any worker count.
func SSEWorkers(cx *sim.Context, s []*txn.Transaction, assign []int, reps []*txn.Transaction, workers int) float64 {
	ws := sim.BorrowScratches(parallel.WorkerCount(workers, len(assign)))
	defer ws.Release()
	return parallel.SumWorkers(workers, len(assign), func(w, i int) float64 {
		a := assign[i]
		if a < 0 || a >= len(reps) || reps[a] == nil {
			return 1 // trash contributes maximal error
		}
		return 1 - cx.Transactions(s[i], reps[a], ws.Worker(w))
	})
}

// SortedClusterSizes returns the cluster sizes in descending order (used by
// diagnostics and the h-parameter estimate of Sect. 4.3.4).
func SortedClusterSizes(cl *Clustering) []int {
	out := append([]int(nil), cl.Sizes...)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
