package cluster

import (
	"context"
	"math"
	"math/rand"
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
	// IndexReps builds a sim.RepIndex over the representatives each
	// iteration and relocates through its candidate lists instead of the
	// flat k-scan. Assignments and representatives are byte-identical
	// either way (the index's bounds are exact); the index only changes how
	// many representatives each document touches.
	IndexReps bool
	// DeltaRounds carries a DeltaState across iterations: unchanged cluster
	// memberships reuse their memoized representatives and unchanged
	// representatives skip re-evaluation in relocation (see delta.go).
	// Output is byte-identical either way.
	DeltaRounds bool
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

// Relocate performs the transaction-relocation step of Fig. 5 for a fixed
// set of representatives: every transaction with zero similarity to all
// representatives joins the trash cluster; the others join the argmax
// cluster (ties to the lowest index). nil reps never win.
func Relocate(cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction) []int {
	return RelocateWorkers(cx, s, reps, 1)
}

// RelocateWorkers is Relocate spread over a worker pool. Transactions are
// independent under a fixed representative set, so each worker computes the
// argmax for the indices it draws and writes into the pre-indexed slot of
// the assignment slice; tie-breaking (lowest cluster index) happens inside
// the per-transaction scan, so the result is byte-identical to the serial
// Relocate for any worker count.
func RelocateWorkers(cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int) []int {
	assign, _ := RelocateCtx(nil, cx, s, reps, workers)
	return assign
}

// RelocateCtx is RelocateWorkers with cooperative cancellation: workers stop
// drawing transactions once ctx is done and the call returns ctx's error
// with a partial (unusable) assignment. A nil ctx never cancels.
//
// Each worker borrows one pooled similarity Scratch (reused across every
// pair it evaluates, so the scan allocates nothing per pair) and threads its
// running argmax through sim.TransactionsAtLeast: once a representative
// has scored `best`, later representatives are abandoned as soon as the
// kernel's exact upper bound proves they cannot strictly beat it. The
// bound is exact and ties still resolve to the lowest representative
// index, so assignments stay byte-identical to an unpruned scan for any
// worker count (pinned by TestRelocatePruningEquivalence).
func RelocateCtx(ctx context.Context, cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int) ([]int, error) {
	return RelocateCtxIndexed(ctx, cx, s, reps, workers, nil)
}

// RelocateCtxIndexed is RelocateCtx driven through a representative index:
// each worker queries ix for the candidate representatives of its
// transaction (sorted by exact upper bound) and runs the branch-and-bound
// argmax over those, stopping as soon as the bounds prove no unseen
// representative can win. A nil or disabled index falls back to the flat
// scan. ix must have been built over exactly this reps slice under cx's
// parameters; assignments are byte-identical with the index on or off.
func RelocateCtxIndexed(ctx context.Context, cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int, ix *sim.RepIndex) ([]int, error) {
	assign := make([]int, len(s))
	ws := sim.BorrowScratches(parallel.WorkerCount(workers, len(s)))
	defer ws.Release()
	err := parallel.ForCtxWorkers(ctx, workers, len(s), func(w, i int) {
		assign[i], _ = RelocateOneIndexed(cx, s[i], reps, ix, ws.Worker(w))
	})
	if err != nil {
		return nil, err
	}
	return assign, nil
}

// RelocateOne relocates a single transaction against a fixed representative
// set: it returns the argmax cluster (ties to the lowest index, nil and
// empty representatives never win, TrashCluster when every similarity is
// zero) together with the winning similarity. This is the per-transaction
// scan RelocateCtx runs — exposed as the single-document entry point of the
// incremental serving layer, so online assignments match what a batch
// relocation would produce for the same representatives by construction.
// The scan threads its running best through the branch-and-bound kernel;
// sc may be nil (the kernel then borrows a pooled scratch per evaluation).
func RelocateOne(cx *sim.Context, tr *txn.Transaction, reps []*txn.Transaction, sc *sim.Scratch) (int, float64) {
	best, bestJ := 0.0, TrashCluster
	for j, rep := range reps {
		if rep == nil || rep.Len() == 0 {
			continue
		}
		v := cx.TransactionsAtLeast(tr, rep, best, sc)
		if v > best {
			best, bestJ = v, j
		}
	}
	return bestJ, best
}

// RelocateOneIndexed is RelocateOne through a representative index: only
// ix's candidates for tr are evaluated, in decreasing upper-bound order,
// and the scan stops once the remaining bounds prove no unseen candidate
// can strictly beat the running best — or tie it at a lower cluster index.
// The result is byte-identical to RelocateOne for the same reps:
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
// the two sum to ix.Active() per call. A nil or disabled index falls back
// to the flat scan (no counters move). The index query runs on sc's own
// query state (sim.Scratch.Query); sc may be nil (allocates per call) — pass
// a per-goroutine Scratch on hot paths.
func RelocateOneIndexed(cx *sim.Context, tr *txn.Transaction, reps []*txn.Transaction, ix *sim.RepIndex, sc *sim.Scratch) (int, float64) {
	if ix == nil || !ix.Enabled() {
		return RelocateOne(cx, tr, reps, sc)
	}
	if sc == nil {
		sc = sim.NewScratch()
	}
	rq := sc.Query()
	n := ix.Candidates(tr, rq)
	best, bestJ := 0.0, TrashCluster
	evaluated := 0
	for c := 0; c < n; c++ {
		j, ub := rq.Candidate(c)
		if ub < best || (ub == best && j > bestJ) {
			break
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
	return bestJ, best
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
	repCfg := RepConfig{Ctx: cx, Rule: cfg.Rule, Workers: cfg.Workers}

	reps := make([]*txn.Transaction, k)
	for i, tr := range SelectInitial(s, k, rng) {
		reps[i] = tr
	}
	cl := &Clustering{Assign: make([]int, len(s)), Reps: reps}
	for i := range cl.Assign {
		cl.Assign[i] = TrashCluster
	}
	var ix *sim.RepIndex
	if cfg.IndexReps {
		ix = sim.NewRepIndex()
	}
	var ds *DeltaState
	if cfg.DeltaRounds {
		ds = NewDeltaState(k)
	}
	for iter := 0; iter < maxIter; iter++ {
		cl.Iterations = iter + 1
		if ix != nil {
			ix.Build(cx, reps)
		}
		var assign []int
		if ds != nil {
			assign, _ = ds.Relocate(nil, cx, s, reps, cfg.Workers, ix)
		} else {
			assign, _ = RelocateCtxIndexed(nil, cx, s, reps, cfg.Workers, ix)
		}
		newReps := make([]*txn.Transaction, k)
		members := make([][]*txn.Transaction, k)
		for i, a := range assign {
			if a >= 0 {
				members[a] = append(members[a], s[i])
			}
		}
		var memberFps []uint64
		if ds != nil {
			memberFps = ds.MemberFingerprints(assign)
		}
		// The cluster loop stays ordered: representative generation interns
		// synthetic items, and interning order must not depend on the
		// schedule (item ids are assigned sequentially). The worker pool
		// parallelizes *inside* each representative computation — ranking
		// and refinement objectives are where the similarity time goes.
		for j := 0; j < k; j++ {
			if len(members[j]) == 0 {
				newReps[j] = reps[j] // keep the old representative alive
				continue
			}
			if ds != nil {
				newReps[j] = ds.LocalRep(repCfg, j, memberFps[j], members[j])
				continue
			}
			newReps[j] = ComputeLocalRepresentative(repCfg, members[j])
		}
		stable := assignEqual(assign, cl.Assign) && repsEqual(newReps, reps)
		cl.Assign = assign
		reps = newReps
		cl.Reps = reps
		if stable {
			break
		}
	}
	cl.Sizes = make([]int, k)
	for _, a := range cl.Assign {
		if a >= 0 {
			cl.Sizes[a]++
		}
	}
	return cl
}

func assignEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func repsEqual(a, b []*txn.Transaction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch {
		case a[i] == nil && b[i] == nil:
		case a[i] == nil || b[i] == nil:
			return false
		case !a[i].Equal(b[i]):
			return false
		}
	}
	return true
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
