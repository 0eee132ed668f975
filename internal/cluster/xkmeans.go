package cluster

import (
	"context"
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
// scan over the dense kernel, with byte-identical assignments either way.
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
// counters move). Through an index one sweep of tr's terms over the posting
// lists yields tr's exact similarity to every representative it does not
// score 0 against (sim.RepIndex), and the winner is their lowest-index
// argmax — which is what the flat scan arrives at, since its running best
// starts at 0 and only strict improvements move it.
//
// Work accounting: the representatives scored above 0 are added to
// Counters.IndexCandidates and the others, which the sweep never touched, to
// Counters.IndexSkipped; the two sum to ix.Active() per call. The query runs
// on sc's own query state (sim.Scratch.Query); sc may be nil (allocates per
// call) — pass a per-goroutine Scratch on hot paths.
func RelocateOneIndexed(cx *sim.Context, tr *txn.Transaction, reps []*txn.Transaction, ix *sim.RepIndex, sc *sim.Scratch) (int, float64) {
	if ix != nil && ix.Enabled() {
		if sc == nil {
			sc = sim.NewScratch()
		}
		rq := sc.Query()
		n := ix.Candidates(tr, rq)
		cx.Counters.IndexCandidates.Add(int64(n))
		cx.Counters.IndexSkipped.Add(int64(ix.Active() - n))
		return rq.Best() // (-1, 0) without a candidate: the trash cluster
	}
	bestJ, best := TrashCluster, 0.0
	for j, rep := range reps {
		if rep == nil || rep.Len() == 0 {
			continue
		}
		if v := cx.TransactionsAtLeast(tr, rep, best, sc); v > best {
			bestJ, best = j, v
		}
	}
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
