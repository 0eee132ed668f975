package cluster

import (
	"context"
	"math/rand"
	"slices"

	"xmlclust/internal/parallel"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// TrashCluster is the assignment value for the (k+1)-th cluster collecting
// transactions with zero similarity to every representative (Sect. 4.2).
const TrashCluster = -1

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

// RelocateCtxIndexed is RelocateScores allocating the assignment.
//
// Deprecated: goes with the next benchmark PR — the frozen bench/ module
// pins this signature.
func RelocateCtxIndexed(ctx context.Context, cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int, ix *sim.RepIndex) ([]int, error) {
	assign := make([]int, len(s))
	if err := RelocateScores(ctx, cx, s, reps, workers, ix, assign, nil); err != nil {
		return nil, err
	}
	return assign, nil
}

// relocateBlock is how many transactions a relocation worker draws at a
// time: scoring one costs about a microsecond, less than a goroutine.
const relocateBlock = 16

// RelocateScores performs the transaction-relocation step of Fig. 5 for a
// fixed set of representatives: every transaction with zero similarity to
// all representatives joins the trash cluster; the others join the argmax
// cluster (ties to the lowest index). nil reps never win. assign[i] receives
// transaction i's cluster and, when scores is non-nil, scores[i] the winning
// similarity (0 for trash).
//
// Transactions are independent under a fixed representative set, so each
// worker runs RelocateOneIndexed for the indices it draws, on one pooled
// similarity Scratch, and writes into the pre-indexed slots: the result is
// byte-identical for any worker count. Workers stop drawing transactions
// once ctx is done and the call returns ctx's error, with both slices
// partially written; a nil ctx never cancels. ix must have been built over
// exactly this reps slice under cx's parameters; a nil or disabled index is
// the flat scan over the dense kernel, with byte-identical results either
// way.
func RelocateScores(ctx context.Context, cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int, ix *sim.RepIndex, assign []int, scores []float64) error {
	ws := sim.BorrowScratches(parallel.WorkerCount(workers, relocateBlock, len(s)))
	defer ws.Release()
	return parallel.ForCtxWorkers(ctx, workers, relocateBlock, len(s), func(w, i int) {
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
// A nil or disabled index scans every representative in index order with
// the dense kernel (no index counters move). Through an index one sweep of
// tr's terms over the posting lists yields tr's exact similarity to every
// representative it does not score 0 against (sim.RepIndex), and the winner
// is their lowest-index argmax — which is what the flat scan arrives at,
// since its running best starts at 0 and only strict improvements move it.
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
		n := ix.CandidatesIn(cx, tr, rq)
		cx.Counters.IndexCandidates.Add(int64(n))
		cx.Counters.IndexSkipped.Add(int64(ix.Active() - n))
		return rq.Best() // (-1, 0) without a candidate: the trash cluster
	}
	bestJ, best := TrashCluster, 0.0
	for j, rep := range reps {
		if rep == nil || rep.Len() == 0 {
			continue
		}
		if v := cx.Transactions(tr, rep, sc); v > best {
			bestJ, best = j, v
		}
	}
	return bestJ, best
}

// RepsEqual reports whether two representative slices hold the same item
// sequences cluster by cluster (nil only equals nil).
func RepsEqual(a, b []*txn.Transaction) bool {
	return slices.EqualFunc(a, b, repEqual)
}

// RepsChanged counts the slots where two representative slices of one
// length differ by RepsEqual's rule.
func RepsChanged(a, b []*txn.Transaction) int {
	n := 0
	for j := range a {
		if !repEqual(a[j], b[j]) {
			n++
		}
	}
	return n
}

// repEqual reports whether two representatives are byte-identical. The
// pointer check catches the common cases for free: memoized representatives
// and kept-alive empty-cluster reps are the same object across rounds.
func repEqual(a, b *txn.Transaction) bool {
	return a == b || (a != nil && b != nil && a.Equal(b))
}
