package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"xmlclust/internal/txn"
)

// TestSharedKernelStateEquivalence drives the pooled per-worker kernel
// state the way production does — relocation passes and representative
// refinements borrowing and returning scratches on one sim.Context, from
// one and four workers and from three jobs at once — and requires every
// pass to reproduce the serial result byte for byte. Scratches migrate
// between workers, passes and jobs through the pool, so a scratch whose
// memoized columns or query state leaked into a result would show here
// (run with -race -count=10 in CI).
func TestSharedKernelStateEquivalence(t *testing.T) {
	corpus, k := synthCorpus(t, "DBLP", 40)
	s := corpus.Transactions
	cx := ctxFor(corpus, 0.5, 0.7)
	reps := SelectInitial(s, k, rand.New(rand.NewSource(5)))

	round := func(workers int) ([]int, []*txn.Transaction) {
		assign := flatRelocate(t, cx, s, reps, workers)
		members := make([][]*txn.Transaction, len(reps))
		for i, a := range assign {
			if a >= 0 {
				members[a] = append(members[a], s[i])
			}
		}
		locals := make([]*txn.Transaction, len(reps))
		for j, m := range members {
			locals[j] = ComputeLocalRepresentative(RepConfig{Ctx: cx, Workers: workers}, m)
		}
		return assign, locals
	}
	// The serial round also interns every synthetic item the later rounds
	// will derive again, so their ids cannot depend on a schedule.
	wantAssign, wantLocals := round(1)
	check := func(label string, assign []int, locals []*txn.Transaction) {
		if !slices.Equal(wantAssign, assign) {
			t.Errorf("%s: assignments differ from the serial round", label)
		}
		if !RepsEqual(wantLocals, locals) {
			t.Errorf("%s: representatives differ from the serial round", label)
		}
	}
	for _, workers := range []int{1, 4} {
		assign, locals := round(workers)
		check(fmt.Sprintf("workers=%d", workers), assign, locals)
	}
	var wg sync.WaitGroup
	for job := 0; job < 3; job++ {
		wg.Add(1)
		go func(job int) {
			defer wg.Done()
			for _, workers := range []int{1, 4} {
				assign, locals := round(workers)
				check(fmt.Sprintf("job %d workers=%d", job, workers), assign, locals)
			}
		}(job)
	}
	wg.Wait()
}

// TestXKMeansAllocationBound guards the per-worker scratch reuse: a whole
// job on the 160-document DBLP fixture must allocate well under what
// building fresh scratches per relocation pass and per representative
// refinement cost (22 MB on this fixture, two thirds of it 64 KiB
// structural memos; the pooled design measures 7 MB, nearly all of it
// representative conflation). The bound sits between the two with room for
// a pool the race detector or a GC cycle partly drains.
func TestXKMeansAllocationBound(t *testing.T) {
	corpus, k := synthCorpus(t, "DBLP", 160)
	cx := ctxFor(corpus, 0.5, 0.8)
	cfg := runCfg{K: k, MaxIter: 8, Seed: 7, Workers: 2, Fast: true}
	xkmeans(cx, corpus.Transactions, cfg) // warm the path cache, the pool and the synthetic items
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	xkmeans(cx, corpus.Transactions, cfg)
	runtime.ReadMemStats(&after)
	const boundMB = 16
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > boundMB {
		t.Errorf("one clustering job allocated %.1f MB, want at most %d MB", mb, boundMB)
	} else {
		t.Logf("one clustering job allocated %.1f MB (bound %d MB)", mb, boundMB)
	}
}
