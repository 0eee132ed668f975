// Package parallel provides the deterministic fork-join primitives the
// clustering hot paths are built on.
//
// The paper's CXK-means is a parallel algorithm by construction — every
// peer clusters its local transaction set independently — and Sect. 4.3
// observes that similarity computation, not iteration count, dominates the
// cost. The primitives here parallelize exactly those similarity-bound
// loops while preserving bit-for-bit reproducibility: work items are
// identified by index, every worker writes only into the slot of the index
// it drew, and floating-point reductions are re-associated in index order
// by the caller (see Sum). Consequently a run with N workers produces
// output byte-identical to the serial run, for any N.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a worker-count knob: any value below 1 means "one
// worker per available CPU" (runtime.GOMAXPROCS(0)).
func Resolve(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// block is how many consecutive indices a worker draws at a time. The work
// items of the clustering hot paths cost about a microsecond each, less than
// starting a goroutine or contending on the shared counter: drawing them one
// by one, or forking for a handful of them, spends more in the scheduler than
// in the work.
const block = 16

// WorkerCount reports how many workers the fork-join primitives will
// actually spawn for a knob value and a work-item count: Resolve(workers)
// capped at one worker per block of indices, never below 1 — so a range of
// at most one block runs inline. Callers use it to size per-worker state (one
// similarity Scratch per worker, for example) before handing the state out
// by worker id in ForWorkers/ForCtxWorkers/SumWorkers.
func WorkerCount(workers, n int) int {
	w := Resolve(workers)
	if blocks := (n + block - 1) / block; w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs fn(i) for every i in [0,n), spread over the given number of
// workers. workers < 1 resolves to the CPU count; workers == 1 (or n ≤ 1)
// runs inline with no goroutines, so the serial path stays allocation- and
// scheduler-free.
//
// Scheduling is dynamic (workers draw the next block of indices from a
// shared atomic counter), which balances loads whose per-index cost varies —
// e.g. cluster members of very different transaction lengths. fn must be
// safe to call concurrently and must confine its writes to state owned by
// index i; under that contract the result is independent of the schedule.
func For(workers, n int, fn func(i int)) {
	ForWorkers(workers, n, func(_, i int) { fn(i) })
}

// ForWorkers is For with a per-worker state hook: fn additionally receives
// the dense id (in [0, WorkerCount(workers, n))) of the worker executing
// the index, so callers can give every worker goroutine private mutable
// state — scratch buffers, counters — without locking. Which worker draws
// which index is schedule-dependent; the per-worker state must therefore
// never influence results, only performance (the similarity kernel's
// Scratch is the canonical example). The serial path runs as worker 0.
func ForWorkers(workers, n int, fn func(worker, i int)) {
	forBlocks(nil, workers, n, fn)
}

// ForCtx is For with cooperative cancellation: before drawing each block of
// indices, workers (and the inline serial path) check ctx and stop scheduling
// new work once it is done, then return ctx's error. Indices already in flight
// run to completion, so fn never races with the return; on a non-nil error
// the output slots are incomplete and the caller must discard them. A nil
// ctx (or one that can never be canceled) degenerates to For.
func ForCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	return ForCtxWorkers(ctx, workers, n, func(_, i int) { fn(i) })
}

// ForCtxWorkers combines ForWorkers' per-worker state hook with ForCtx's
// cooperative cancellation (see both for the contracts).
func ForCtxWorkers(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if ctx == nil {
		forBlocks(nil, workers, n, fn)
		return nil
	}
	if forBlocks(ctx.Done(), workers, n, fn) {
		return ctx.Err()
	}
	return nil
}

// forBlocks is the one fork-join loop: it runs fn over [0,n) block by block
// and reports whether a worker found done closed before drawing a block (a
// nil done never is).
func forBlocks(done <-chan struct{}, workers, n int, fn func(worker, i int)) bool {
	workers = WorkerCount(workers, n)
	if workers <= 1 {
		for lo := 0; lo < n; lo += block {
			select {
			case <-done:
				return true
			default:
			}
			for i := lo; i < min(lo+block, n); i++ {
				fn(0, i)
			}
		}
		return false
	}
	var next atomic.Int64
	var canceled atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					canceled.Store(true)
					return
				default:
				}
				lo := (int(next.Add(1)) - 1) * block
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+block, n); i++ {
					fn(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	return canceled.Load()
}

// Sum evaluates fn(i) for every i in [0,n) across workers and returns
// Σ fn(i) accumulated in ascending index order. Computing the terms in
// parallel but reducing them serially keeps the floating-point result
// identical to the serial loop — addition is not associative, so a
// schedule-dependent reduction order would leak into cluster objectives
// and break run-to-run reproducibility.
func Sum(workers, n int, fn func(i int) float64) float64 {
	return SumWorkers(workers, n, func(_, i int) float64 { return fn(i) })
}

// SumWorkers is Sum with the per-worker state hook of ForWorkers: fn
// receives the executing worker's dense id alongside the index, and the
// terms are still reduced in ascending index order, so the float result is
// byte-identical to the serial loop for any worker count and any schedule.
func SumWorkers(workers, n int, fn func(worker, i int) float64) float64 {
	if WorkerCount(workers, n) <= 1 {
		s := 0.0
		for i := 0; i < n; i++ {
			s += fn(0, i)
		}
		return s
	}
	terms := make([]float64, n)
	ForWorkers(workers, n, func(w, i int) {
		terms[i] = fn(w, i)
	})
	s := 0.0
	for _, t := range terms {
		s += t
	}
	return s
}
