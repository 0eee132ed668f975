// Package parallel provides the two deterministic fork-join primitives the
// pipeline is built on, one per kind of loop worth a goroutine.
//
// ForCtxWorkers forks relocation, where transactions are independent under a
// fixed representative set; refinement, where clusters are (their synthetic
// items are found or made by content in the job's table); and the
// weighting finish, where items are once the collection counters are final
// (each weighs into its own span of one arena). Every worker writes only into
// the slot of the index it drew, and so a pass with N workers is
// byte-identical to the serial one, for any N. OrderedStream (stream.go)
// forks ingest: documents are parsed and their tuples extracted on workers,
// and delivered in input order to the one goroutine that interns.
// Nothing forks inside a representative: its work items cost about a
// microsecond, less than a fork. A reduction over forked terms would have to
// add them in index order (float addition is not associative, so a
// schedule-dependent order would leak into results).
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

// WorkerCount reports how many workers the fork-join primitives will
// actually spawn for a knob value, a block size and a work-item count:
// Resolve(workers) capped at one worker per block of indices, never below 1
// — so a range of at most one block runs inline. Callers use it to size
// per-worker state (one similarity Scratch per worker, for example) before
// handing the state out by worker id in ForCtxWorkers.
func WorkerCount(workers, block, n int) int {
	w := Resolve(workers)
	if blocks := (n + block - 1) / block; w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForCtxWorkers runs fn(worker, i) for every i in [0,n), spread over the
// given number of workers. workers < 1 resolves to the CPU count; workers == 1
// (or a range of at most one block) runs inline with no goroutines, in index
// order, so the serial path stays allocation- and scheduler-free.
//
// Scheduling is dynamic (workers draw the next block of indices from a
// shared atomic counter), which balances loads whose per-index cost varies —
// transactions of very different lengths. A block is how many consecutive
// indices a worker draws at a time, more than one for items cheaper than a
// draw from the shared counter. fn must be safe to call
// concurrently and must confine its writes to state owned by index i; under
// that contract the result is independent of the schedule.
//
// worker is the dense id (in [0, WorkerCount(workers, block, n))) of the goroutine
// executing the index, so callers can give each one private mutable state —
// scratch buffers, counters — without locking. Which worker draws which index
// is schedule-dependent; per-worker state must therefore never influence
// results, only performance (the similarity kernel's Scratch is the canonical
// example). The serial path runs as worker 0.
//
// Cancellation is cooperative: before drawing each block, workers (and the
// inline serial path) check ctx, stop scheduling new work once it is done,
// and the call returns ctx's error. Indices in flight run to completion, so
// fn never races with the return; on a non-nil error the output slots are
// incomplete and the caller must discard them. A nil ctx never cancels.
func ForCtxWorkers(ctx context.Context, workers, block, n int, fn func(worker, i int)) error {
	var done <-chan struct{} // a nil channel is never ready
	if ctx != nil {
		done = ctx.Done()
	}
	workers = WorkerCount(workers, block, n)
	if workers <= 1 {
		for lo := 0; lo < n; lo += block {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			for i := lo; i < min(lo+block, n); i++ {
				fn(0, i)
			}
		}
		return nil
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
	if canceled.Load() {
		return ctx.Err()
	}
	return nil
}
