package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// forAll is ForCtxWorkers under the nil context, which never cancels.
func forAll(workers, n int, fn func(worker, i int)) {
	var never context.Context
	if err := ForCtxWorkers(never, workers, 16, n, fn); err != nil {
		panic(err)
	}
}

func TestForCtxNilAndBackground(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		var n atomic.Int64
		if err := ForCtxWorkers(ctx, 4, 16, 100, func(_, i int) { n.Add(1) }); err != nil {
			t.Fatalf("uncancelable ctx returned %v", err)
		}
		if n.Load() != 100 {
			t.Fatalf("ran %d of 100 indices", n.Load())
		}
	}
}

func TestForCtxCancelStopsEarly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var n atomic.Int64
		err := ForCtxWorkers(ctx, workers, 16, 10000, func(_, i int) {
			if n.Add(1) == 10 {
				cancel()
			}
		})
		if err == nil {
			t.Fatalf("workers=%d: canceled run returned nil", workers)
		}
		if got := n.Load(); got >= 10000 {
			t.Errorf("workers=%d: cancellation did not stop the loop (%d ran)", workers, got)
		}
		cancel()
	}
}

func TestForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n atomic.Int64
	if err := ForCtxWorkers(ctx, 4, 16, 100, func(_, i int) { n.Add(1) }); err == nil {
		t.Fatal("pre-canceled ctx returned nil")
	}
	if n.Load() != 0 {
		t.Errorf("pre-canceled run still executed %d indices", n.Load())
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, w := range []int{1, 2, 7, 64} {
		if got := Resolve(w); got != w {
			t.Fatalf("Resolve(%d) = %d", w, got)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 5, 97, 1000} {
			hits := make([]atomic.Int32, n)
			forAll(workers, n, func(_, i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForSlotWritesMatchSerial(t *testing.T) {
	const n = 513
	want := make([]int, n)
	forAll(1, n, func(_, i int) { want[i] = i * i })
	got := make([]int, n)
	forAll(8, n, func(_, i int) { got[i] = i * i })
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("slot %d: serial %d parallel %d", i, want[i], got[i])
		}
	}
}

func TestWorkerCount(t *testing.T) {
	cpuCapped := runtime.GOMAXPROCS(0)
	if cpuCapped > 2 {
		cpuCapped = 2
	}
	for _, tc := range []struct{ workers, block, n, want int }{
		{1, 16, 100, 1},
		{4, 16, 100, 4},
		{8, 16, 100, 7}, // one worker per block of 16 indices at most
		{8, 16, 16, 1},  // a single block runs inline
		{8, 16, 17, 2},
		{4, 16, 0, 1},
		{-1, 16, 32, cpuCapped}, // <1 resolves to the CPU count, capped at the blocks
		{8, 1, 5, 5},            // blocks of one: a worker per index at most
		{8, 1, 1, 1},
	} {
		if got := WorkerCount(tc.workers, tc.block, tc.n); got != tc.want {
			t.Errorf("WorkerCount(%d, %d, %d) = %d, want %d", tc.workers, tc.block, tc.n, got, tc.want)
		}
	}
}

// TestForWorkersIDsAndCoverage: every index runs exactly once and every
// worker id stays inside [0, WorkerCount).
func TestForWorkersIDsAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 257
		nw := WorkerCount(workers, 16, n)
		var ran [n]atomic.Int64
		var badID atomic.Bool
		forAll(workers, n, func(w, i int) {
			if w < 0 || w >= nw {
				badID.Store(true)
			}
			ran[i].Add(1)
		})
		if badID.Load() {
			t.Fatalf("workers=%d: worker id outside [0,%d)", workers, nw)
		}
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, ran[i].Load())
			}
		}
	}
}

// TestForWorkersPerWorkerStateIsPrivate: per-worker slots accumulate the
// whole range with no index lost, proving each index is charged to exactly
// the worker that ran it.
func TestForWorkersPerWorkerStateIsPrivate(t *testing.T) {
	const n = 1000
	nw := WorkerCount(4, 16, n)
	sums := make([]int, nw)
	forAll(4, n, func(w, i int) { sums[w] += i })
	total := 0
	for _, s := range sums {
		total += s
	}
	if want := n * (n - 1) / 2; total != want {
		t.Fatalf("per-worker sums total %d, want %d", total, want)
	}
}

func TestForCtxWorkersCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForCtxWorkers(ctx, 4, 16, 100, func(_, _ int) { ran = true })
	if err == nil {
		t.Fatal("canceled ctx produced nil error")
	}
	_ = ran // indices in flight may run; only the error contract is pinned
}
