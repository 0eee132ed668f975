package cluster

// Benchmarks for the parallel execution layer: the Relocate-bound path
// (one transaction similarity per transaction×representative pair) and
// representative generation, each at several worker counts, plus a
// speedup benchmark that measures serial vs parallel in one run and
// reports the ratio. On a single-core host the ratio degenerates to ~1.0
// (goroutines timeshare one CPU); with 4+ cores the Relocate-bound path
// exceeds 1.5×. Reproduce with:
//
//	go test ./internal/cluster -bench 'Relocate|RepresentativeWorkers' -benchtime 3x

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"xmlclust/internal/dataset"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// relocateFixture prepares a DBLP-like corpus, k initial representatives
// and a warmed similarity context, so the benchmarks measure steady-state
// relocation rather than first-touch cache fills.
func relocateFixture(b testing.TB, k int) (*sim.Context, []*txn.Transaction, []*txn.Transaction) {
	b.Helper()
	gen, ok := dataset.ByName("DBLP")
	if !ok {
		b.Fatal("DBLP generator missing")
	}
	col := gen(dataset.Spec{Docs: 64, Seed: 7})
	corpus := col.BuildCorpus(dataset.ByHybrid, 32, 1)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.8})
	rng := rand.New(rand.NewSource(11))
	reps := SelectInitial(corpus.Transactions, k, rng)
	flatRelocate(b, cx, corpus.Transactions, reps, 0) // warm the pair cache
	return cx, corpus.Transactions, reps
}

func benchmarkRelocate(b *testing.B, workers int) {
	cx, s, reps := relocateFixture(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flatRelocate(b, cx, s, reps, workers)
	}
}

func BenchmarkRelocateWorkers1(b *testing.B) { benchmarkRelocate(b, 1) }
func BenchmarkRelocateWorkers2(b *testing.B) { benchmarkRelocate(b, 2) }
func BenchmarkRelocateWorkers4(b *testing.B) { benchmarkRelocate(b, 4) }
func BenchmarkRelocateWorkers8(b *testing.B) { benchmarkRelocate(b, 8) }

// seedRelocate is the seed relocation loop over sim.SeedTransactions (the
// frozen pre-kernel Eq. 4 snapshot in internal/sim/seed.go, shared with
// the kernel property tests and cxkbench's kernel experiment): every pair
// evaluated to completion, no scratch reuse. It also returns the seed
// objective of the pass, Σ in index order of 1 − the winning similarity.
func seedRelocate(cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction) ([]int, float64) {
	assign, objective := make([]int, len(s)), 0.0
	for i, tr := range s {
		best, bestJ := 0.0, TrashCluster
		for j, rep := range reps {
			if rep == nil || rep.Len() == 0 {
				continue
			}
			v := sim.SeedTransactions(cx, tr, rep)
			if v > best {
				best, bestJ = v, j
			}
		}
		assign[i] = bestJ
		objective += 1 - best
	}
	return assign, objective
}

// BenchmarkRelocateSpeedup times the seed-kernel serial, the zero-alloc
// kernel serial and the 4-worker relocation back to back on identical
// inputs and reports the ratios, so one run demonstrates both wins — the
// kernel win (speedup-vs-seed: new serial throughput over the seed
// allocating kernel, the ≥1.3× acceptance bar) and the parallelism win
// (speedup-4w) — without cross-benchmark arithmetic. Run with -benchmem:
// allocs/op covers all three variants, so the per-pair map/matrix churn of
// the seed path is visible next to the kernel's near-zero steady state.
// It also re-asserts output equality — a speedup that changed the answer
// would be a bug, not a win.
func BenchmarkRelocateSpeedup(b *testing.B) {
	cx, s, reps := relocateFixture(b, 8)
	var seed, serial, parallel time.Duration
	var want []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		fromSeed, _ := seedRelocate(cx, s, reps)
		seed += time.Since(t0)
		t1 := time.Now()
		want = flatRelocate(b, cx, s, reps, 1)
		serial += time.Since(t1)
		t2 := time.Now()
		got := flatRelocate(b, cx, s, reps, 4)
		parallel += time.Since(t2)
		for j := range want {
			if want[j] != got[j] {
				b.Fatalf("parallel relocation diverged at %d", j)
			}
			if want[j] != fromSeed[j] {
				b.Fatalf("kernel relocation diverged from seed kernel at %d", j)
			}
		}
	}
	b.ReportMetric(float64(seed)/float64(serial), "speedup-vs-seed")
	b.ReportMetric(float64(serial)/float64(parallel), "speedup-4w")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkLocalRepresentative times one warm local representative — half
// the relocate fixture as one cluster, its synthetic items interned already —
// and reports its allocations: the refinement share of the tracked perf
// surface (CI runs it beside BenchmarkRelocateSpeedup).
func BenchmarkLocalRepresentative(b *testing.B) {
	cx, s, _ := relocateFixture(b, 8)
	members := s[:len(s)/2]
	cfg := RepConfig{Ctx: cx}
	ComputeLocalRepresentative(cfg, members) // intern synthetics once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLocalRepresentative(cfg, members)
	}
}
