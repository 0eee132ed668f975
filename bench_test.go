package xmlclust

// Benchmark harness: the paper's timed figures (Sect. 5: Figs. 7–8), the
// ablations of this implementation's own choices and the public API's
// pipelines. Each experiment benchmark runs its driver and prints the series
// the paper reports. The accuracy results (Tables 1–2, the γ tuning, the
// return-rule readings) are deterministic, so they are no benchmark: they
// live in FIDELITY.json, which `cxkbench -exp fidelity` regenerates. Sizes
// come from the "quick" profile by default; set XMLCLUST_SCALE=paper for
// the paper-geometry profile (much slower).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xmlclust/internal/corpus"
	"xmlclust/internal/dataset"
	"xmlclust/internal/experiments"
	"xmlclust/internal/tuple"
	"xmlclust/internal/xmltree"
)

func benchScale() experiments.Scale {
	if os.Getenv("XMLCLUST_SCALE") == "paper" {
		return experiments.PaperScale()
	}
	return experiments.QuickScale()
}

var printOnce sync.Map

// printBench writes an experiment's output a single time per process even
// when the benchmark framework re-runs the function.
func printBench(key string, write func()) {
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		write()
	}
}

// ---------------------------------------------------------------- Fig. 7

func benchFig7(b *testing.B, ds string) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(ds, scale)
		if err != nil {
			b.Fatal(err)
		}
		printBench("fig7-"+ds, func() { res.Write(os.Stdout) })
		last := res.Full.Points[len(res.Full.Points)-1]
		first := res.Full.Points[0]
		b.ReportMetric(float64(first.SimTime.Microseconds()), "simμs/m=1")
		b.ReportMetric(float64(last.SimTime.Microseconds()), "simμs/m=max")
		b.ReportMetric(float64(res.Full.SaturationM(0.15)), "saturation-m")
	}
}

// BenchmarkFig7DBLP regenerates Fig. 7(a): clustering time vs nodes, DBLP.
func BenchmarkFig7DBLP(b *testing.B) { benchFig7(b, "DBLP") }

// BenchmarkFig7IEEE regenerates Fig. 7(b): clustering time vs nodes, IEEE.
func BenchmarkFig7IEEE(b *testing.B) { benchFig7(b, "IEEE") }

// BenchmarkFig7Shakespeare regenerates Fig. 7(c).
func BenchmarkFig7Shakespeare(b *testing.B) { benchFig7(b, "Shakespeare") }

// BenchmarkFig7Wikipedia regenerates Fig. 7(d).
func BenchmarkFig7Wikipedia(b *testing.B) { benchFig7(b, "Wikipedia") }

// ---------------------------------------------------------------- Fig. 8

func benchFig8(b *testing.B, ds string) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(ds, scale)
		if err != nil {
			b.Fatal(err)
		}
		printBench("fig8-"+ds, func() { res.Write(os.Stdout) })
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(float64(last.CXKTime.Microseconds()), "cxk-simμs/m=max")
		b.ReportMetric(float64(last.PKTime.Microseconds()), "pk-simμs/m=max")
		b.ReportMetric(res.AccuracyMargin(), "F-margin")
	}
}

// BenchmarkFig8DBLP regenerates Fig. 8(a): CXK vs PK runtime on DBLP,
// plus the Sect. 5.5.3 accuracy-margin comparison.
func BenchmarkFig8DBLP(b *testing.B) { benchFig8(b, "DBLP") }

// BenchmarkFig8IEEE regenerates Fig. 8(b): CXK vs PK runtime on IEEE.
func BenchmarkFig8IEEE(b *testing.B) { benchFig8(b, "IEEE") }

// ---------------------------------------------------------------- Ablations

// BenchmarkAblationPathCache measures the Sect. 4.3.2 tag-path pair cache.
func BenchmarkAblationPathCache(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.PathCacheAblation("DBLP", scale, 17)
		if err != nil {
			b.Fatal(err)
		}
		printBench("abl-cache", func() { experiments.WriteCacheAblation(os.Stdout, "DBLP", pts) })
		b.ReportMetric(float64(pts[0].Compute.Microseconds()), "compute-cached-μs")
		b.ReportMetric(float64(pts[1].Compute.Microseconds()), "compute-uncached-μs")
	}
}

// BenchmarkAblationWorkers sweeps the intra-peer worker count on the
// centralized DBLP run and reports the wall-clock speedup over the serial
// engine. The F column of the printed table must not move: Workers is
// exact, any count produces byte-identical output. Workers bounds the
// relocation pass only — representative refinement, where the time is, forks
// nothing — so expect about 1.0× at any count: the metric is there to show a
// fork that costs more than it saves, not to promise a speedup.
func BenchmarkAblationWorkers(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.WorkersAblation("DBLP", []int{1, 2, 4, 8}, scale, 17)
		if err != nil {
			b.Fatal(err)
		}
		printBench("abl-workers", func() { experiments.WriteWorkersAblation(os.Stdout, "DBLP", pts) })
		for _, p := range pts {
			if p.F != pts[0].F {
				b.Fatalf("F moved with worker count: %v at w=%d vs %v serial", p.F, p.Workers, pts[0].F)
			}
			if p.Workers == 4 {
				b.ReportMetric(p.Speedup, "speedup-4w")
			}
		}
	}
}

// ---------------------------------------------------------------- End-to-end

// BenchmarkPipelineDBLP measures the full public-API pipeline (parse is
// skipped: generation is direct) on the DBLP-like corpus, centralized.
func BenchmarkPipelineDBLP(b *testing.B) {
	gen, _ := dataset.ByName("DBLP")
	col := gen(dataset.Spec{Docs: 64, Seed: 1})
	labels, k := col.Labels(dataset.ByHybrid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus := BuildCorpus(col.Trees, CorpusOptions{Labels: labels, MaxTuplesPerTree: 32})
		res, err := freshEngine(b, corpus).Cluster(context.Background(), ClusterOptions{K: k, F: 0.5, Gamma: 0.8, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = Evaluate(Labels(corpus), res.Assign, k)
	}
}

// BenchmarkCostModel validates the Sect. 4.3.4 analytical cost model
// against the measured runtime curve on DBLP and prints the predicted
// optimal network size m*.
func BenchmarkCostModel(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CostModel("DBLP", scale)
		if err != nil {
			b.Fatal(err)
		}
		printBench("costmodel", func() { res.Write(os.Stdout) })
		b.ReportMetric(res.OptimalM, "predicted-m*")
	}
}

// --------------------------------------------------------- Engine sweeps

// BenchmarkSweepWarmVsCold quantifies the Engine's similarity-cache reuse
// on a 3×3 f/γ grid: the cold leg runs one grid cell on a fresh Engine per
// iteration (structural path cache rebuilt from scratch), the warm leg runs
// the identical cell on an Engine pre-warmed by the full Engine.Sweep grid.
// Both legs produce byte-identical results — only the cache temperature
// differs. The legs are interleaved per iteration so machine drift hits
// both equally. Reported metrics: µs per cell for each leg and the
// cold/warm speedup. The quick DBLP profile has 300 distinct tag-path
// pairs, so the alignments a warm cell saves are a few percent of it
// (~1.05×); the ratio is a tripwire for a warm engine turning slower than a
// cold one, not a promised gain.
func BenchmarkSweepWarmVsCold(b *testing.B) {
	gen, _ := dataset.ByName("DBLP")
	col := gen(dataset.Spec{Docs: 64, Seed: experiments.DataSeed})
	corpus := col.BuildCorpus(dataset.ByHybrid, 32, 1)
	// The measured cell is the structure-driven corner of the grid: Eq. 1
	// degenerates to the structural term there, so the warm path cache
	// covers the whole per-pair computation. The grid still spans hybrid
	// settings, as a real sweep would.
	cell := ClusterOptions{K: col.K(dataset.ByHybrid), F: 1.0, Gamma: 0.7, Seed: 17, Workers: 1}
	grid := SweepSpec{
		Base:        cell,
		Fs:          []float64{0.5, 0.7, 1.0},
		Gammas:      []float64{0.6, 0.7, 0.8},
		Concurrency: 1,
	}

	warmEng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warmEng.Sweep(context.Background(), grid); err != nil {
		b.Fatal(err) // pre-warm: the full grid fills the shared caches
	}

	var cold, warm time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldEng, err := NewEngine(corpus, EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if _, err := coldEng.Cluster(context.Background(), cell); err != nil {
			b.Fatal(err)
		}
		cold += time.Since(t0)

		t1 := time.Now()
		if _, err := warmEng.Cluster(context.Background(), cell); err != nil {
			b.Fatal(err)
		}
		warm += time.Since(t1)
	}

	b.ReportMetric(float64(cold.Microseconds())/float64(b.N), "cold-µs/cell")
	b.ReportMetric(float64(warm.Microseconds())/float64(b.N), "warm-µs/cell")
	if warm > 0 {
		b.ReportMetric(float64(cold)/float64(warm), "speedup-warm")
	}
	b.ReportMetric(float64(warmEng.CachedPathSims()), "cached-pairs")
}

// ------------------------------------------------------------- Ingestion

// benchIngest streams a rendered DBLP corpus from disk through the full
// ingestion pipeline and reports throughput (docs/s) and allocations per
// document — the tracked perf surface for the streaming builder.
func benchIngest(b *testing.B, workers int) {
	scale := benchScale()
	col := dataset.DBLP(dataset.Spec{Docs: scale.Docs["DBLP"], Seed: experiments.DataSeed})
	dir := b.TempDir()
	for i, tree := range col.Trees {
		p := filepath.Join(dir, fmt.Sprintf("dblp-%04d.xml", i))
		f, err := os.Create(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := xmltree.Render(f, tree); err != nil {
			f.Close()
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var docs, txns int
	var secs float64
	for i := 0; i < b.N; i++ {
		src, err := corpus.Dir(dir)
		if err != nil {
			b.Fatal(err)
		}
		c, stats, err := corpus.Build(src, corpus.Options{
			Tuple:   tuple.Options{MaxTuplesPerTree: scale.MaxTuples},
			Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		docs = stats.Docs
		txns = len(c.Transactions)
		secs += stats.Duration.Seconds()
	}
	if secs > 0 {
		b.ReportMetric(float64(docs*b.N)/secs, "docs/s")
	}
	b.ReportMetric(float64(txns), "txns")
}

// BenchmarkIngest tracks streaming ingestion throughput on the serial path.
func BenchmarkIngest(b *testing.B) { benchIngest(b, 1) }

// BenchmarkIngestParallel tracks the parallel parse/extract path (one
// worker per CPU); the resulting corpus is byte-identical to the serial one.
func BenchmarkIngestParallel(b *testing.B) { benchIngest(b, 0) }
