package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"xmlclust"
	"xmlclust/internal/dataset"
	"xmlclust/internal/experiments"
	"xmlclust/internal/sim"
)

// kernelBench is the machine-readable record the kernel experiment emits
// with -json: the similarity-kernel micro numbers (kernel warm/cold and
// the frozen seed baseline on the same pair stream), the derived
// speedup-vs-seed ratio the CI regression smoke gates on, and the
// F-measure of a full clustering run on the same corpus — so a kernel
// "win" that silently changed the answer is visible in the same artifact.
type kernelBench struct {
	Experiment    string  `json:"experiment"`
	Dataset       string  `json:"dataset"`
	Docs          int     `json:"docs"`
	Transactions  int     `json:"transactions"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	WarmNsPerOp   float64 `json:"warm_ns_per_op"`
	WarmAllocs    float64 `json:"warm_allocs_per_op"`
	ColdNsPerOp   float64 `json:"cold_ns_per_op"`
	SeedNsPerOp   float64 `json:"seed_ns_per_op"`
	SeedAllocs    float64 `json:"seed_allocs_per_op"`
	SpeedupVsSeed float64 `json:"speedup_vs_seed"`
	FMeasure      float64 `json:"f_measure"`
}

// runKernel measures the transaction-similarity kernel on a generated
// corpus: the warm path (one reused Scratch), the cold path (a
// fresh Scratch per evaluation) and the frozen seed implementation, all on
// the identical transaction pair stream, then runs one full clustering to
// attach an accuracy figure. It first re-verifies kernel-vs-seed equality
// on every measured pair — a throughput number for a kernel that diverged
// would be meaningless. With minSpeedup > 0 it exits non-zero when
// speedup-vs-seed falls below the bar (the CI bench-regression smoke).
func runKernel(ds string, scale experiments.Scale, workers int, jsonPath string, minSpeedup float64) error {
	gen, _ := dataset.ByName(ds)
	col := gen(dataset.Spec{Docs: scale.Docs[ds], Seed: experiments.DataSeed})
	corpus := col.BuildCorpus(dataset.ByHybrid, scale.MaxTuples, workers)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.8})
	trs := corpus.Transactions
	if len(trs) < 2 {
		return fmt.Errorf("kernel experiment needs ≥2 transactions, corpus has %d", len(trs))
	}

	// Correctness gate before any timing: kernel == seed on the pair stream.
	sc := sim.NewScratch()
	for i, tr1 := range trs {
		tr2 := trs[(i+7)%len(trs)]
		if got, want := cx.Transactions(tr1, tr2, sc), sim.SeedTransactions(cx, tr1, tr2); got != want {
			return fmt.Errorf("kernel diverged from seed on pair (%d,%d): %v vs %v", i, (i+7)%len(trs), got, want)
		}
	}

	pairStream := func(run func(tr1, tr2 *xmlclust.Transaction)) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(trs[i%len(trs)], trs[(i+7)%len(trs)])
			}
		}
	}
	warm := testing.Benchmark(pairStream(func(tr1, tr2 *xmlclust.Transaction) {
		cx.Transactions(tr1, tr2, sc)
	}))
	cold := testing.Benchmark(pairStream(func(tr1, tr2 *xmlclust.Transaction) {
		cx.Transactions(tr1, tr2, sim.NewScratch())
	}))
	seed := testing.Benchmark(pairStream(func(tr1, tr2 *xmlclust.Transaction) {
		sim.SeedTransactions(cx, tr1, tr2)
	}))

	k := col.K(dataset.ByHybrid)
	eng, err := xmlclust.NewEngine(corpus, xmlclust.EngineOptions{})
	if err != nil {
		return err
	}
	res, err := eng.Cluster(context.Background(), xmlclust.ClusterOptions{
		K: k, F: 0.5, Gamma: 0.8, Seed: scale.Seeds[0], Workers: workers,
	})
	if err != nil {
		return err
	}
	scores := xmlclust.Evaluate(xmlclust.Labels(corpus), res.Assign, k)

	r := kernelBench{
		Experiment:    "kernel",
		Dataset:       ds,
		Docs:          scale.Docs[ds],
		Transactions:  len(trs),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		WarmNsPerOp:   float64(warm.NsPerOp()),
		WarmAllocs:    float64(warm.AllocsPerOp()),
		ColdNsPerOp:   float64(cold.NsPerOp()),
		SeedNsPerOp:   float64(seed.NsPerOp()),
		SeedAllocs:    float64(seed.AllocsPerOp()),
		SpeedupVsSeed: float64(seed.NsPerOp()) / float64(warm.NsPerOp()),
		FMeasure:      scores.FMeasure,
	}
	fmt.Printf("Similarity kernel — dense kernel vs seed (%s, hybrid, f=0.5 γ=0.8, %d txns)\n", ds, len(trs))
	fmt.Printf("%-22s %12s %12s\n", "variant", "ns/op", "allocs/op")
	fmt.Printf("%-22s %12d %12d\n", "kernel warm", warm.NsPerOp(), warm.AllocsPerOp())
	fmt.Printf("%-22s %12d %12d\n", "kernel cold", cold.NsPerOp(), cold.AllocsPerOp())
	fmt.Printf("%-22s %12d %12d\n", "seed (pointer-based)", seed.NsPerOp(), seed.AllocsPerOp())
	fmt.Printf("speedup-vs-seed %.2fx, clustering F-measure %.3f\n", r.SpeedupVsSeed, r.FMeasure)

	if jsonPath != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if minSpeedup > 0 && r.SpeedupVsSeed < minSpeedup {
		return fmt.Errorf("speedup-vs-seed %.2fx below the %.2fx bar", r.SpeedupVsSeed, minSpeedup)
	}
	return nil
}
