// Command cxkbench runs the paper's evaluation experiments and prints the
// tables and figure series (Sect. 5 of the paper; see EXPERIMENTS.md).
//
// Usage:
//
//	cxkbench -exp fig7                # Fig. 7 on all four corpora
//	cxkbench -exp fig8 -dataset DBLP  # one Fig. 8 panel
//	cxkbench -exp table1|table2|gamma|rules|cache|sweep|kernel|all
//	cxkbench -scale paper             # paper-geometry profile (slow)
//	cxkbench -exp kernel -json BENCH_kernel.json -min-speedup 1.3
//
// The sweep experiment exercises the public Engine API: one Engine fans an
// f×γ grid over its shared similarity caches (Engine.Sweep), printing the
// per-cell scores and the cache warmth the grid accumulated.
//
// The kernel experiment benchmarks the dense similarity kernel against
// the frozen seed implementation on one corpus, optionally writing the
// numbers (ns/op, allocs/op, speedup-vs-seed, clustering F-measure) as a
// machine-readable JSON artifact and gating on a minimum speedup — the CI
// bench-regression smoke and the input of the bench trajectory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xmlclust"
	"xmlclust/internal/dataset"
	"xmlclust/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig7 | fig8 | table1 | table2 | gamma | rules | cache | workers | semantics | cost | sweep | kernel | relocate | all")
		ds      = flag.String("dataset", "", "restrict to one corpus (fig7/fig8/gamma/workers/sweep/kernel)")
		scaleFl = flag.String("scale", "quick", "profile: quick | paper")
		workers = flag.Int("workers", 1, "intra-peer worker goroutines, also used as ingest workers for corpus preparation (0 = one per CPU); results are identical for any value")
		jsonFl  = flag.String("json", "", "write the kernel/relocate experiment's results as JSON to this path (e.g. BENCH_kernel.json)")
		minSpd  = flag.Float64("min-speedup", 0, "kernel/relocate experiment: exit non-zero if the gated speedup (vs seed / at k=256) falls below this bar (0 = no gate)")
	)
	flag.Parse()
	if *jsonFl != "" {
		// Fail on an unwritable artifact path before burning benchmark time,
		// not after: CI jobs that upload the JSON want the error up front.
		f, err := os.OpenFile(*jsonFl, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			check(fmt.Errorf("cannot write -json artifact: %w", err))
		}
		f.Close()
	}

	scale := experiments.QuickScale()
	if *scaleFl == "paper" {
		scale = experiments.PaperScale()
	}
	scale.Workers = *workers
	fmt.Printf("profile %q: docs=%v figMs=%v tableMs=%v seeds=%v workers=%d\n\n",
		scale.Name, scale.Docs, scale.FigMs, scale.TableMs, scale.Seeds, scale.Workers)

	want := func(name string) bool { return *exp == "all" || *exp == name }
	datasets := dataset.Names()
	if *ds != "" {
		datasets = []string{canonical(*ds)}
	}

	if want("fig7") {
		for _, d := range datasets {
			res, err := experiments.Fig7(d, scale)
			check(err)
			res.Write(os.Stdout)
			fmt.Println()
		}
	}
	if want("table1") {
		for _, s := range []experiments.Setting{experiments.ContentDriven, experiments.HybridDriven, experiments.StructureDriven} {
			res, err := experiments.AccuracyTable(s, false, scale)
			check(err)
			res.Write(os.Stdout)
			fmt.Println()
		}
	}
	if want("table2") {
		for _, s := range []experiments.Setting{experiments.ContentDriven, experiments.HybridDriven, experiments.StructureDriven} {
			res, err := experiments.AccuracyTable(s, true, scale)
			check(err)
			res.Write(os.Stdout)
			fmt.Println()
		}
	}
	if want("fig8") {
		fig8Sets := datasets
		if *ds == "" {
			fig8Sets = []string{"DBLP", "IEEE"} // the paper's two panels
		}
		for _, d := range fig8Sets {
			res, err := experiments.Fig8(d, scale)
			check(err)
			res.Write(os.Stdout)
			fmt.Println()
		}
	}
	if want("gamma") {
		gammaSets := datasets
		if *ds == "" {
			gammaSets = []string{"DBLP"}
		}
		for _, d := range gammaSets {
			kind := dataset.ByHybrid
			if d == "Wikipedia" {
				kind = dataset.ByContent
			}
			pts, err := experiments.GammaSweep(d, kind, 0.5, []float64{0.5, 0.6, 0.7, 0.8, 0.9}, scale, scale.Seeds[0])
			check(err)
			experiments.WriteGammaSweep(os.Stdout, d, pts)
			fmt.Println()
		}
	}
	if want("rules") {
		pts, err := experiments.ReturnRuleAblation("DBLP", dataset.ByHybrid, scale, scale.Seeds[0])
		check(err)
		experiments.WriteRuleAblation(os.Stdout, "DBLP", pts)
		fmt.Println()
	}
	if want("cache") {
		pts, err := experiments.PathCacheAblation("DBLP", scale, scale.Seeds[0])
		check(err)
		experiments.WriteCacheAblation(os.Stdout, "DBLP", pts)
		fmt.Println()
	}
	if want("workers") {
		wSets := datasets
		if *ds == "" {
			wSets = []string{"DBLP"}
		}
		for _, d := range wSets {
			pts, err := experiments.WorkersAblation(d, []int{1, 2, 4, 8}, scale, scale.Seeds[0])
			check(err)
			experiments.WriteWorkersAblation(os.Stdout, d, pts)
			fmt.Println()
		}
	}
	if want("semantics") {
		pts, err := experiments.SemanticsAblation(scale, scale.Seeds[0])
		check(err)
		experiments.WriteSemanticsAblation(os.Stdout, pts)
		fmt.Println()
	}
	if want("cost") {
		res, err := experiments.CostModel("DBLP", scale)
		check(err)
		res.Write(os.Stdout)
		fmt.Println()
	}
	if want("sweep") {
		d := "DBLP"
		if *ds != "" {
			d = canonical(*ds)
		}
		check(runSweep(d, scale, *workers))
		fmt.Println()
	}
	if want("kernel") {
		d := "DBLP"
		if *ds != "" {
			d = canonical(*ds)
		}
		check(runKernel(d, scale, *workers, *jsonFl, *minSpd))
		fmt.Println()
	}
	if want("relocate") {
		d := "DBLP"
		if *ds != "" {
			d = canonical(*ds)
		}
		check(runRelocate(d, scale, *workers, *jsonFl, *minSpd))
		fmt.Println()
	}
}

// runSweep drives the public Engine.Sweep surface over an f×γ grid on one
// generated corpus: every cell reuses the engine's warm structural caches,
// so the grid's aggregate compute is far below #cells × cold-run cost (see
// BenchmarkSweepWarmVsCold for the tracked number).
func runSweep(ds string, scale experiments.Scale, workers int) error {
	gen, _ := dataset.ByName(ds)
	col := gen(dataset.Spec{Docs: scale.Docs[ds], Seed: experiments.DataSeed})
	corpus := col.BuildCorpus(dataset.ByHybrid, scale.MaxTuples, workers)
	eng, err := xmlclust.NewEngine(corpus, xmlclust.EngineOptions{})
	if err != nil {
		return err
	}
	spec := xmlclust.SweepSpec{
		Base:   xmlclust.ClusterOptions{K: col.K(dataset.ByHybrid), Seed: scale.Seeds[0], Workers: workers},
		Fs:     []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Gammas: []float64{0.6, 0.7, 0.8},
	}
	t0 := time.Now()
	cells, err := eng.Sweep(context.Background(), spec)
	if err != nil {
		return err
	}
	fmt.Printf("Engine sweep — f×γ grid (%s, hybrid, centralized, k=%d)\n", ds, spec.Base.K)
	fmt.Printf("%6s %6s %12s %8s %12s\n", "f", "γ", "F-measure", "trash", "wall")
	for _, c := range cells {
		fmt.Printf("%6.1f %6.1f %12.3f %8.2f %12s\n",
			c.Options.F, c.Options.Gamma, c.Scores.FMeasure, c.Scores.Trash,
			c.Result.WallTime.Round(time.Microsecond))
	}
	fmt.Printf("%d cells in %v elapsed (%v summed cell wall time); %d structural pair sims cached\n",
		len(cells), time.Since(t0).Round(time.Millisecond),
		xmlclust.SweepDuration(cells).Round(time.Millisecond), eng.CachedPathSims())
	return nil
}

func canonical(name string) string {
	for _, n := range dataset.Names() {
		if strings.EqualFold(n, name) {
			return n
		}
	}
	fmt.Fprintf(os.Stderr, "cxkbench: unknown dataset %q (have %v)\n", name, dataset.Names())
	os.Exit(2)
	return ""
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxkbench:", err)
		os.Exit(1)
	}
}
