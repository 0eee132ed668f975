// Command cxkbench runs the paper's evaluation experiments (Sect. 5 of the
// paper): it prints the figure series and the ablations, and writes the
// fidelity ledger.
//
// Usage:
//
//	cxkbench -exp fig7                # Fig. 7 on all four corpora
//	cxkbench -exp fig8 -dataset DBLP  # one Fig. 8 panel
//	cxkbench -exp cache|workers|cost|kernel|relocate|all
//	cxkbench -scale paper             # paper-geometry profile (slow)
//	cxkbench -exp kernel -json BENCH_kernel.json -min-speedup 1.3
//	cxkbench -exp fidelity -json FIDELITY.json
//
// The kernel experiment benchmarks the dense similarity kernel against
// the frozen seed implementation on one corpus, optionally writing the
// numbers (ns/op, allocs/op, speedup-vs-seed, clustering F-measure) as a
// machine-readable JSON artifact and gating on a minimum speedup — the CI
// bench-regression smoke and the input of the bench trajectory.
//
// The fidelity experiment writes the fidelity ledger (FIDELITY.json, see
// experiments.Ledger) to -json, or to stdout; "all" does not include it. It
// runs the ledger on the fast engine and on the reference engine, writes the
// reference engine's, and fails unless the two are the same bytes.
// The ledger is the one record of the paper's accuracy results: Tables 1–2,
// the γ tuning, the return-rule readings and the controls they are read
// against.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"xmlclust/internal/dataset"
	"xmlclust/internal/experiments"
)

func main() {
	exps := []string{"fig7", "fig8", "cache", "workers", "cost", "kernel", "relocate", "fidelity", "all"}
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(exps, " | "))
		ds      = flag.String("dataset", "", "restrict to one corpus (fig7/fig8/workers/kernel/relocate)")
		scaleFl = flag.String("scale", "quick", "profile: quick | paper")
		workers = flag.Int("workers", 1, "intra-peer worker goroutines, also used as ingest workers for corpus preparation (0 = one per CPU); results are identical for any value")
		jsonFl  = flag.String("json", "", "write the kernel/relocate/fidelity experiment's results as JSON to this path (e.g. BENCH_kernel.json)")
		minSpd  = flag.Float64("min-speedup", 0, "kernel/relocate experiment: exit non-zero if the gated speedup (vs seed / at k=256) falls below this bar (0 = no gate)")
	)
	flag.Parse()
	if !slices.Contains(exps, *exp) {
		check(fmt.Errorf("unknown experiment %q (have %s)", *exp, strings.Join(exps, " | ")))
	}
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
	if want("cost") {
		res, err := experiments.CostModel("DBLP", scale)
		check(err)
		res.Write(os.Stdout)
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
	if *exp == "fidelity" {
		check(writeFidelity(scale, *jsonFl))
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

// writeFidelity runs the fidelity ledger at scale on both engines, the fast
// one first, and writes the reference engine's to path, or to stdout when
// path is empty. The two must be the same bytes; when they are not, the
// fast engine's goes to path.fast (when path is set) and the run fails.
func writeFidelity(scale experiments.Scale, path string) error {
	var ledgers [2]bytes.Buffer
	for i, fast := range []bool{true, false} {
		l, err := experiments.Fidelity(scale, experiments.FidelitySeeds, fast)
		if err != nil {
			return err
		}
		if err := l.Write(&ledgers[i]); err != nil {
			return err
		}
	}
	fast, ref := ledgers[0].Bytes(), ledgers[1].Bytes()
	write := func(suffix string, b []byte) error { return os.WriteFile(path+suffix, b, 0o644) }
	if path == "" {
		write = func(_ string, b []byte) error { _, err := os.Stdout.Write(b); return err }
	}
	if err := write("", ref); err != nil || bytes.Equal(fast, ref) {
		return err
	}
	if path != "" {
		if err := write(".fast", fast); err != nil {
			return err
		}
	}
	return fmt.Errorf("fidelity: the fast engine's ledger differs from the reference engine's")
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
