package experiments

import (
	"fmt"
	"io"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/dataset"
)

// GammaPoint is one sample of the γ sensitivity sweep.
type GammaPoint struct {
	Gamma float64
	F     float64
	Trash float64
}

// GammaSweep reproduces the paper's γ tuning protocol (Sect. 5.1 varies γ
// in [0.5, 1) with step 0.05; the sweep here uses 0.1 steps by default).
func GammaSweep(ds string, kind dataset.ClassKind, f float64, gammas []float64, scale Scale, seed int64) ([]GammaPoint, error) {
	var out []GammaPoint
	for _, g := range gammas {
		r, err := Execute(RunSpec{
			Dataset: ds, Kind: kind, F: f, Gamma: g, Peers: 1, Workers: scale.Workers,
			Docs: scale.Docs[ds], MaxTuples: scale.MaxTuples, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("gamma sweep %s γ=%.2f: %w", ds, g, err)
		}
		out = append(out, GammaPoint{Gamma: g, F: r.F, Trash: r.Trash})
	}
	return out, nil
}

// WriteGammaSweep renders the sweep.
func WriteGammaSweep(w io.Writer, ds string, pts []GammaPoint) {
	fmt.Fprintf(w, "Ablation — γ sensitivity (%s, centralized)\n", ds)
	fmt.Fprintf(w, "%8s %12s %8s\n", "γ", "F-measure", "trash")
	for _, p := range pts {
		fmt.Fprintf(w, "%8.2f %12.3f %8.2f\n", p.Gamma, p.F, p.Trash)
	}
}

// RulePoint compares the GenerateTreeTuple return readings.
type RulePoint struct {
	Rule  cluster.ReturnRule
	Label string
	F     float64
	Trash float64
}

// ReturnRuleAblation compares the three readings of Fig. 6's return value
// (DESIGN.md "Deliberate interpretation choices").
func ReturnRuleAblation(ds string, kind dataset.ClassKind, scale Scale, seed int64) ([]RulePoint, error) {
	rules := []RulePoint{
		{Rule: cluster.ReturnBestObjective, Label: "best-objective (default)"},
		{Rule: cluster.ReturnLastImproving, Label: "last-improving (first decrease stops)"},
		{Rule: cluster.ReturnPrevious, Label: "previous (Fig. 6 literal)"},
	}
	f := HybridDriven.Fs[0]
	for i := range rules {
		r, err := Execute(RunSpec{
			Dataset: ds, Kind: kind, F: f, Gamma: BestGamma(ds, kind), Peers: 1,
			Workers: scale.Workers,
			Docs:    scale.Docs[ds], MaxTuples: scale.MaxTuples, Seed: seed,
			Rule: rules[i].Rule,
		})
		if err != nil {
			return nil, fmt.Errorf("rule ablation %s: %w", rules[i].Label, err)
		}
		rules[i].F = r.F
		rules[i].Trash = r.Trash
	}
	return rules, nil
}

// WriteRuleAblation renders the comparison.
func WriteRuleAblation(w io.Writer, ds string, pts []RulePoint) {
	fmt.Fprintf(w, "Ablation — GenerateTreeTuple return rule (%s, hybrid, centralized)\n", ds)
	for _, p := range pts {
		fmt.Fprintf(w, "%-40s F=%.3f trash=%.2f\n", p.Label, p.F, p.Trash)
	}
}

// CachePoint compares runtimes with and without the tag-path pair cache.
type CachePoint struct {
	Cached   bool
	Compute  time.Duration
	PathSims int64
}

// PathCacheAblation measures the Sect. 4.3.2 optimization: precomputing
// pairwise tag-path similarities once instead of per item comparison.
// Both arms run the same match kernel, which dedups alignments within one
// transaction pair (distinct tag-path pairs only) and — on the cached arm
// only — through its scratch-local memo; the PathSims column therefore
// reports Eq. 3 alignments actually computed (Counters.PathSims), the
// direct measure of the cache's effect, rather than the ItemSims−CacheHits
// proxy of the pre-kernel code.
func PathCacheAblation(ds string, scale Scale, seed int64) ([]CachePoint, error) {
	var out []CachePoint
	for _, cached := range []bool{true, false} {
		ClearCorpusCache() // isolate counters per run
		spec := RunSpec{
			Dataset: ds, Kind: dataset.ByHybrid, F: 0.5,
			Gamma: BestGamma(ds, dataset.ByHybrid), Peers: 1,
			Workers: scale.Workers,
			Docs:    scale.Docs[ds], MaxTuples: scale.MaxTuples, Seed: seed,
			DisablePathCache: !cached,
		}
		r, err := Execute(spec)
		if err != nil {
			return nil, fmt.Errorf("cache ablation cached=%v: %w", cached, err)
		}
		out = append(out, CachePoint{Cached: cached, Compute: r.Compute, PathSims: r.PathSims})
	}
	return out, nil
}

// WorkersPoint is one sample of the intra-peer parallelism sweep.
type WorkersPoint struct {
	Workers  int
	WallTime time.Duration
	Compute  time.Duration
	// F checks output invariance: the F-measure must not move with the
	// worker count (the engine guarantees byte-identical assignments).
	F       float64
	Speedup float64 // serial wall time / this wall time
	// AllocsPerDoc is the heap-allocation delta of the run divided by the
	// corpus document count — the allocation axis of the ablation next to
	// the parallelism axis (speedup).
	AllocsPerDoc float64
}

// WorkersAblation sweeps the intra-peer worker count on a centralized run
// (m = 1 isolates the relocation pass, the one loop Workers forks, from
// communication).
// Runs are repeated and the minimum wall time kept, so the sweep is robust
// against scheduler noise; the F column must stay constant across rows —
// the parallel engine is exact, not approximate.
func WorkersAblation(ds string, workerCounts []int, scale Scale, seed int64) ([]WorkersPoint, error) {
	const repeats = 3
	var out []WorkersPoint
	for _, w := range workerCounts {
		spec := RunSpec{
			Dataset: ds, Kind: dataset.ByHybrid, F: 0.5,
			Gamma: BestGamma(ds, dataset.ByHybrid), Peers: 1, Workers: w,
			Docs: scale.Docs[ds], MaxTuples: scale.MaxTuples, Seed: seed,
		}
		pt := WorkersPoint{Workers: w}
		for rep := 0; rep < repeats; rep++ {
			r, err := Execute(spec)
			if err != nil {
				return nil, fmt.Errorf("workers ablation w=%d: %w", w, err)
			}
			if rep == 0 || r.WallTime < pt.WallTime {
				pt.WallTime = r.WallTime
				pt.Compute = r.Compute
				if r.Docs > 0 {
					pt.AllocsPerDoc = float64(r.Mallocs) / float64(r.Docs)
				}
			}
			pt.F = r.F
		}
		out = append(out, pt)
	}
	if len(out) > 0 && out[0].WallTime > 0 {
		for i := range out {
			out[i].Speedup = float64(out[0].WallTime) / float64(out[i].WallTime)
		}
	}
	return out, nil
}

// WriteWorkersAblation renders the sweep: the parallelism win (speedup)
// beside allocs/doc (heap allocations per corpus document — near-constant in
// corpus size, since scoring allocates nothing).
func WriteWorkersAblation(w io.Writer, ds string, pts []WorkersPoint) {
	fmt.Fprintf(w, "Ablation — intra-peer workers (%s, hybrid, centralized)\n", ds)
	fmt.Fprintf(w, "%8s %14s %14s %9s %8s %11s\n",
		"workers", "wall", "compute", "speedup", "F", "allocs/doc")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d %14s %14s %8.2fx %8.3f %11.0f\n",
			p.Workers, p.WallTime.Round(time.Microsecond),
			p.Compute.Round(time.Microsecond), p.Speedup, p.F, p.AllocsPerDoc)
	}
}

// WriteCacheAblation renders the comparison.
func WriteCacheAblation(w io.Writer, ds string, pts []CachePoint) {
	fmt.Fprintf(w, "Ablation — tag-path similarity cache (%s, hybrid, centralized)\n", ds)
	for _, p := range pts {
		state := "on"
		if !p.Cached {
			state = "off"
		}
		fmt.Fprintf(w, "cache %-3s  compute=%-14s path-alignments-computed=%d\n",
			state, p.Compute.Round(time.Microsecond), p.PathSims)
	}
}
