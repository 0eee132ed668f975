package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"xmlclust/internal/cluster"
	"xmlclust/internal/dataset"
	"xmlclust/internal/experiments"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// relocatePoint is one representative-set size of the relocate experiment.
type relocatePoint struct {
	K int `json:"k"`
	// FlatNsPerPass / IndexedNsPerPass time one full relocation pass over
	// every transaction (flat scan over the dense kernel vs posting-list
	// scoring; the indexed time includes the per-pass index
	// rebuild, exactly as the clustering loop pays it each refinement
	// phase).
	FlatNsPerPass    float64 `json:"flat_ns_per_pass"`
	IndexedNsPerPass float64 `json:"indexed_ns_per_pass"`
	// EvaluatedRepsPerDoc / SkippedRepsPerDoc average the index counters of
	// one pass: representatives a document scored above zero against vs
	// representatives its sweep never touched (they score exactly zero).
	EvaluatedRepsPerDoc float64 `json:"evaluated_reps_per_doc"`
	SkippedRepsPerDoc   float64 `json:"skipped_reps_per_doc"`
	Speedup             float64 `json:"speedup"`
}

// relocateBench is the machine-readable artifact of the relocate
// experiment: indexed vs flat relocation across representative-set sizes,
// with the byte-identity pre-gate result and the k=256 speedup the CI
// regression smoke gates on.
type relocateBench struct {
	Experiment    string          `json:"experiment"`
	Dataset       string          `json:"dataset"`
	Docs          int             `json:"docs"`
	Transactions  int             `json:"transactions"`
	GoMaxProcs    int             `json:"gomaxprocs"`
	Workers       int             `json:"workers"`
	F             float64         `json:"f"`
	Gamma         float64         `json:"gamma"`
	Identical     bool            `json:"assignments_identical"`
	Points        []relocatePoint `json:"points"`
	SpeedupAtK256 float64         `json:"speedup_at_k256"`
}

// relocateKs are the representative-set sizes the experiment scans — the
// axis along which the flat scan's O(n·k) cost grows while the indexed
// scan's grows with the posting lists of each document's terms.
var relocateKs = []int{8, 64, 256, 1024}

// runRelocate benchmarks posting-list relocation against the flat scan over
// the dense kernel on a generated corpus across representative-set
// sizes. Representatives are transactions sampled deterministically from
// the corpus (the same proxy for a frozen representative set at every k).
// Before any timing it asserts that both paths produce byte-identical
// assignments at every k — a speedup for a scan that diverged would be
// meaningless. With minSpeedup > 0 it exits non-zero when the k=256
// speedup falls below the bar (the CI relocate-regression smoke).
func runRelocate(ds string, scale experiments.Scale, workers int, jsonPath string, minSpeedup float64) error {
	gen, _ := dataset.ByName(ds)
	col := gen(dataset.Spec{Docs: scale.Docs[ds], Seed: experiments.DataSeed})
	corpus := col.BuildCorpus(dataset.ByHybrid, scale.MaxTuples, workers)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.8})
	trs := corpus.Transactions
	if len(trs) < 2 {
		return fmt.Errorf("relocate experiment needs ≥2 transactions, corpus has %d", len(trs))
	}

	r := relocateBench{
		Experiment: "relocate", Dataset: ds,
		Docs: scale.Docs[ds], Transactions: len(trs),
		GoMaxProcs: runtime.GOMAXPROCS(0), Workers: workers,
		F: cx.Params.F, Gamma: cx.Params.Gamma,
		Identical: true,
	}

	rng := rand.New(rand.NewSource(experiments.DataSeed))
	fmt.Printf("Relocation — indexed vs flat scan (%s, hybrid, f=%g γ=%g, %d txns)\n",
		ds, r.F, r.Gamma, len(trs))
	fmt.Printf("%6s %14s %14s %9s %14s %14s\n",
		"k", "flat ns/pass", "index ns/pass", "speedup", "nonzero/doc", "zero/doc")
	for _, k := range relocateKs {
		reps := sampleReps(rng, trs, k)
		// One relocation pass of every transaction, flat when ix is nil.
		relocate := func(ix *sim.RepIndex) ([]int, error) {
			assign := make([]int, len(trs))
			return assign, cluster.RelocateScores(nil, cx, trs, reps, workers, ix, assign, nil)
		}

		// Byte-identity pre-gate: the two paths must agree assignment for
		// assignment before either is worth timing.
		flatAssign, err := relocate(nil)
		if err != nil {
			return err
		}
		ix := sim.NewRepIndex()
		ix.Build(cx, reps)
		idxAssign, err := relocate(ix)
		if err != nil {
			return err
		}
		for i := range flatAssign {
			if flatAssign[i] != idxAssign[i] {
				r.Identical = false
				return fmt.Errorf("k=%d: indexed assignment diverged at transaction %d (flat %d, indexed %d)",
					k, i, flatAssign[i], idxAssign[i])
			}
		}

		// One instrumented pass for the evaluated/skipped-per-doc averages.
		candBefore := cx.Counters.IndexCandidates.Load()
		skipBefore := cx.Counters.IndexSkipped.Load()
		if _, err := relocate(ix); err != nil {
			return err
		}
		perDoc := float64(len(trs))
		evaluated := float64(cx.Counters.IndexCandidates.Load()-candBefore) / perDoc
		skipped := float64(cx.Counters.IndexSkipped.Load()-skipBefore) / perDoc

		flat := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relocate(nil)
			}
		})
		indexed := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.Build(cx, reps) // rebuilt per pass, as the clustering loop pays it
				if _, err := relocate(ix); err != nil {
					b.Fatal(err)
				}
			}
		})

		p := relocatePoint{
			K:                   k,
			FlatNsPerPass:       float64(flat.NsPerOp()),
			IndexedNsPerPass:    float64(indexed.NsPerOp()),
			EvaluatedRepsPerDoc: evaluated,
			SkippedRepsPerDoc:   skipped,
			Speedup:             float64(flat.NsPerOp()) / float64(indexed.NsPerOp()),
		}
		r.Points = append(r.Points, p)
		if k == 256 {
			r.SpeedupAtK256 = p.Speedup
		}
		fmt.Printf("%6d %14d %14d %8.2fx %14.1f %14.1f\n",
			k, flat.NsPerOp(), indexed.NsPerOp(), p.Speedup, evaluated, skipped)
	}
	fmt.Printf("assignments byte-identical at every k; speedup at k=256: %.2fx\n", r.SpeedupAtK256)

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
	if minSpeedup > 0 && r.SpeedupAtK256 < minSpeedup {
		return fmt.Errorf("relocate speedup %.2fx at k=256 below the %.2fx bar", r.SpeedupAtK256, minSpeedup)
	}
	return nil
}

// sampleReps draws k representatives from the corpus deterministically:
// a fresh permutation per call, wrapping around (duplicates) when k exceeds
// the corpus — both paths handle duplicate representatives identically.
func sampleReps(rng *rand.Rand, trs []*txn.Transaction, k int) []*txn.Transaction {
	perm := rng.Perm(len(trs))
	reps := make([]*txn.Transaction, k)
	for i := range reps {
		reps[i] = trs[perm[i%len(perm)]]
	}
	return reps
}
