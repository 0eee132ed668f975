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
)

// roundsPoint is one collaborative round of the delta-on trajectory run:
// the per-round differences of the run-wide delta counters, showing the
// cross-round caches warming as the clustering converges.
type roundsPoint struct {
	Round      int   `json:"round"`
	RepsReused int64 `json:"reps_reused"`
	// DocsSkipped counts the documents of the relocation passes this round
	// that ran against the representatives of the pass before and returned
	// its assignment without scoring anything — the pass that confirms the
	// round's relocation fixpoint. DocSkipFrac normalizes by the corpus size.
	DocsSkipped int64   `json:"docs_skipped"`
	DocSkipFrac float64 `json:"doc_skip_frac"`
}

// roundsBench is the machine-readable artifact of the rounds experiment:
// full recomputation vs the cross-round delta engine on the same corpus,
// with the byte-identity pre-gate result, the full-run speedup the CI
// regression smoke gates on, the per-round reuse trajectory, and the
// multi-peer exchange savings.
type roundsBench struct {
	Experiment   string `json:"experiment"`
	Dataset      string `json:"dataset"`
	Docs         int    `json:"docs"`
	Transactions int    `json:"transactions"`
	K            int    `json:"k"`
	GoMaxProcs   int    `json:"gomaxprocs"`
	Workers      int    `json:"workers"`
	Rounds       int    `json:"rounds"`
	Identical    bool   `json:"assignments_identical"`
	// FullNsPerRun / DeltaNsPerRun time one complete centralized clustering
	// job (every round, relocation + representative generation) with the
	// delta engine off vs on.
	FullNsPerRun  float64 `json:"full_ns_per_run"`
	DeltaNsPerRun float64 `json:"delta_ns_per_run"`
	Speedup       float64 `json:"speedup"`
	// Counter totals of the delta-on trajectory run.
	RepsReused  int64         `json:"reps_reused"`
	DocsSkipped int64         `json:"docs_skipped"`
	Trajectory  []roundsPoint `json:"trajectory"`
	// Exchange savings of a 3-peer run: wire bytes with full representative
	// shipping vs digest markers for unchanged representatives.
	PeerTrafficFullBytes  int64 `json:"peer_traffic_full_bytes"`
	PeerTrafficDeltaBytes int64 `json:"peer_traffic_delta_bytes"`
	DeltaRepBytesSaved    int64 `json:"delta_rep_bytes_saved"`
}

// exchangePeers sizes the multi-peer leg measuring the delta representative
// exchange (layer 3); the timing and trajectory legs run centralized.
const exchangePeers = 3

// runRounds benchmarks the cross-round delta engine against full per-round
// recomputation on a generated corpus, end to end through the public
// Engine. Before any timing it asserts the two modes produce byte-identical
// assignments and representatives — a speedup for a run that diverged would
// be meaningless. The delta-on run streams round events; differencing the
// run-wide counters between consecutive rounds yields the reuse trajectory.
// With minSpeedup > 0 it exits non-zero when the full-run speedup falls below
// the bar (the CI rounds-regression smoke).
func runRounds(ds string, scale experiments.Scale, workers int, jsonPath string, minSpeedup float64) error {
	gen, _ := dataset.ByName(ds)
	col := gen(dataset.Spec{Docs: scale.Docs[ds], Seed: experiments.DataSeed})
	corpus := col.BuildCorpus(dataset.ByHybrid, scale.MaxTuples, workers)
	eng, err := xmlclust.NewEngine(corpus, xmlclust.EngineOptions{})
	if err != nil {
		return err
	}
	k := col.K(dataset.ByHybrid)
	base := xmlclust.ClusterOptions{
		K: k, F: 0.5, Gamma: 0.7, Seed: experiments.DataSeed, Workers: workers,
	}
	opt := func(mode xmlclust.DeltaRoundsMode) xmlclust.ClusterOptions {
		o := base
		o.DeltaRounds = mode
		return o
	}
	ctx := context.Background()

	r := roundsBench{
		Experiment: "rounds", Dataset: ds,
		Docs: scale.Docs[ds], Transactions: len(corpus.Transactions), K: k,
		GoMaxProcs: runtime.GOMAXPROCS(0), Workers: workers,
		Identical: true,
	}
	fmt.Printf("Delta rounds — cross-round memoization vs full recomputation (%s, hybrid, k=%d, f=%g γ=%g, %d txns)\n",
		ds, k, base.F, base.Gamma, r.Transactions)

	// Byte-identity pre-gate (also warms the engine's similarity caches, so
	// the timed runs below compare the round loops, not cache population).
	full, err := eng.Cluster(ctx, opt(xmlclust.DeltaRoundsOff))
	if err != nil {
		return err
	}
	delta, err := eng.Cluster(ctx, opt(xmlclust.DeltaRoundsAuto))
	if err != nil {
		return err
	}
	for i := range full.Assign {
		if full.Assign[i] != delta.Assign[i] {
			r.Identical = false
			return fmt.Errorf("delta run diverged at transaction %d (full %d, delta %d)",
				i, full.Assign[i], delta.Assign[i])
		}
	}
	if len(full.Reps) != len(delta.Reps) {
		return fmt.Errorf("delta run produced %d representatives, full run %d", len(delta.Reps), len(full.Reps))
	}
	for j := range full.Reps {
		a, b := full.Reps[j], delta.Reps[j]
		if (a == nil) != (b == nil) || (a != nil && !a.Equal(b)) {
			r.Identical = false
			return fmt.Errorf("delta run diverged at representative %d", j)
		}
	}
	if full.Rounds != delta.Rounds {
		return fmt.Errorf("delta run took %d rounds, full run %d", delta.Rounds, full.Rounds)
	}
	r.Rounds = full.Rounds

	// Reuse trajectory: one instrumented delta-on run, differencing the
	// run-wide counters carried on consecutive round events. The counters
	// are totals of the engine's shared similarity context, so the very
	// first event (round 0's start marker) supplies the pre-run baseline —
	// the pre-gate runs above already moved them.
	var lastReused, lastSkipped int64
	primed := false
	traj, err := eng.Cluster(ctx, func() xmlclust.ClusterOptions {
		o := opt(xmlclust.DeltaRoundsAuto)
		o.Events = func(ev xmlclust.Event) {
			if !primed {
				lastReused, lastSkipped = ev.RepsReused, ev.DocsSkipped
				primed = true
			}
			if ev.Kind != xmlclust.EventRoundEnd {
				return
			}
			p := roundsPoint{
				Round:       ev.Round + 1,
				RepsReused:  ev.RepsReused - lastReused,
				DocsSkipped: ev.DocsSkipped - lastSkipped,
			}
			p.DocSkipFrac = float64(p.DocsSkipped) / float64(len(corpus.Transactions))
			lastReused, lastSkipped = ev.RepsReused, ev.DocsSkipped
			r.Trajectory = append(r.Trajectory, p)
		}
		return o
	}())
	if err != nil {
		return err
	}
	r.RepsReused, r.DocsSkipped = traj.RepsReused, traj.DocsSkipped
	fmt.Printf("%8s %12s %13s %10s\n", "round", "reps reused", "docs skipped", "skip frac")
	for _, p := range r.Trajectory {
		fmt.Printf("%8d %12d %13d %9.2f\n", p.Round, p.RepsReused, p.DocsSkipped, p.DocSkipFrac)
	}

	// Timing: complete clustering jobs, delta off vs on, on the now-warm
	// engine.
	fullBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Cluster(ctx, opt(xmlclust.DeltaRoundsOff)); err != nil {
				b.Fatal(err)
			}
		}
	})
	deltaBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Cluster(ctx, opt(xmlclust.DeltaRoundsAuto)); err != nil {
				b.Fatal(err)
			}
		}
	})
	r.FullNsPerRun = float64(fullBench.NsPerOp())
	r.DeltaNsPerRun = float64(deltaBench.NsPerOp())
	r.Speedup = r.FullNsPerRun / r.DeltaNsPerRun

	// Exchange savings: a small multi-peer job, where unchanged
	// representatives ship as 24-byte digest markers instead of full wire
	// transactions. Assignments stay byte-identical (checked again — this
	// leg exercises layer 3, which the centralized runs above never touch).
	peerOpt := func(mode xmlclust.DeltaRoundsMode) xmlclust.ClusterOptions {
		o := opt(mode)
		o.Peers = exchangePeers
		return o
	}
	pf, err := eng.Cluster(ctx, peerOpt(xmlclust.DeltaRoundsOff))
	if err != nil {
		return err
	}
	pd, err := eng.Cluster(ctx, peerOpt(xmlclust.DeltaRoundsAuto))
	if err != nil {
		return err
	}
	for i := range pf.Assign {
		if pf.Assign[i] != pd.Assign[i] {
			r.Identical = false
			return fmt.Errorf("%d-peer delta run diverged at transaction %d (full %d, delta %d)",
				exchangePeers, i, pf.Assign[i], pd.Assign[i])
		}
	}
	r.PeerTrafficFullBytes = pf.TrafficBytes
	r.PeerTrafficDeltaBytes = pd.TrafficBytes
	r.DeltaRepBytesSaved = pd.DeltaRepBytes

	fmt.Printf("assignments, representatives and round counts identical (%d rounds)\n", r.Rounds)
	fmt.Printf("full %14.0f ns/run   delta %14.0f ns/run   speedup %.2fx\n",
		r.FullNsPerRun, r.DeltaNsPerRun, r.Speedup)
	fmt.Printf("%d-peer traffic: %d B full shipping → %d B delta exchange (%d B saved by digest markers)\n",
		exchangePeers, r.PeerTrafficFullBytes, r.PeerTrafficDeltaBytes, r.DeltaRepBytesSaved)

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
	if minSpeedup > 0 && r.Speedup < minSpeedup {
		return fmt.Errorf("delta-round speedup %.2fx below the %.2fx bar", r.Speedup, minSpeedup)
	}
	return nil
}
