package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"xmlclust"
	"xmlclust/internal/core"
	"xmlclust/internal/sim"
)

// The similarity knobs every clustering workload runs with: the hybrid
// regime the generated DBLP classes are defined for.
const (
	benchF     = 0.5
	benchGamma = 0.8
)

// minFMeasure is the floor every clustering job must clear against the
// hybrid reference classes. It is far below what the jobs score (0.43 to
// 0.70 at k=16, 0.27 at k=128 in the traced runs): it catches a clustering
// that fell apart, not one that got slightly worse; f_measure is reported.
const minFMeasure = 0.15

// batch is the centralized job: an archive of raw XML in, assignments out,
// on a fresh Engine each time — what a cxkcluster user pays per job.
type batch struct {
	sz   sizes
	docs int
	opts xmlclust.ClusterOptions

	ds      docSet
	archive []byte

	corpus *xmlclust.Corpus
	engine *xmlclust.Engine
	res    *xmlclust.Result
}

func newBatch(sz sizes, docs, k, rounds int) *batch {
	return &batch{sz: sz, docs: docs, opts: xmlclust.ClusterOptions{
		K: k, F: benchF, Gamma: benchGamma, Peers: 1, Workers: 0, MaxRounds: rounds,
	}}
}

func (w *batch) Setup(seed int64) error {
	ds, err := generate([]part{{"DBLP", w.docs}}, seed)
	if err != nil {
		return err
	}
	w.ds = ds
	w.archive, err = ds.tar()
	w.opts.Seed = seed
	return err
}

// ingest turns an archive of raw XML into a corpus through the public
// streaming path with the given number of parse workers (0 = one per CPU).
func ingest(archive []byte, labels []int, workers int) (*xmlclust.Corpus, error) {
	src, err := xmlclust.TarSource(bytes.NewReader(archive), "bench.tar")
	if err != nil {
		return nil, err
	}
	c, _, err := xmlclust.BuildCorpusFromSource(src, xmlclust.CorpusOptions{Labels: labels, IngestWorkers: workers})
	return c, err
}

// cluster runs one job from raw bytes under opts.
func (w *batch) cluster(opts xmlclust.ClusterOptions) (*xmlclust.Corpus, *xmlclust.Engine, *xmlclust.Result, error) {
	c, err := ingest(w.archive, w.ds.labels, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := xmlclust.NewEngine(c, xmlclust.EngineOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := eng.Cluster(context.Background(), opts)
	return c, eng, res, err
}

func (w *batch) Job() (int, int, error) {
	var err error
	w.corpus, w.engine, w.res, err = w.cluster(w.opts)
	return 1, 0, err
}

func (w *batch) Digest() uint64 {
	return digestInts(w.res.Assign) ^ xmlclust.RepsDigest(w.corpus, w.res.Reps)
}

func (w *batch) Check(full bool) error {
	if err := checkAssignment(w.corpus, w.res.Assign, w.opts.K, w.res.Rounds, w.opts.MaxRounds); err != nil {
		return err
	}
	if !full {
		return nil
	}
	// The speed tiers are exact: with the representative index and the
	// delta rounds off, the same input gives the same bytes.
	off := w.opts
	off.IndexReps, off.DeltaRounds = xmlclust.RepIndexOff, xmlclust.DeltaRoundsOff
	c, _, res, err := w.cluster(off)
	if err != nil {
		return fmt.Errorf("tiers-off run: %w", err)
	}
	if i := sameInts(w.res.Assign, res.Assign); i >= 0 {
		return fmt.Errorf("default tiers and tiers off disagree at transaction %d", i)
	}
	if a, b := xmlclust.RepsDigest(w.corpus, w.res.Reps), xmlclust.RepsDigest(c, res.Reps); a != b {
		return fmt.Errorf("default tiers and tiers off disagree on the representatives (%016x vs %016x)", a, b)
	}
	return nil
}

// checkAssignment verifies the shape of a clustering outcome and its
// quality floor against the corpus's reference classes.
func checkAssignment(c *xmlclust.Corpus, assign []int, k, rounds, maxRounds int) error {
	if len(assign) != len(c.Transactions) {
		return fmt.Errorf("%d assignments for %d transactions", len(assign), len(c.Transactions))
	}
	for i, j := range assign {
		if j != xmlclust.TrashCluster && (j < 0 || j >= k) {
			return fmt.Errorf("transaction %d assigned to cluster %d outside [0,%d)", i, j, k)
		}
	}
	if rounds < 1 || rounds > maxRounds {
		return fmt.Errorf("%d rounds with MaxRounds %d", rounds, maxRounds)
	}
	if f := xmlclust.Evaluate(xmlclust.Labels(c), assign, k).FMeasure; f < minFMeasure {
		return fmt.Errorf("F-measure %.3f below the floor %.2f", f, minFMeasure)
	}
	return nil
}

func (w *batch) Close() {}

func (w *batch) Layers(tr *tracer, root int, m *metricSet, seed int64) error {
	var err error
	tr.timed(root, "bench", "setup", func() { err = w.Setup(seed) })
	if err != nil {
		return err
	}
	job := func(name string, opts xmlclust.ClusterOptions) (time.Duration, error) {
		var err error
		d := tr.median(root, "engine", name, func() {
			if err == nil {
				_, _, _, err = w.cluster(opts)
			}
		})
		return d, err
	}
	plain, err := job("job untraced", w.opts)
	if err != nil {
		return err
	}

	// The traced jobs: the same input with progress events on. The last
	// one's phases and state feed the metrics and probes below.
	pt, traced, err := traceJobs(tr, root, 1, func(events func(xmlclust.Event)) error {
		opts := w.opts
		opts.Events = events
		var err error
		w.corpus, w.engine, w.res, err = w.cluster(opts)
		return err
	})
	if err != nil {
		return err
	}
	if err := w.Check(true); err != nil {
		return err
	}
	res := w.res
	m.set("f_measure", xmlclust.Evaluate(xmlclust.Labels(w.corpus), res.Assign, w.opts.K).FMeasure)
	reportPhases(m, pt)
	m.set("core.traffic_bytes", float64(res.TrafficBytes))
	m.set("core.traffic_msgs", float64(res.TrafficMsgs))
	m.set("core.delta_rep_bytes_saved", float64(res.DeltaRepBytes))
	m.set("core.trace_overhead_frac", traced.Seconds()/plain.Seconds()-1)
	reportCounters(m, res.DocsSkipped, res.RepsReused, res.IndexSkipped, res.IndexCandidates, res.PrunedRows)
	m.set("sim.pathcache_entries", float64(w.engine.CachedPathSims()))

	// A second job on the traced job's Engine finds its caches warm.
	warm := tr.timed(root, "engine", "job on the warm engine", func() {
		_, err = w.engine.Cluster(context.Background(), w.opts)
	})
	if err != nil {
		return err
	}
	m.set("engine.warm_over_cold", warm.Seconds()/res.WallTime.Seconds())

	serial := w.opts
	serial.Workers = 1
	w1, err := job("job at one worker", serial)
	if err != nil {
		return err
	}
	m.set("parallel.job_speedup", w1.Seconds()/plain.Seconds())

	if _, err := ingestStages(tr, root, m, w.ds); err != nil {
		return err
	}
	if err := pipelineProbe(tr, root, m, w.archive, w.ds.labels); err != nil {
		return err
	}
	p := sim.Params{F: benchF, Gamma: benchGamma}
	kernelProbe(tr, root, m, w.corpus, p, w.sz.kernelPairs, seed)
	return assignmentProbe(tr, root, m, w.corpus, p, res.Reps, res.Assign)
}

// reportPhases records the round count and the per-phase times of a traced
// job: each phase summed over the rounds, for the slowest peer.
func reportPhases(m *metricSet, pt *phaseTrace) {
	m.set("core.rounds", float64(pt.rounds))
	m.set("core.phase_startup_s", pt.slowest(core.PhaseStartup))
	m.set("core.phase_broadcast_s", pt.slowest(core.PhaseBroadcastGlobals))
	m.set("core.phase_relocate_s", pt.slowest(core.PhaseRelocate))
	m.set("core.phase_exchange_s", pt.slowest(core.PhaseExchangeLocals))
	m.set("core.phase_refine_s", pt.slowest(core.PhaseRefineGlobals))
	m.set("core.peer_imbalance", pt.imbalance())
}

// reportCounters records the exact work counters of one clustering job:
// what the delta tier, the representative index and the kernel's
// branch-and-bound saved.
func reportCounters(m *metricSet, docsSkipped, repsReused, indexSkipped, indexCandidates, prunedRows int64) {
	m.set("cluster.docs_skipped", float64(docsSkipped))
	m.set("cluster.reps_reused", float64(repsReused))
	if n := indexSkipped + indexCandidates; n > 0 {
		m.set("sim.index_skip_frac", float64(indexSkipped)/float64(n))
	}
	m.set("sim.pruned_rows", float64(prunedRows))
}
