package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit. The two tables below are the
// program's side of BENCHMARK.json; the smoke test holds them equal.
type metricDef struct{ name, unit string }

// endToEnd lists what every workload reports with tracing off. The unit of
// work ("job") is the workload's own: one ingest + persist round trip, one
// clustering job from raw bytes to assignments, one three-peer job, one
// closed-loop batch of HTTP operations.
var endToEnd = []metricDef{
	{"job_s", "s"},
	{"job_alloc_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists what the traced run reports. Every workload prints every
// name; a metric whose layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// Named end-to-end in the issue; per-layer here because the contract
	// wants every end-to-end metric from every workload (see README).
	{"f_measure", "fraction"},
	{"ingest_docs_per_s", "1/s"},
	{"persist_roundtrip_s", "s"},
	{"classify_p50_ms", "ms"}, {"classify_p95_ms", "ms"},
	{"add_p50_ms", "ms"}, {"add_p95_ms", "ms"},
	{"serve_ops_per_s", "1/s"},
	{"refresh_stall_s", "s"},

	{"xmltree.parse_ms", "ms"}, {"xmltree.parse_mb_per_s", "MB/s"}, {"xmltree.docs", "count"},
	{"tuple.extract_ms", "ms"}, {"tuple.tuples", "count"}, {"tuple.truncated", "count"},
	{"txn.build_ms", "ms"}, {"txn.items", "count"}, {"txn.transactions", "count"},
	{"txn.save_ms", "ms"}, {"txn.load_ms", "ms"}, {"txn.gob_bytes", "bytes"},
	{"weighting.finalize_ms", "ms"},
	{"corpus.build_ms_w1", "ms"}, {"corpus.build_ms_wN", "ms"},
	{"corpus.parallel_speedup", "ratio"}, {"corpus.peak_queued", "count"},

	{"sim.kernel_warm_ns", "ns"}, {"sim.kernel_cold_ns", "ns"}, {"sim.kernel_allocs_per_op", "count"},
	{"sim.repindex_build_us", "us"}, {"sim.repindex_entries", "count"},
	{"sim.index_candidates_per_doc", "count"}, {"sim.index_skip_frac", "fraction"},
	{"sim.pruned_rows", "count"}, {"sim.pathcache_entries", "count"},

	{"cluster.relocate_pass_ms_w1", "ms"}, {"cluster.relocate_pass_ms_wN", "ms"},
	{"cluster.relocate_parallel_speedup", "ratio"}, {"cluster.relocate_flat_pass_ms", "ms"},
	{"cluster.local_rep_ms", "ms"}, {"cluster.global_rep_ms", "ms"},
	{"cluster.docs_skipped", "count"}, {"cluster.reps_reused", "count"},

	{"core.rounds", "count"},
	{"core.phase_startup_s", "s"}, {"core.phase_broadcast_s", "s"}, {"core.phase_relocate_s", "s"},
	{"core.phase_exchange_s", "s"}, {"core.phase_refine_s", "s"},
	{"core.peer_imbalance", "fraction"},
	{"core.traffic_bytes", "bytes"}, {"core.traffic_msgs", "count"},
	{"core.delta_rep_bytes_saved", "bytes"}, {"core.trace_overhead_frac", "fraction"},

	{"p2p.frame_roundtrip_us", "us"}, {"p2p.frame_mb_per_s", "MB/s"},
	{"fabric.checkpoint_overhead_frac", "fraction"}, {"fabric.checkpoint_bytes_per_round", "bytes"},
	{"pkmeans.job_s", "s"}, {"pkmeans.rounds", "count"},
	{"parallel.job_speedup", "ratio"},
	{"engine.warm_over_cold", "ratio"},

	{"serve.classify_direct_us", "us"}, {"serve.add_direct_us", "us"}, {"serve.http_overhead_us", "us"},
	{"serve.classify_p99_ms", "ms"}, {"serve.add_p99_ms", "ms"},
	{"serve.query_p50_ms", "ms"}, {"serve.get_p50_ms", "ms"},
	{"serve.open_loop_samples", "count"},
	{"serve.maintenance_ms", "ms"}, {"serve.refresh_rounds", "count"}, {"serve.gen_late_max_ms", "ms"},

	{"proc.peak_rss_mb", "MB"}, {"proc.num_gc", "count"}, {"proc.gc_pause_total_ms", "ms"},
}

// metricValue is one reported number with its unit, as the result line
// prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a table of definitions.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

// set records a value; a name outside the table is a bug in the harness.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not declared", name))
}

// ms records a duration in milliseconds.
func (m *metricSet) ms(name string, d time.Duration) {
	m.set(name, d.Seconds()*1e3)
}

// report returns every declared metric, unset ones as 0.
func (m *metricSet) report() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
