package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one of the five loads. An iteration is Setup, Job, Check, in
// that order, on one value; only Job is the timed unit of work.
type workload interface {
	// Setup generates the iteration's input from seed and brings the
	// system to the state the job starts from.
	Setup(seed int64) error
	// Job runs the unit of work once. ops is how many operations it
	// attempted (1 for a batch job) and failed how many of them failed.
	Job() (ops, failed int, err error)
	// Check verifies the last job's output. full adds the comparisons
	// against reference runs that cost a further job or more.
	Check(full bool) error
	// Digest fingerprints the last job's output: equal seeds must give
	// equal digests.
	Digest() uint64
	// Layers is the traced pass: it runs the workload once more under
	// spans and drives each layer's public functions on state captured
	// from that run, recording the per-layer metrics.
	Layers(tr *tracer, root int, m *metricSet, seed int64) error
	// Close releases what the last Setup left running.
	Close()
}

// newWorkload returns the named workload at the given sizes; tmpDir is
// where it may keep files while it runs.
func newWorkload(name string, sz sizes, tmpDir string) (workload, error) {
	switch name {
	case "ingest-mixed":
		return &ingestMixed{sz: sz}, nil
	case "batch-k16":
		return newBatch(sz, sz.k16Docs, 16, sz.k16Rounds), nil
	case "batch-k128":
		return newBatch(sz, sz.k128Docs, sz.k128K, sz.k128Rounds), nil
	case "collab-tcp3":
		return &collabTCP3{sz: sz, tmpDir: tmpDir}, nil
	case "serve-mixed":
		return &serveMixed{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"ingest-mixed", "batch-k16", "batch-k128", "collab-tcp3", "serve-mixed"}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// subSeed derives the seed of iteration i. Every iteration runs on inputs
// of its own, so that the medians a run reports average over inputs and
// stay steady from one -seed to the next.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// minIterations is how many timed iterations a run makes even when the
// first ones already used up -seconds.
const minIterations = 3

// sample is what one iteration contributes to the medians.
type sample struct {
	setup, job time.Duration
	allocMB    float64
	scale      float64 // machine-speed factor measured right before the job
}

// runPlain measures the end-to-end metrics with tracing off: one untimed
// warm-up iteration with the full output checks, then timed iterations
// until seconds have passed. The first timed iteration repeats the
// warm-up's sub-seed and must reproduce its digest. Reported times are
// wall times scaled to the reference machine speed (see calibrate.go).
func runPlain(w workload, seed int64, seconds float64, log io.Writer) (result, error) {
	defer w.Close()
	var res result
	count := func(ops, failed int) {
		res.Attempted += ops
		res.Failed += failed
	}
	cal := newCalibration()
	iterate := func(i int, full bool) (sample, error) {
		var s sample
		t0 := time.Now()
		if err := w.Setup(subSeed(seed, i)); err != nil {
			return s, fmt.Errorf("set-up of iteration %d: %w", i, err)
		}
		s.setup = time.Since(t0)
		runtime.GC() // every job starts from a collected heap
		s.scale = cal.scale()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 = time.Now()
		ops, failed, err := w.Job()
		s.job = time.Since(t0)
		runtime.ReadMemStats(&after)
		s.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		if err != nil {
			fmt.Fprintf(log, "iteration %d: job failed: %v\n", i, err)
			count(max(ops, 1), max(ops, 1))
			return s, nil
		}
		count(ops+1, failed) // the job's operations and its output check
		if err := w.Check(full); err != nil {
			fmt.Fprintf(log, "iteration %d: check failed: %v\n", i, err)
			count(0, 1)
		}
		return s, nil
	}

	if _, err := iterate(0, true); err != nil {
		return res, err
	}
	warm := w.Digest()

	var samples []sample
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start).Seconds() < seconds; i++ {
		s, err := iterate(i, false)
		if err != nil {
			return res, err
		}
		if i == 0 && w.Digest() != warm {
			fmt.Fprintf(log, "iteration 0: digest %016x differs from the warm-up's %016x on the same seed\n", w.Digest(), warm)
			count(0, 1)
		}
		samples = append(samples, s)
	}
	column := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	m := newMetricSet(endToEnd)
	m.set("job_s", median(column(func(s sample) float64 { return s.job.Seconds() * s.scale })))
	m.set("job_alloc_mb", median(column(func(s sample) float64 { return s.allocMB })))
	m.set("setup_s", median(column(func(s sample) float64 { return s.setup.Seconds() * s.scale })))
	raw, scales := column(func(s sample) float64 { return s.job.Seconds() }), column(func(s sample) float64 { return s.scale })
	fmt.Fprintf(log, "%d timed iterations in %.1f s; unscaled job wall time p50 %.4f s (min %.4f, max %.4f); machine-speed factor p50 %.3f (min %.3f, max %.3f)\n",
		len(samples), time.Since(start).Seconds(), median(raw), quantile(raw, 0), quantile(raw, 1),
		median(scales), quantile(scales, 0), quantile(scales, 1))
	res.Metrics = m.report()
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced makes the traced pass of one workload and writes its spans to
// outDir/trace-<name>.json.
func runTraced(w workload, name string, seed int64, outDir string, log io.Writer) (result, error) {
	defer w.Close()
	tr := newTracer(name)
	m := newMetricSet(perLayer)
	root := tr.start(0, "bench", name)
	err := w.Layers(tr, root, m, subSeed(seed, 0))
	tr.end(root)
	res := result{Attempted: 1}
	if err != nil {
		fmt.Fprintf(log, "traced pass failed: %v\n", err)
		res.Failed = 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("proc.peak_rss_mb", peakRSSMB())
	m.set("proc.num_gc", float64(ms.NumGC))
	m.set("proc.gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	path := filepath.Join(outDir, "trace-"+name+".json")
	self := tr.selfMS()
	if err := tr.write(path, self); err != nil {
		return res, err
	}
	for layer, ms := range self {
		fmt.Fprintf(log, "self time %-10s %10.1f ms\n", layer, ms)
	}
	fmt.Fprintf(log, "spans written to %s\n", path)
	res.Metrics = m.report()
	res.Correct = res.Failed == 0
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc does not provide it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(rest)), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// digestInts folds a slice of ints into a running FNV-1a hash.
func digestInts(xs []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// sameInts reports the first index at which two assignments differ, or −1.
func sameInts(a, b []int) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
