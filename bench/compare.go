package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json, the declaration of the
// benchmark, that the program reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for every workload × end-to-end metric, the value in
// each result file, their ratio (b over a, a being the base) and the
// verdict against the metric's bound. It reports whether anything got
// worse: a metric beyond its bound, or a higher share of failed operations.
func compareFiles(specPath, aPath, bPath string, out io.Writer) (worse bool, err error) {
	var spec benchmarkSpec
	var a, b resultFile
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a (base) = %s  commit %s  seed %d\nb        = %s  commit %s  seed %d\n",
		aPath, a.Env.Commit, a.Env.Seed, bPath, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(out, "%-14s %-14s %14s %14s %10s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, w := range spec.Workloads {
		ra, okA := a.Workloads[w.Name]
		rb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			return false, fmt.Errorf("workload %s is missing from a result file", w.Name)
		}
		for _, sm := range spec.EndToEnd {
			va, vb := ra.Metrics[sm.Name].Value, rb.Metrics[sm.Name].Value
			if va == 0 {
				return false, fmt.Errorf("%s %s is 0 in %s", w.Name, sm.Name, aPath)
			}
			ratio := vb / va
			// change > 0 means b is worse than a by that share of a.
			change := ratio - 1
			if sm.Better == "higher" {
				change = -change
			}
			verdict := "within"
			switch {
			case change > sm.Bound:
				verdict, worse = "worse", true
			case change < -sm.Bound:
				verdict = "better"
			}
			fmt.Fprintf(out, "%-14s %-14s %14.6g %14.6g %10.4f %7.2f  %s\n", w.Name, sm.Name, va, vb, ratio, sm.Bound, verdict)
		}
		fa, fb := float64(ra.Failed)/float64(ra.Attempted), float64(rb.Failed)/float64(rb.Attempted)
		verdict := "within"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(out, "%-14s %-14s %14.6g %14.6g %10s %7s  %s\n", w.Name, "fail_frac", fa, fb, "", "0", verdict)
	}
	return worse, nil
}
