package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one workload at the tiny scale and returns what it printed
// and the result on its last line.
func runTiny(t *testing.T, workload, trace, out string) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace, "-scale", "tiny", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit code %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line is not a result: %v\n%s", workload, trace, err, lines[len(lines)-1])
	}
	return stdout.String(), res
}

// checkMetrics holds a run's metrics to the declaration: every declared
// metric once, nothing else, the declared unit, a well-formed name.
func checkMetrics(t *testing.T, label, printed string, res result, declared []specMetric) {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(res.Metrics) != len(declared) {
		t.Errorf("%s: %d metrics reported, %d declared", label, len(res.Metrics), len(declared))
	}
	for _, d := range declared {
		got, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s is not reported", label, d.Name)
		case got.Unit != d.Unit:
			t.Errorf("%s: %s reported in %q, declared in %q", label, d.Name, got.Unit, d.Unit)
		}
		if !name.MatchString(d.Name) {
			t.Errorf("%s: malformed metric name %q", label, d.Name)
		}
		if n := strings.Count(printed, " "+d.Name+" "); n != 1 {
			t.Errorf("%s: %s printed by name %d times, want once", label, d.Name, n)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", label, res.Correct, res.Attempted, res.Failed, printed)
	}
}

func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is declared as %s and implemented as %s", i, w.Name, workloadNames[i])
		}
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			printed, res := runTiny(t, w.Name, "0", out)
			checkMetrics(t, "plain", printed, res, spec.EndToEnd)
			for _, d := range spec.EndToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v", d.Name, res.Metrics[d.Name].Value)
				}
			}

			printed, res = runTiny(t, w.Name, "1", out)
			checkMetrics(t, "traced", printed, res, spec.PerLayer)
			var trace struct {
				Spans []span `json:"spans"`
			}
			if err := readJSON(filepath.Join(out, "trace-"+w.Name+".json"), &trace); err != nil {
				t.Fatal(err)
			}
			if len(trace.Spans) == 0 {
				t.Fatal("the trace holds no spans")
			}
			ids := map[int]bool{}
			for _, s := range trace.Spans {
				ids[s.ID] = true
			}
			for _, s := range trace.Spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Errorf("span %d (%s %s) names the missing parent %d", s.ID, s.Layer, s.Name, s.Parent)
				}
				if s.EndNS < s.StartNS || s.Workload != w.Name {
					t.Errorf("span %d (%s %s): start %d end %d workload %q", s.ID, s.Layer, s.Name, s.StartNS, s.EndNS, s.Workload)
				}
			}
		})
	}
}

// TestTablesMatchSpec holds the program's metric tables and BENCHMARK.json
// to each other, in order.
func TestTablesMatchSpec(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		label    string
		table    []metricDef
		declared []specMetric
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.table) != len(c.declared) {
			t.Fatalf("%s: %d metrics in the program, %d declared", c.label, len(c.table), len(c.declared))
		}
		for i, d := range c.table {
			if d.name != c.declared[i].Name || d.unit != c.declared[i].Unit {
				t.Errorf("%s[%d]: the program has %s (%s), the declaration %s (%s)", c.label, i, d.name, d.unit, c.declared[i].Name, c.declared[i].Unit)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	spec := readSpec(t)
	dir := t.TempDir()
	write := func(name string, scale float64, failed int) string {
		file := resultFile{Workloads: map[string]result{}}
		for _, w := range spec.Workloads {
			m := map[string]metricValue{}
			for _, d := range spec.EndToEnd {
				m[d.Name] = metricValue{Value: 2 * scale, Unit: d.Unit}
			}
			file.Workloads[w.Name] = result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: m}
		}
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, 0)
	for _, c := range []struct {
		name      string
		scale     float64
		failed    int
		wantWorse bool
		wantWord  string
	}{
		{"same.json", 1.01, 0, false, "within"},
		{"slower.json", 1.5, 0, true, "worse"},
		{"faster.json", 0.5, 0, false, "better"},
		{"failing.json", 1, 1, true, "worse"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(specPath, base, write(c.name, c.scale, c.failed), &out)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse || !strings.Contains(out.String(), c.wantWord) {
			t.Errorf("%s: worse=%v, want %v and the verdict %q in\n%s", c.name, worse, c.wantWorse, c.wantWord, out.String())
		}
	}
}

// TestSelfTime checks that overlapping children are not subtracted twice.
func TestSelfTime(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{ID: 1, Layer: "outer", StartNS: 0, EndNS: 10e6},
		{ID: 2, Parent: 1, Layer: "inner", StartNS: 1e6, EndNS: 5e6},
		{ID: 3, Parent: 1, Layer: "inner", StartNS: 3e6, EndNS: 7e6}, // overlaps span 2
	}
	self := tr.selfMS()
	if self["outer"] != 4 || self["inner"] != 8 {
		t.Errorf("self times %v, want outer 4 ms (10 minus the 6 covered) and inner 8 ms", self)
	}
}
