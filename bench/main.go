// Command bench is the repository's reference benchmark: five workloads
// generated from a seed, three end-to-end metrics measured with tracing
// off, and a traced run that attributes time to each layer. See README.md.
//
//	go run -C bench . -workload batch-k16 -seed 1 -seconds 15 -trace 0
//	go run -C bench .                       # all five, result file in out/
//	go run -C bench . -trace 1              # the traced run of all five
//	go run -C bench . -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	out      string
	spec     string
	compare  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run this workload only, in this process (default: all five, one process each)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated load: corpora, operation schedule and clustering seeds")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long the timed iterations of a workload run")
	fs.IntVar(&cfg.trace, "trace", 0, "1 = the traced run (per-layer metrics, span file); 0 = end-to-end metrics, tracing off")
	fs.StringVar(&cfg.scale, "scale", "full", "load sizes: full (what BENCHMARK.json is measured at) or tiny (smoke test)")
	fs.StringVar(&cfg.out, "out", "out", "directory for result and span files")
	fs.StringVar(&cfg.spec, "spec", filepath.Join("..", "BENCHMARK.json"), "the benchmark declaration -compare takes bounds from")
	fs.BoolVar(&cfg.compare, "compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case cfg.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(cfg.spec, fs.Arg(0), fs.Arg(1), stdout); err == nil && worse {
			return 1
		}
	case cfg.workload != "":
		err = runOne(cfg, stdout)
	default:
		var correct bool
		if correct, err = runAll(cfg, stdout, stderr); err == nil && !correct {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process. The last line it prints is the
// result as one JSON object.
func runOne(cfg config, stdout io.Writer) error {
	sz, ok := scales[cfg.scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", cfg.scale)
	}
	w, err := newWorkload(cfg.workload, sz, cfg.out)
	if err != nil {
		return err
	}
	var res result
	if cfg.trace != 0 {
		res, err = runTraced(w, cfg.workload, cfg.seed, cfg.out, stdout)
	} else {
		res, err = runPlain(w, cfg.seed, cfg.seconds, stdout)
	}
	if err != nil {
		return err
	}
	names := endToEnd
	if cfg.trace != 0 {
		names = perLayer
	}
	for _, d := range names {
		fmt.Fprintf(stdout, "%-14s %-36s %16.6g %s\n", cfg.workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stdout, "%-14s %-36s %16.6g\n", cfg.workload, "fail_frac", float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// env stamps a result file with the machine and build that produced it.
type env struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Trace      int     `json:"trace"`
	Date       string  `json:"date"`
}

// resultFile is what a run of all workloads writes and -compare reads.
type resultFile struct {
	Env       env               `json:"env"`
	Workloads map[string]result `json:"workloads"`
}

// runAll runs every workload in a process of its own, so that one
// workload's heap and caches do not carry into the next, and writes the
// stamped result file.
func runAll(cfg config, stdout, stderr io.Writer) (correct bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := resultFile{Env: stamp(cfg), Workloads: map[string]result{}}
	correct = true
	for _, name := range workloadNames {
		cmd := exec.Command(exe,
			"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", fmt.Sprint(cfg.trace), "-scale", cfg.scale, "-out", cfg.out)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
		if err := cmd.Run(); err != nil {
			return false, fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return false, fmt.Errorf("workload %s: result line: %w", name, err)
		}
		file.Workloads[name] = res
		correct = correct && res.Correct
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(cfg.out, "result.json")
	if cfg.trace != 0 {
		path = filepath.Join(cfg.out, "result-traced.json")
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "result file written to %s\n", path)
	return correct, nil
}

func stamp(cfg config) env {
	e := env{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
			e.Commit += "-dirty"
		}
	}
	return e
}
