package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"xmlclust/internal/complexity"
	"xmlclust/internal/dataset"
)

// tinyScale keeps experiment-driver tests in the seconds range.
func tinyScale() Scale {
	return Scale{
		Name: "tiny",
		Docs: map[string]int{
			"DBLP": 48, "IEEE": 14, "Shakespeare": 4, "Wikipedia": 42,
		},
		MaxTuples: 16,
		FigMs:     []int{1, 3},
		Seeds:     []int64{17},
	}
}

func TestExecuteBasics(t *testing.T) {
	r, err := Execute(RunSpec{
		Dataset: "DBLP", Kind: dataset.ByHybrid, F: 0.5, Gamma: 0.8,
		Peers: 1, Docs: 48, MaxTuples: 16, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.F <= 0 || r.F > 1 {
		t.Errorf("F = %v", r.F)
	}
	if r.Rounds == 0 || r.Txns == 0 || r.K != 16 {
		t.Errorf("result = %+v", r)
	}
	if r.SimTime <= 0 || r.Compute <= 0 {
		t.Errorf("times = %v %v", r.SimTime, r.Compute)
	}
	if r.ItemSims == 0 || r.TxnSims == 0 {
		t.Error("similarity counters empty")
	}
}

// TestExecuteCapped checks that Execute copies core's Capped verdict into
// its run: a run forced to a round cap of 1 is capped, and a converged run
// is not. Which runs core calls capped is TestRunCapped's concern.
func TestExecuteCapped(t *testing.T) {
	spec := RunSpec{
		Dataset: "DBLP", Kind: dataset.ByHybrid, F: 0.5, Gamma: 0.8,
		Peers: 3, Docs: 48, MaxTuples: 16, Seed: 17, maxRounds: 1,
	}
	r, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds != 1 || r.Capped != 1 || r.Runs != 1 {
		t.Errorf("run under a cap of 1: rounds %d, capped %d of %d", r.Rounds, r.Capped, r.Runs)
	}
	spec.Peers, spec.maxRounds = 1, 0
	if r, err = Execute(spec); err != nil {
		t.Fatal(err)
	}
	if r.Capped != 0 || r.Runs != 1 {
		t.Errorf("converged run: rounds %d, capped %d of %d; want 0 of 1", r.Rounds, r.Capped, r.Runs)
	}
}

func TestExecuteUnknownDataset(t *testing.T) {
	if _, err := Execute(RunSpec{Dataset: "nope"}); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestExecuteKOverride(t *testing.T) {
	r, err := Execute(RunSpec{
		Dataset: "DBLP", Kind: dataset.ByContent, F: 0.2, Gamma: 0.6,
		K: 3, Peers: 1, Docs: 48, MaxTuples: 16, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 3 {
		t.Errorf("K = %d, want 3", r.K)
	}
}

func TestAverageF(t *testing.T) {
	spec := RunSpec{
		Dataset: "DBLP", Kind: dataset.ByHybrid, Gamma: 0.8,
		Peers: 1, Docs: 48, MaxTuples: 16,
	}
	r, err := AverageF(spec, []float64{0.4, 0.6}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.F <= 0 || r.F > 1 {
		t.Errorf("avg F = %v", r.F)
	}
	if _, err := AverageF(spec, nil, []int64{1}); err == nil {
		t.Error("empty f list should fail")
	}
}

// TestAverageFRange: a two-seed cell's F and trash fraction are the means
// of its runs'.
func TestAverageFRange(t *testing.T) {
	spec := RunSpec{
		Dataset: "DBLP", Kind: dataset.ByHybrid, F: 0.5, Gamma: 0.8,
		Peers: 3, Docs: 48, MaxTuples: 16,
	}
	var runs []RunResult
	for _, seed := range []int64{1, 2} {
		spec.Seed = seed
		r, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	agg, err := AverageF(spec, []float64{0.5}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if f, trash := (runs[0].F+runs[1].F)*0.5, (runs[0].Trash+runs[1].Trash)*0.5; agg.F != f || agg.Trash != trash || agg.Runs != 2 {
		t.Errorf("cell F %v, trash %v over %d runs; the runs have F %v, %v and trash %v, %v",
			agg.F, agg.Trash, agg.Runs, runs[0].F, runs[1].F, runs[0].Trash, runs[1].Trash)
	}
}

// TestFloors pins both floors on six labelled transactions, four of class 0
// and two of class 1, at k = 2. Seed 3 draws clusters 0 1 0 0 1 1, so
// cluster 0 holds three of class 0 and cluster 1 one of class 0 and both of
// class 1: class 0 scores F = 2·1·¾/(1+¾) = 6/7 on cluster 0, class 1
// scores 2·⅔·1/(⅔+1) = 4/5 on cluster 1, and the floor is
// (4·6/7 + 2·4/5)/6 = 88/105. In the single cluster class 0 scores
// 2·⅔/(⅔+1) = 4/5 and class 1 2·⅓/(⅓+1) = 1/2, so that floor is
// (4·4/5 + 2·1/2)/6 = 7/10.
func TestFloors(t *testing.T) {
	random, single := floors([]int{0, 0, 0, 0, 1, 1}, 2, 3)
	if math.Abs(random-88.0/105) > 1e-12 || math.Abs(single-0.7) > 1e-12 {
		t.Errorf("floors F random %v, single %v; want 88/105 = %v and 0.7", random, single, 88.0/105)
	}
	spec := RunSpec{Dataset: "DBLP", Kind: dataset.ByHybrid, F: 0.5, Gamma: 0.8, Peers: 1, Docs: 48, MaxTuples: 16, Seed: 1}
	r, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.FRandom <= 0 || r.FRandom >= 1 || r.FSingle <= 0 || r.FSingle >= 1 {
		t.Errorf("run floors F random %v, single %v outside (0, 1)", r.FRandom, r.FSingle)
	}
}

func TestFig7Driver(t *testing.T) {
	res, err := Fig7("DBLP", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Full.Points) != 2 || len(res.Half.Points) != 2 {
		t.Fatalf("points = %d/%d", len(res.Full.Points), len(res.Half.Points))
	}
	for _, p := range res.Full.Points {
		if p.SimTime <= 0 {
			t.Errorf("m=%d no simulated time", p.M)
		}
	}
	var sb strings.Builder
	res.Write(&sb)
	out := sb.String()
	for _, frag := range []string{"Fig. 7", "DBLP", "saturation"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	if m := res.Full.SaturationM(0.15); m != 1 && m != 3 {
		t.Errorf("saturation m = %d", m)
	}
}

func TestFig8Driver(t *testing.T) {
	res, err := Fig8("DBLP", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.CXKTime <= 0 || p.PKTime <= 0 {
			t.Errorf("m=%d times %v/%v", p.M, p.CXKTime, p.PKTime)
		}
		if p.M > 1 && (p.CXKBytes == 0 || p.PKBytes == 0) {
			t.Errorf("m=%d bytes %d/%d", p.M, p.CXKBytes, p.PKBytes)
		}
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "PK-means") && !strings.Contains(sb.String(), "PK time") {
		t.Errorf("fig8 output:\n%s", sb.String())
	}
}

func TestPathCacheAblationDriver(t *testing.T) {
	pts, err := PathCacheAblation("DBLP", tinyScale(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var sb strings.Builder
	WriteCacheAblation(&sb, "DBLP", pts)
	if !strings.Contains(sb.String(), "cache") {
		t.Error("cache output missing header")
	}
}

func TestBestGammaDefaults(t *testing.T) {
	for _, ds := range dataset.Names() {
		for _, kind := range []dataset.ClassKind{dataset.ByContent, dataset.ByHybrid, dataset.ByStructure} {
			g := BestGamma(ds, kind)
			if g < 0.5 || g > 0.95 {
				t.Errorf("BestGamma(%s,%v) = %v", ds, kind, g)
			}
		}
	}
}

func TestScales(t *testing.T) {
	for _, s := range []Scale{QuickScale(), PaperScale()} {
		for _, ds := range dataset.Names() {
			if s.Docs[ds] <= 0 {
				t.Errorf("%s scale missing %s", s.Name, ds)
			}
			if s.HalfDocs(ds) >= s.Docs[ds] && s.Docs[ds] > 1 {
				t.Errorf("%s half ≥ full for %s", s.Name, ds)
			}
		}
		if len(s.FigMs) == 0 || len(s.TableMs) == 0 || len(s.Seeds) == 0 {
			t.Errorf("%s scale degenerate", s.Name)
		}
	}
}

// TestTableFs: the quick profile averages each setting's one sampled f
// (so its tables stay as they were), and only PaperScale widens the sweep
// to three f values inside the setting's sub-range of the paper.
func TestTableFs(t *testing.T) {
	ranges := []struct {
		s      Setting
		lo, hi float64
	}{{ContentDriven, 0, 0.3}, {HybridDriven, 0.4, 0.6}, {StructureDriven, 0.7, 1}}
	for _, r := range ranges {
		if got := QuickScale().tableFs(r.s); fmt.Sprint(got) != fmt.Sprint(r.s.Fs) {
			t.Errorf("quick %s: fs = %v, want %v", r.s.Name, got, r.s.Fs)
		}
		got := PaperScale().tableFs(r.s)
		if len(got) != 3 {
			t.Errorf("paper %s: fs = %v, want three values", r.s.Name, got)
		}
		for i, f := range got {
			if f < r.lo || f > r.hi || (i > 0 && f <= got[i-1]) {
				t.Errorf("paper %s: fs = %v, not increasing inside [%v, %v]", r.s.Name, got, r.lo, r.hi)
			}
		}
	}
}

func TestTableDatasets(t *testing.T) {
	if got := TableDatasets(dataset.ByContent); len(got) != 4 {
		t.Errorf("content datasets = %v", got)
	}
	if got := TableDatasets(dataset.ByHybrid); len(got) != 3 {
		t.Errorf("hybrid datasets = %v (Wikipedia has no structural variety)", got)
	}
}

// TestCorpusCacheReuse: runs that differ only in what they do with a corpus
// share the prepared one, and no run leaves anything in it — CXK and PK, one
// and three peers, either engine: its item table and its saved bytes are as
// they were.
func TestCorpusCacheReuse(t *testing.T) {
	spec := RunSpec{
		Dataset: "DBLP", Kind: dataset.ByHybrid, F: 0.5, Gamma: 0.8,
		Peers: 1, Docs: 48, MaxTuples: 16, Seed: 1,
	}
	pc, err := prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	items := pc.corpus.Items.Len()
	var before, after bytes.Buffer
	if err := pc.corpus.Save(&before); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{CXK, PK} {
		for _, m := range []int{1, 3} {
			for _, fast := range []bool{false, true} {
				spec.Algorithm, spec.Peers, spec.fast, spec.Seed = alg, m, fast, spec.Seed+1
				if _, err := Execute(spec); err != nil {
					t.Fatal(err)
				}
				if again, _ := prepare(spec); again != pc {
					t.Fatalf("%v m=%d: the run did not reuse the cached corpus", alg, m)
				}
				if n := pc.corpus.Items.Len(); n != items {
					t.Errorf("%v m=%d fast=%v: the cached corpus's item table grew %d → %d", alg, m, fast, items, n)
				}
			}
		}
	}
	if err := pc.corpus.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("the runs changed the cached corpus's saved bytes")
	}
}

func TestCostModelDriver(t *testing.T) {
	res, err := CostModel("DBLP", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Measured <= 0 || p.Predicted <= 0 {
			t.Errorf("m=%d measured=%v predicted=%v", p.M, p.Measured, p.Predicted)
		}
	}
	if res.OptimalM <= 0 {
		t.Errorf("optimal m = %v", res.OptimalM)
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "cost-model") {
		t.Errorf("output:\n%s", sb.String())
	}
}

// TestCostModelReportsFailedFit: measurements that rise with m cannot come
// from A/m + B(m−1) with positive A and B, so the fit fails. The result
// carries the error, predicts with the default t_mem and t_comm, and Write
// says so instead of printing a silent curve.
func TestCostModelReportsFailedFit(t *testing.T) {
	md := complexity.Model{S: 1000, K: 10, TrMax: 8, UMax: 30, H: 10, TMem: 2 * time.Nanosecond, TComm: 200 * time.Microsecond}
	res := calibrate("DBLP", md, []CostModelPoint{{M: 2, Measured: time.Microsecond}, {M: 8, Measured: time.Millisecond}})
	if res.FitErr == nil {
		t.Fatal("a non-hyperbolic pair of points fitted")
	}
	if res.Model.TMem != md.TMem || res.Model.TComm != md.TComm {
		t.Errorf("failed fit moved the constants: t_mem %v t_comm %v", res.Model.TMem, res.Model.TComm)
	}
	for _, p := range res.Points {
		if want := md.GlobalTime(p.M); p.Predicted != want {
			t.Errorf("m=%d predicted %v, default model says %v", p.M, p.Predicted, want)
		}
	}
	var sb strings.Builder
	res.Write(&sb)
	if want := "fit failed: " + res.FitErr.Error() + "; default t_mem/t_comm used"; !strings.Contains(sb.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, sb.String())
	}
}

// readLedger reads the committed FIDELITY.json.
func readLedger(t *testing.T) *Ledger {
	t.Helper()
	raw, err := os.ReadFile("../../FIDELITY.json")
	if err != nil {
		t.Fatal(err)
	}
	var l Ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatal(err)
	}
	return &l
}

// TestFidelityLedgerRegenerates checks the committed FIDELITY.json against
// the ledger's plan at QuickScale. Every section holds the planned cells in
// order, each with a run per f and seed, and each cell's summary is the one
// its runs give. Table 1 on DBLP and Shakespeare at m ∈ {1, 3}, their
// content controls, and the last cell of every later section are rerun,
// side by side, over the first two seeds: every run must equal the
// committed run of the same cell and seed, on either engine. The whole
// ledger is regenerated on both engines and diffed in CI (cxkbench -exp
// fidelity).
func TestFidelityLedgerRegenerates(t *testing.T) {
	committed := readLedger(t)
	if !slices.Equal(committed.Seeds, FidelitySeeds) || committed.Scale != QuickScale().Name {
		t.Fatalf("ledger of scale %q, seeds %v; want %q, %v", committed.Scale, committed.Seeds, QuickScale().Name, FidelitySeeds)
	}
	names := []string{"cells", "control_content", "cells_unequal", "gamma", "rules", "control_f"}
	sections := committed.sections()
	next := make([]int, len(sections))
	type rerun struct {
		key  string
		p    plannedCell
		want LedgerCell
	}
	var reruns []rerun
	for _, p := range ledgerPlan(QuickScale()) {
		i := next[p.section]
		next[p.section]++
		key := fmt.Sprintf("%s[%d] %s/%s m=%d f=%v γ=%v %s", names[p.section], i, p.id.Setting, p.id.Dataset, p.id.M, p.fs, p.spec.Gamma, p.id.Rule)
		if i >= len(*sections[p.section]) {
			t.Errorf("%s is not in the committed ledger", key)
			continue
		}
		want := (*sections[p.section])[i]
		if summary := summarize(p.id, want.Runs); !reflect.DeepEqual(summary, want) {
			t.Errorf("%s: committed\n%+v\nbut the plan and the cell's runs give\n%+v", key, want, summary)
		}
		for j, r := range want.Runs {
			if j >= len(p.fs)*len(FidelitySeeds) || r.FKnob != p.fs[j/len(FidelitySeeds)] || r.Seed != FidelitySeeds[j%len(FidelitySeeds)] {
				t.Errorf("%s: run %d has f %v and seed %d; the plan runs f %v × seeds %v", key, j, r.FKnob, r.Seed, p.fs, FidelitySeeds)
			}
		}
		table1 := p.section <= sectionContentControl && (p.id.Dataset == "DBLP" || p.id.Dataset == "Shakespeare") && p.id.M <= 3
		if table1 || (p.section > sectionContentControl && i == len(*sections[p.section])-1) {
			reruns = append(reruns, rerun{key, p, want})
		}
	}
	for k, s := range sections {
		if next[k] != len(*s) {
			t.Errorf("%s: %d cells committed, %d planned", names[k], len(*s), next[k])
		}
	}
	if len(reruns) != 18 {
		t.Errorf("%d cells to rerun, want 12 of Table 1, 2 content controls and the last of 4 sections", len(reruns))
	}
	seeds := FidelitySeeds[:2]
	// The reference engine's reruns, then the fast engine's.
	for _, engine := range []struct {
		name string
		fast bool
	}{{"rerun", false}, {"rerun-fast", true}} {
		fast := engine.fast
		t.Run(engine.name, func(t *testing.T) {
			for _, r := range reruns {
				t.Run(r.key, func(t *testing.T) {
					t.Parallel()
					r.p.spec.fast = fast
					got, err := r.p.run(seeds)
					if err != nil {
						t.Fatal(err)
					}
					var runs []LedgerRun
					for _, run := range r.want.Runs {
						if slices.Contains(seeds, run.Seed) {
							runs = append(runs, run)
						}
					}
					if !reflect.DeepEqual(got.Runs, runs) {
						t.Errorf("runs\n%+v\nwant the committed\n%+v", got.Runs, runs)
					}
				})
			}
		})
	}
}

// TestLedgerOrdering reads the committed ledger as a typology is validated
// (Despeyroux et al.): not by its values but by their order on each label
// kind, on cell means of F at m = 1.
//   - structure labels: structure only (f = 1) beats content through tuples
//     (f = 0). It does not beat the setting's f = 0.85 on DBLP, so the
//     ordering is asserted against f = 0 alone;
//   - hybrid labels: the setting's f = 0.5 beats both f = 0 and f = 1;
//   - content labels: control (a), content only, is at least the CXK-means
//     cell;
//   - every Table 1 cell, at every m, scores above both floors.
//
// exceptions lists the orderings the committed ledger breaks. Each must
// still break, so that one which comes to hold is taken off the list.
func TestLedgerOrdering(t *testing.T) {
	l := readLedger(t)
	f := map[string]float64{}
	for _, c := range l.Cells {
		if c.M == 1 {
			f[c.Setting+"/"+c.Dataset] = c.F.Mean
		}
	}
	for _, c := range l.FControl {
		f[fmt.Sprintf("%s/%s f=%g", c.Setting, c.Dataset, c.Runs[0].FKnob)] = c.F.Mean
	}
	for _, c := range l.ContentControl {
		f["control/"+c.Dataset] = c.F.Mean
	}
	exceptions := map[string]bool{
		"hybrid/Shakespeare > hybrid/Shakespeare f=0": true, // 0.881 against 0.882
	}
	check := func(hi, op, lo string) {
		a, okA := f[hi]
		b, okB := f[lo]
		if !okA || !okB {
			t.Errorf("%s or %s is not in the ledger", hi, lo)
			return
		}
		name := hi + " " + op + " " + lo
		holds := a > b || (op == ">=" && a == b)
		if holds == exceptions[name] {
			t.Errorf("%s: %.3f against %.3f; listed as an exception: %v", name, a, b, exceptions[name])
		}
	}
	for _, ds := range TableDatasets(dataset.ByStructure) {
		check("structure/"+ds+" f=1", ">", "structure/"+ds+" f=0")
		check("hybrid/"+ds, ">", "hybrid/"+ds+" f=0")
		check("hybrid/"+ds, ">", "hybrid/"+ds+" f=1")
	}
	for _, ds := range TableDatasets(dataset.ByContent) {
		check("control/"+ds, ">=", "content/"+ds)
	}
	for _, c := range l.Cells {
		if c.F.Mean <= c.FRandom || c.F.Mean <= c.FSingle {
			t.Errorf("%s %s m=%d: F %.3f is not above the floors %.3f (random) and %.3f (single cluster)",
				c.Setting, c.Dataset, c.M, c.F.Mean, c.FRandom, c.FSingle)
		}
	}
}
