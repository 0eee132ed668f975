package experiments

import (
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
		TableMs:   []int{1, 3},
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

func TestAccuracyTableDriver(t *testing.T) {
	res, err := AccuracyTable(StructureDriven, false, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// 3 datasets × 2 network sizes.
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.F < 0 || r.F > 1 {
			t.Errorf("%s m=%d F=%v", r.Dataset, r.M, r.F)
		}
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "Table 1") {
		t.Errorf("missing header:\n%s", sb.String())
	}
	loss := res.CentralizedLoss(3)
	if len(loss) != 3 {
		t.Errorf("loss entries = %d", len(loss))
	}
}

func TestAccuracyTableUnequal(t *testing.T) {
	res, err := AccuracyTable(HybridDriven, true, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "Table 2") {
		t.Errorf("missing Table 2 header")
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

func TestGammaSweepDriver(t *testing.T) {
	pts, err := GammaSweep("DBLP", dataset.ByHybrid, 0.5, []float64{0.6, 0.8}, tinyScale(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var sb strings.Builder
	WriteGammaSweep(&sb, "DBLP", pts)
	if !strings.Contains(sb.String(), "γ") {
		t.Error("sweep output missing header")
	}
}

func TestReturnRuleAblationDriver(t *testing.T) {
	pts, err := ReturnRuleAblation("DBLP", dataset.ByHybrid, tinyScale(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("rules = %d", len(pts))
	}
	var sb strings.Builder
	WriteRuleAblation(&sb, "DBLP", pts)
	if !strings.Contains(sb.String(), "return rule") {
		t.Error("ablation output missing header")
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

func TestTableDatasets(t *testing.T) {
	if got := TableDatasets(dataset.ByContent); len(got) != 4 {
		t.Errorf("content datasets = %v", got)
	}
	if got := TableDatasets(dataset.ByHybrid); len(got) != 3 {
		t.Errorf("hybrid datasets = %v (Wikipedia has no structural variety)", got)
	}
}

func TestCorpusCacheReuse(t *testing.T) {
	ClearCorpusCache()
	spec := RunSpec{
		Dataset: "DBLP", Kind: dataset.ByHybrid, F: 0.5, Gamma: 0.8,
		Peers: 1, Docs: 48, MaxTuples: 16, Seed: 1,
	}
	if _, err := Execute(spec); err != nil {
		t.Fatal(err)
	}
	corpusMu.Lock()
	n := len(corpusCache)
	corpusMu.Unlock()
	if n != 1 {
		t.Fatalf("cache entries = %d", n)
	}
	spec.Seed = 2
	if _, err := Execute(spec); err != nil {
		t.Fatal(err)
	}
	corpusMu.Lock()
	n2 := len(corpusCache)
	corpusMu.Unlock()
	if n2 != 1 {
		t.Errorf("seed change should reuse corpus, entries = %d", n2)
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

func TestSemanticsAblationDriver(t *testing.T) {
	pts, err := SemanticsAblation(tinyScale(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.F < 0 || p.F > 1 {
			t.Errorf("%s F = %v", p.Matcher, p.F)
		}
	}
	// Semantic matching must not hurt on the two-dialect corpus.
	if pts[2].F+1e-9 < pts[0].F {
		t.Errorf("chain F=%.3f worse than exact F=%.3f", pts[2].F, pts[0].F)
	}
	var sb strings.Builder
	WriteSemanticsAblation(&sb, pts)
	if !strings.Contains(sb.String(), "semantic") {
		t.Errorf("output:\n%s", sb.String())
	}
}
