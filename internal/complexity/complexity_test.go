package complexity

import (
	"math"
	"strings"
	"testing"
	"time"

	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

func testModel() Model {
	return Model{
		S: 1000, K: 10, TrMax: 8, UMax: 30, H: 10,
		TMem: 2 * time.Nanosecond, TComm: 200 * time.Microsecond,
	}
}

func TestValid(t *testing.T) {
	md := testModel()
	if err := md.Valid(); err != nil {
		t.Fatal(err)
	}
	bad := md
	bad.S = 0
	if bad.Valid() == nil {
		t.Error("S=0 should be invalid")
	}
	bad = md
	bad.H = 0.5
	if bad.Valid() == nil {
		t.Error("h<1 should be invalid")
	}
	bad = md
	bad.H = 11
	if bad.Valid() == nil {
		t.Error("h>k should be invalid")
	}
	bad = md
	bad.TComm = 0
	if bad.Valid() == nil {
		t.Error("t_comm=0 should be invalid")
	}
}

// TestHyperbolicThenLinear checks the defining shape of f(m): strictly
// decreasing up to the minimizer, increasing after (Sect. 4.3.4).
func TestHyperbolicThenLinear(t *testing.T) {
	md := testModel()
	opt := md.OptimalM()
	if opt <= 1 {
		t.Fatalf("optimal m = %v, expected > 1 for this workload", opt)
	}
	for m := 1; m < int(opt); m++ {
		if md.GlobalTime(m) <= md.GlobalTime(m+1) {
			t.Errorf("f not decreasing at m=%d (< m*=%.1f)", m, opt)
		}
	}
	after := int(math.Ceil(opt)) + 1
	for m := after; m < after+10; m++ {
		if md.GlobalTime(m) >= md.GlobalTime(m+1) {
			t.Errorf("f not increasing at m=%d (> m*=%.1f)", m, opt)
		}
	}
}

// TestOptimalMIsArgmin verifies the closed-form minimizer against a grid
// search over integer m.
func TestOptimalMIsArgmin(t *testing.T) {
	md := testModel()
	best, bestM := time.Duration(math.MaxInt64), 0
	for m := 1; m <= 500; m++ {
		if d := md.GlobalTime(m); d < best {
			best, bestM = d, m
		}
	}
	opt := md.OptimalM()
	if math.Abs(float64(bestM)-opt) > 1.5 {
		t.Errorf("grid argmin %d far from closed form %.2f", bestM, opt)
	}
}

// TestOptimalMScaling checks the Sect. 4.3.4 proportionality claims: m*
// grows with |S| and shrinks as h grows.
func TestOptimalMScaling(t *testing.T) {
	md := testModel()
	bigger := md
	bigger.S *= 2
	if bigger.OptimalM() <= md.OptimalM() {
		t.Error("m* should grow with |S|")
	}
	skewed := md
	skewed.H = 1 // one dominant cluster
	if skewed.OptimalM() <= md.OptimalM() {
		t.Error("m* should grow as h decreases")
	}
}

func TestMemOpsDecreasesWithPeers(t *testing.T) {
	md := testModel()
	// Per-peer share shrinks with m; the k·m term grows but is dominated.
	m2 := md.MemOps(md.S/2, 2)
	m10 := md.MemOps(md.S/10, 10)
	if m10 >= m2 {
		t.Errorf("per-peer mem ops should shrink: m=2 %.0f vs m=10 %.0f", m2, m10)
	}
}

func TestCommOpsGrowth(t *testing.T) {
	md := testModel()
	if md.CommOps(1) != 0 {
		t.Error("m=1 must have zero communication")
	}
	// (m−1)/m is increasing in m.
	prev := 0.0
	for m := 2; m <= 20; m++ {
		c := md.CommOps(m)
		if c <= prev {
			t.Errorf("comm ops not increasing at m=%d", m)
		}
		prev = c
	}
}

func TestFitRecoversConstants(t *testing.T) {
	md := testModel()
	want := md
	t1, t2 := md.GlobalTime(2), md.GlobalTime(8)
	md.TMem, md.TComm = time.Nanosecond, time.Nanosecond // scramble
	if err := md.Fit(2, t1, 8, t2); err != nil {
		t.Fatal(err)
	}
	if relDiff(md.TMem.Seconds(), want.TMem.Seconds()) > 0.05 {
		t.Errorf("t_mem fit %v, want %v", md.TMem, want.TMem)
	}
	if relDiff(md.TComm.Seconds(), want.TComm.Seconds()) > 0.05 {
		t.Errorf("t_comm fit %v, want %v", md.TComm, want.TComm)
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	md := testModel()
	if err := md.Fit(5, time.Second, 2, time.Second); err == nil {
		t.Error("m1 ≥ m2 should fail")
	}
	// Increasing-then-decreasing measurements can't come from A/m + B(m−1)
	// with positive A,B.
	if err := md.Fit(2, time.Millisecond, 8, time.Microsecond); err == nil {
		t.Error("inconsistent measurements should fail")
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestFromCorpus(t *testing.T) {
	docs := []string{
		`<r><a>alpha beta gamma</a><b>delta</b></r>`,
		`<r><a>epsilon zeta</a><b>eta theta iota</b><c>kappa</c></r>`,
	}
	var trees []*xmltree.Tree
	for _, d := range docs {
		tr, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	corpus := txn.Build(trees, txn.BuildOptions{})
	weighting.Apply(corpus)
	md := FromCorpus(corpus, 2)
	if err := md.Valid(); err != nil {
		t.Fatal(err)
	}
	if md.S != 2 || md.TrMax != 3 {
		t.Errorf("workload constants: %+v", md)
	}
	if md.UMax == 0 {
		t.Error("umax should be positive after weighting")
	}
}

func TestCurveAndWrite(t *testing.T) {
	md := testModel()
	ms := []int{1, 3, 5}
	curve := md.Curve(ms)
	if len(curve) != 3 {
		t.Fatalf("curve points = %d", len(curve))
	}
	var sb strings.Builder
	md.Write(&sb, ms)
	for _, frag := range []string{"cost model", "f(m)", "optimal"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("Write missing %q", frag)
		}
	}
}

func TestGlobalTimeEdge(t *testing.T) {
	md := testModel()
	if md.GlobalTime(0) != 0 {
		t.Error("m=0 should be 0")
	}
	if md.GlobalTime(1) <= 0 {
		t.Error("m=1 should be positive")
	}
}
