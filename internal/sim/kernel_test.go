package sim

import (
	"math/rand"
	"testing"

	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// The seed (pre-kernel) oracle the property tests pin the kernel against
// lives in seed.go as SeedMatchSet/SeedTransactions — one frozen snapshot
// shared with the speedup-vs-seed baselines of
// internal/cluster/bench_test.go and cxkbench's kernel experiment.

// randomKernelCorpus builds a synthetic corpus straight from the interning
// tables: nItems items over a deliberately small path and vector vocabulary
// (so exact similarity ties — where every tied item must be marked — occur
// constantly) and nTxns random transactions over them,
// including empty and single-item ones.
func randomKernelCorpus(rng *rand.Rand, nItems, nTxns int) *txn.Corpus {
	paths := xmltree.NewPathTable()
	tags := []string{"a", "b", "c"}
	var pids []xmltree.PathID
	for _, t1 := range tags {
		for _, t2 := range tags {
			pids = append(pids, paths.Intern(xmltree.Path{"root", t1, t2, "S"}))
		}
	}
	// Four vector patterns shared across many items: identical contents at
	// identical paths intern to the same item, identical contents at
	// different paths force exact content-cosine ties.
	vecs := []map[int32]float64{
		{1: 1.0},
		{1: 0.5, 2: 0.5},
		{3: 1.0, 4: 0.25},
		{5: 0.75},
	}
	answers := []string{"x", "y", "z", "w"}
	items := txn.NewItemTable(paths)
	var ids []txn.ItemID
	for i := 0; i < nItems; i++ {
		v := rng.Intn(len(vecs))
		id := items.Intern(pids[rng.Intn(len(pids))], answers[v]+answers[rng.Intn(len(answers))])
		items.SetVector(id, vector.FromMap(vecs[v]))
		ids = append(ids, id)
	}
	trs := make([]*txn.Transaction, nTxns)
	for i := range trs {
		n := rng.Intn(9) // 0..8 items, duplicates removed by NewTransaction
		pick := make([]txn.ItemID, n)
		for j := range pick {
			pick[j] = ids[rng.Intn(len(ids))]
		}
		trs[i] = txn.NewTransaction(pick, i, 0, -1)
	}
	return &txn.Corpus{Paths: paths, Items: items, Transactions: trs}
}

// kernelParamsGrid is what every oracle-equivalence suite sweeps: the full
// f ∈ {0, 0.3, 0.5, 1} × γ ∈ {0, 0.5, 0.8, 1} product — every regime of the
// kernel's content-cosine skip, from never (γ = 0, f = 0) through most pairs
// (γ = 1) to no cosine at all (f = 1) — plus a few off-grid points.
var kernelParamsGrid = func() []Params {
	grid := []Params{
		{F: 0, Gamma: 0.9},
		{F: 0.5, Gamma: 0.4},
		{F: 1, Gamma: 0.6},
		{F: 1, Gamma: 0.999},
	}
	for _, f := range []float64{0, 0.3, 0.5, 1} {
		for _, gamma := range []float64{0, 0.5, 0.8, 1} {
			grid = append(grid, Params{F: f, Gamma: gamma})
		}
	}
	return grid
}()

// TestMatchCountEqualsMatchSet pins the count-only kernel to the
// materialized set on randomized corpora: MatchCount == len(MatchSet) ==
// len(referenceMatchSet) for every pair and every params combination, and
// Transactions agrees with the seed reference bit for bit.
func TestMatchCountEqualsMatchSet(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus := randomKernelCorpus(rng, 20+rng.Intn(40), 12)
		for _, p := range kernelParamsGrid {
			cx := NewContext(corpus, p)
			sc := NewScratch()
			for _, tr1 := range corpus.Transactions {
				for _, tr2 := range corpus.Transactions {
					ref := SeedMatchSet(cx, tr1, tr2)
					if got := cx.MatchCount(tr1, tr2, sc); got != len(ref) {
						t.Fatalf("seed %d params %+v: MatchCount = %d, reference set has %d",
							seed, p, got, len(ref))
					}
					set := cx.MatchSet(tr1, tr2)
					if len(set) != len(ref) {
						t.Fatalf("seed %d params %+v: MatchSet size %d, reference %d", seed, p, len(set), len(ref))
					}
					for id := range ref {
						if _, ok := set[id]; !ok {
							t.Fatalf("seed %d params %+v: item %d missing from MatchSet", seed, p, id)
						}
					}
					want := SeedTransactions(cx, tr1, tr2)
					if got := cx.Transactions(tr1, tr2, sc); got != want {
						t.Fatalf("seed %d params %+v: Transactions = %v, reference %v", seed, p, got, want)
					}
				}
			}
		}
	}
}

// TestGammaBoundSkipBoundary pins the content-cosine skip itself (the grid
// suites above pin that no result moves): it walks the edges on one item pair
// with simS = 0.5 exactly (two-tag paths sharing the root) and cosine 1
// (identical vectors), reading the stored Eq. 1 value out of the scratch.
func TestGammaBoundSkipBoundary(t *testing.T) {
	paths := xmltree.NewPathTable()
	items := txn.NewItemTable(paths)
	a := items.Intern(paths.Intern(xmltree.Path{"r", "a"}), "x")
	b := items.Intern(paths.Intern(xmltree.Path{"r", "b"}), "x")
	for _, id := range []txn.ItemID{a, b} {
		items.SetVector(id, vector.FromMap(map[int32]float64{1: 1}))
	}
	tr1 := txn.NewTransaction([]txn.ItemID{a}, 0, 0, -1)
	tr2 := txn.NewTransaction([]txn.ItemID{b}, 1, 0, -1)
	corpus := &txn.Corpus{Paths: paths, Items: items, Transactions: []*txn.Transaction{tr1, tr2}}
	for _, tc := range []struct {
		name            string
		f, gamma        float64
		wantSim, wantEq float64
	}{
		// Bound 0.25 + 0.5 == γ exactly: the comparison is ≥, so the cosine
		// is evaluated and the pair matches.
		{"bound equals gamma", 0.5, 0.75, 0.75, 1},
		// Bound 0.75 < γ: skipped, the structural part alone is stored.
		{"bound below gamma", 0.5, 0.8, 0.25, 0},
		// f = 1: Eq. 1 has no content term to skip or evaluate.
		{"structure only", 1, 0.5, 0.5, 1},
		// f = 0: the bound is 1, which no γ ≤ 1 exceeds — never skipped.
		{"content only", 0, 1, 1, 1},
	} {
		cx := NewContext(corpus, Params{F: tc.f, Gamma: tc.gamma})
		sc := NewScratch()
		if got := cx.Transactions(tr1, tr2, sc); got != tc.wantEq || got != SeedTransactions(cx, tr1, tr2) {
			t.Errorf("%s: Transactions = %v, want %v (oracle %v)", tc.name, got, tc.wantEq, SeedTransactions(cx, tr1, tr2))
		}
		if sc.simM[0] != tc.wantSim {
			t.Errorf("%s: stored item similarity %v, want %v", tc.name, sc.simM[0], tc.wantSim)
		}
	}
}

// TestTransactionsZeroAllocWarmScratch is the allocation-regression guard
// (run standalone in the CI lint job): with a warm caller-owned Scratch and
// a warm path cache, Transactions must perform exactly zero heap
// allocations per evaluation. MatchCount shares the kernel and is pinned
// too.
func TestTransactionsZeroAllocWarmScratch(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.6)
	trs := corpus.Transactions
	sc := NewScratch()
	// Warm the scratch buffers and the Eq. 3 pair cache.
	for _, tr1 := range trs {
		for _, tr2 := range trs {
			cx.Transactions(tr1, tr2, sc)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		cx.Transactions(trs[0], trs[1], sc)
	}); avg != 0 {
		t.Errorf("Transactions with warm scratch allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		cx.MatchCount(trs[0], trs[1], sc)
	}); avg != 0 {
		t.Errorf("MatchCount with warm scratch allocates %.2f/op, want 0", avg)
	}
}

// TestSetVectorInvalidatesWarmScratch: the kernel carries nothing from call
// to call — resolved vector headers are value copies, so an in-place
// SetVector between two calls on the same pair and the same scratch must
// show in the second, which has to match a fresh-scratch evaluation exactly.
func TestSetVectorInvalidatesWarmScratch(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.6)
	trs := corpus.Transactions
	tr1, tr2 := trs[0], trs[1]
	if tr1.Len() == 0 {
		t.Fatal("fixture transaction is empty")
	}
	sc := NewScratch()
	before := cx.Transactions(tr1, tr2, sc)
	// Redirect one of tr1's items to an orthogonal vector: cosine against
	// everything it used to resemble drops, so the pair similarity must move.
	cx.Items.SetVector(tr1.Items[0], vector.FromMap(map[int32]float64{1 << 20: 1}))
	warm := cx.Transactions(tr1, tr2, sc)
	fresh := cx.Transactions(tr1, tr2, NewScratch())
	if warm != fresh {
		t.Fatalf("warm scratch served stale vectors: warm %v, fresh %v (pre-mutation %v)",
			warm, fresh, before)
	}
}

// kernelBenchFixture prepares a mid-sized random corpus and a warmed
// context so the benchmarks measure the kernel, not first-touch cache
// fills.
func kernelBenchFixture(b *testing.B) (*Context, []*txn.Transaction) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	corpus := randomKernelCorpus(rng, 120, 32)
	cx := NewContext(corpus, Params{F: 0.5, Gamma: 0.7})
	sc := NewScratch()
	for _, tr1 := range corpus.Transactions {
		for _, tr2 := range corpus.Transactions {
			cx.Transactions(tr1, tr2, sc) // warm the path cache
		}
	}
	return cx, corpus.Transactions
}

// BenchmarkMatchKernelCold evaluates every pair with a fresh Scratch per
// evaluation — the price of first-touch buffer growth.
func BenchmarkMatchKernelCold(b *testing.B) {
	cx, trs := kernelBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr1 := trs[i%len(trs)]
		tr2 := trs[(i+7)%len(trs)]
		cx.Transactions(tr1, tr2, NewScratch())
	}
}

// BenchmarkMatchKernelWarm is the steady state: one Scratch reused across
// evaluations, 0 allocs/op.
func BenchmarkMatchKernelWarm(b *testing.B) {
	cx, trs := kernelBenchFixture(b)
	sc := NewScratch()
	cx.Transactions(trs[0], trs[1], sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr1 := trs[i%len(trs)]
		tr2 := trs[(i+7)%len(trs)]
		cx.Transactions(tr1, tr2, sc)
	}
}

// BenchmarkMatchKernelSeed is the seed implementation on the same pair
// stream — the baseline the kernel's allocs/op and ns/op are judged
// against.
func BenchmarkMatchKernelSeed(b *testing.B) {
	cx, trs := kernelBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr1 := trs[i%len(trs)]
		tr2 := trs[(i+7)%len(trs)]
		SeedTransactions(cx, tr1, tr2)
	}
}
