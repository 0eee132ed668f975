package sim

import (
	"math/rand"
	"testing"

	"xmlclust/internal/vector"
)

// TestColumnarPathEquivalence pins the contiguous-scan (SoA) kernel path to
// the seed oracle on randomized corpora: after RebuildColumnar attaches
// spans, every pair and every params combination must still reproduce
// SeedMatchSet/SeedTransactions bit for bit, and the ColumnarResolves
// counter must prove the columnar path — not the fallback — was taken.
func TestColumnarPathEquivalence(t *testing.T) {
	for seed := int64(21); seed <= 26; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus := randomKernelCorpus(rng, 20+rng.Intn(40), 12)
		corpus.RebuildColumnar()
		if corpus.Columnar().NumSpans() != len(corpus.Transactions) {
			t.Fatalf("seed %d: %d spans for %d transactions",
				seed, corpus.Columnar().NumSpans(), len(corpus.Transactions))
		}
		for _, p := range kernelParamsGrid {
			cx := NewContext(corpus, p)
			sc := NewScratch()
			before := cx.Counters.ColumnarResolves.Load()
			for _, tr1 := range corpus.Transactions {
				for _, tr2 := range corpus.Transactions {
					ref := SeedMatchSet(cx, tr1, tr2)
					if got := cx.MatchCount(tr1, tr2, sc); got != len(ref) {
						t.Fatalf("seed %d params %+v: columnar MatchCount = %d, seed set has %d",
							seed, p, got, len(ref))
					}
					want := SeedTransactions(cx, tr1, tr2)
					if got := cx.Transactions(tr1, tr2, sc); got != want {
						t.Fatalf("seed %d params %+v: columnar Transactions = %v, seed %v",
							seed, p, got, want)
					}
				}
			}
			if cx.Counters.ColumnarResolves.Load() == before {
				t.Fatalf("seed %d params %+v: ColumnarResolves never advanced — kernel took the fallback path", seed, p)
			}
		}
	}
}

// TestColumnarMatchesFallback builds the same random corpus twice — one
// with spans attached, one without — and checks the two kernel paths agree
// on every pair: the columnar fast path may change the memory walk, never
// the arithmetic.
func TestColumnarMatchesFallback(t *testing.T) {
	rng1 := rand.New(rand.NewSource(77))
	rng2 := rand.New(rand.NewSource(77))
	colCorpus := randomKernelCorpus(rng1, 45, 14)
	ptrCorpus := randomKernelCorpus(rng2, 45, 14)
	colCorpus.RebuildColumnar()
	if ptrCorpus.Columnar() != nil {
		t.Fatal("hand-assembled corpus unexpectedly has a columnar view")
	}
	for _, p := range kernelParamsGrid {
		cxCol := NewContext(colCorpus, p)
		cxPtr := NewContext(ptrCorpus, p)
		scCol, scPtr := NewScratch(), NewScratch()
		for i, tr1 := range colCorpus.Transactions {
			for j, tr2 := range colCorpus.Transactions {
				got := cxCol.Transactions(tr1, tr2, scCol)
				want := cxPtr.Transactions(ptrCorpus.Transactions[i], ptrCorpus.Transactions[j], scPtr)
				if got != want {
					t.Fatalf("params %+v pair (%d,%d): columnar %v, fallback %v", p, i, j, got, want)
				}
			}
		}
		if cxPtr.Counters.ColumnarResolves.Load() != 0 {
			t.Fatalf("params %+v: fallback context advanced ColumnarResolves", p)
		}
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

// TestTransactionsZeroAllocWarmScratchFallback is the allocation guard for
// the pointer-table fallback path (corpora without a columnar view, e.g.
// gob-decoded p2p transaction sets): once the scratch is warm, resolution
// through ItemTable.ResolveColumns must also be allocation-free. The name
// shares the TestTransactionsZeroAllocWarmScratch prefix so the CI lint
// job's -run pattern covers both paths.
func TestTransactionsZeroAllocWarmScratchFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	corpus := randomKernelCorpus(rng, 60, 16)
	if corpus.Columnar() != nil {
		t.Fatal("fallback fixture unexpectedly has a columnar view")
	}
	cx := NewContext(corpus, Params{F: 0.5, Gamma: 0.6})
	trs := corpus.Transactions
	sc := NewScratch()
	for _, tr1 := range trs {
		for _, tr2 := range trs {
			cx.Transactions(tr1, tr2, sc)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		cx.Transactions(trs[0], trs[1], sc)
	}); avg != 0 {
		t.Errorf("fallback Transactions with warm scratch allocates %.2f/op, want 0", avg)
	}
	if cx.Counters.ColumnarResolves.Load() != 0 {
		t.Error("fallback corpus advanced ColumnarResolves")
	}
}

// TestZeroAllocGuardIsColumnar documents which path the primary zero-alloc
// guard exercises: buildCtx goes through txn.Build, whose builder attaches
// spans to every transaction, so TestTransactionsZeroAllocWarmScratch pins
// the columnar warm path at zero allocations.
func TestZeroAllocGuardIsColumnar(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.6)
	if corpus.Columnar() == nil {
		t.Fatal("txn.Build corpus has no columnar view")
	}
	trs := corpus.Transactions
	sc := NewScratch()
	cx.Transactions(trs[0], trs[1], sc)
	if cx.Counters.ColumnarResolves.Load() == 0 {
		t.Fatal("builder-built corpus did not take the columnar resolve path")
	}
}
