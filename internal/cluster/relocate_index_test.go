package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// tieHeavyCorpus generates a randomized corpus engineered for similarity
// ties: documents are drawn from a handful of templates over a tiny tag and
// word vocabulary, so many (document, representative) pairs score exactly
// equal and the lowest-index tie rule is exercised constantly — the
// adversarial shape for a reordered candidate scan.
func tieHeavyCorpus(t testing.TB, n int, seed int64) *txn.Corpus {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tags := [][2]string{{"paper", "writer"}, {"report", "editor"}, {"paper", "editor"}}
	words := []string{"alpha", "beta", "gamma", "delta"}
	var trees []*xmltree.Tree
	for i := 0; i < n; i++ {
		tg := tags[rng.Intn(len(tags))]
		w1 := words[rng.Intn(len(words))]
		w2 := words[rng.Intn(len(words))]
		doc := fmt.Sprintf(`<db><%s key="d%d"><%s>%s %s</%s><venue>%s</venue></%s></db>`,
			tg[0], i, tg[1], w1, w2, tg[1], words[rng.Intn(len(words))], tg[0])
		tree, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	corpus := txn.Build(trees, txn.BuildOptions{})
	weighting.Apply(corpus)
	return corpus
}

// indexParamsGrid covers both channels of posting-list scoring: pairs that
// need a shared term (f < γ), pairs that structure alone carries (f ≥ γ, the
// exact f = γ boundary included), structure only (f = 1), content only
// (f = 0), γ = 0 (index disabled, flat fallback) and γ = 1.
var indexParamsGrid = []sim.Params{
	{F: 0.5, Gamma: 0.6}, // needs a shared term
	{F: 0.5, Gamma: 0.4}, // structure alone can qualify
	{F: 0.5, Gamma: 0.9}, // high γ
	{F: 1, Gamma: 0.7},   // structure only
	{F: 0, Gamma: 0.4},   // content only
	{F: 0.6, Gamma: 0.6}, // f = γ boundary
	{F: 0.3, Gamma: 0.7}, // γ well above f
	{F: 0.5, Gamma: 0},   // index disabled: flat fallback
	{F: 0.5, Gamma: 1},   // γ = 1 edge
}

// TestSweepScoresEqualKernelAndSeed is the differential suite of posting-list
// scoring on weighted corpora: on the tie-heavy corpus and on generated
// hybrid DBLP, over f ∈ {0, 0.3, 0.5, 1} × γ ∈ {0.5, 0.8, 1}, the sweep's
// score of every (document, representative) pair equals cx.Transactions and
// sim.SeedTransactions bit for bit. The representative sets mix refined
// synthetic representatives (conflated vectors), raw documents (items common
// to both sides), a nil and an empty entry. (internal/sim's
// TestRepIndexSoundness covers zero vectors, empty tag paths and interning
// after Build on the table-built corpus.)
func TestSweepScoresEqualKernelAndSeed(t *testing.T) {
	dblp, k := synthCorpus(t, "DBLP", 40)
	corpora := []struct {
		name   string
		corpus *txn.Corpus
		k      int
	}{{"tieHeavy", tieHeavyCorpus(t, 60, 17), 6}, {"hybridDBLP", dblp, k}}
	for _, c := range corpora {
		s := c.corpus.Transactions
		for _, f := range []float64{0, 0.3, 0.5, 1} {
			for _, gamma := range []float64{0.5, 0.8, 1} {
				cx := sim.NewContext(c.corpus, sim.Params{F: f, Gamma: gamma})
				reps := xkmeans(cx, s, runCfg{K: c.k, MaxIter: 2, Seed: 31, Workers: 1}).Reps
				reps = append(reps, s[0], s[len(s)/2], nil, txn.NewTransaction(nil, -1, -1, -1))
				ix := sim.NewRepIndex()
				ix.Build(cx, reps)
				if !ix.Enabled() {
					t.Fatalf("%s f=%v γ=%v: index disabled", c.name, f, gamma)
				}
				rq := sim.NewRepQuery()
				for i, tr := range s {
					got := make([]float64, len(reps))
					for c, n := 0, ix.Candidates(tr, rq); c < n; c++ {
						j, v := rq.Candidate(c)
						got[j] = v
					}
					for j, rep := range reps {
						if rep == nil {
							continue
						}
						want := cx.Transactions(tr, rep, nil)
						if seed := sim.SeedTransactions(cx, tr, rep); seed != want {
							t.Fatalf("%s f=%v γ=%v doc %d rep %d: kernel %v != seed %v", c.name, f, gamma, i, j, want, seed)
						}
						if got[j] != want {
							t.Fatalf("%s f=%v γ=%v doc %d rep %d: sweep %v != kernel %v", c.name, f, gamma, i, j, got[j], want)
						}
					}
				}
			}
		}
	}
}

// TestRelocateStaleIndexEqualsFlat: once a weighting pass has rewritten the
// vector of an item a representative carries, relocation through the index
// built before the rewrite must equal the flat scan over the new vectors — the
// index steps aside instead of scoring with stale weights.
func TestRelocateStaleIndexEqualsFlat(t *testing.T) {
	corpus := tieHeavyCorpus(t, 40, 3)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.3, Gamma: 0.5})
	reps := []*txn.Transaction{s[0], s[1], s[2], s[3]}
	ix := sim.NewRepIndex()
	ix.Build(cx, reps)
	before := flatRelocate(t, cx, s, reps, 1)
	// Swap the vectors of two items of a raw representative: both now carry
	// weights the postings do not.
	a, b := corpus.Items.Get(reps[0].Items[0]), corpus.Items.Get(reps[1].Items[len(reps[1].Items)-1])
	va, vb := a.Vector, b.Vector
	corpus.Items.SetVector(a.ID, vb)
	corpus.Items.SetVector(b.ID, va)
	want := flatRelocate(t, cx, s, reps, 1)
	if slices.Equal(before, want) {
		t.Fatal("the rewrite changed no assignment; the test would pass on stale weights")
	}
	if got := relocate(t, cx, s, reps, 4, ix); !slices.Equal(got, want) {
		t.Fatal("relocation through an index built before the rewrite differs from the flat scan")
	}
}

// TestRelocateIndexEquivalence pins the index-guided relocation
// byte-identical to the flat scan — assignment AND winning similarity —
// per document, across the regime grid, on both the structured two-topic
// fixture and a randomized tie-heavy corpus, against raw initial and
// refined synthetic representatives, for workers ∈ {1, 4}.
func TestRelocateIndexEquivalence(t *testing.T) {
	corpora := map[string]*txn.Corpus{
		"twoTopic": twoTopicDocs(t, 10),
		"tieHeavy": tieHeavyCorpus(t, 60, 17),
	}
	for name, corpus := range corpora {
		s := corpus.Transactions
		for _, p := range indexParamsGrid {
			cx := sim.NewContext(corpus, p)
			rng := rand.New(rand.NewSource(31))
			initial := SelectInitial(s, 6, rng)
			cl := xkmeans(cx, s, runCfg{K: 6, MaxIter: 3, Seed: 31, Workers: 1})
			for ri, reps := range [][]*txn.Transaction{initial, cl.Reps} {
				ix := sim.NewRepIndex()
				ix.Build(cx, reps)
				sc := sim.NewScratch()
				for i, tr := range s {
					wantJ, wantV := RelocateOneIndexed(cx, tr, reps, nil, sc)
					gotJ, gotV := RelocateOneIndexed(cx, tr, reps, ix, sc)
					if gotJ != wantJ || gotV != wantV {
						t.Fatalf("%s params %+v reps#%d doc %d: indexed (%d, %v) != flat (%d, %v)",
							name, p, ri, i, gotJ, gotV, wantJ, wantV)
					}
				}
				want := flatRelocate(t, cx, s, reps, 1)
				for _, workers := range []int{1, 4} {
					got := relocate(t, cx, s, reps, workers, ix)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s params %+v reps#%d workers %d: indexed assignment diverges at %d: %d != %d",
								name, p, ri, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestRelocateIndexCounters pins the work accounting: per document the
// evaluated candidates and the skipped representatives sum to exactly the
// active (non-nil, non-empty) representative count.
func TestRelocateIndexCounters(t *testing.T) {
	corpus := tieHeavyCorpus(t, 40, 3)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	cl := xkmeans(cx, s, runCfg{K: 5, MaxIter: 3, Seed: 7, Workers: 1})
	ix := sim.NewRepIndex()
	ix.Build(cx, cl.Reps)
	if !ix.Enabled() {
		t.Fatal("index unexpectedly disabled")
	}
	cand0 := cx.Counters.IndexCandidates.Load()
	skip0 := cx.Counters.IndexSkipped.Load()
	relocate(t, cx, s, cl.Reps, 4, ix)
	cand := cx.Counters.IndexCandidates.Load() - cand0
	skip := cx.Counters.IndexSkipped.Load() - skip0
	if total := cand + skip; total != int64(ix.Active())*int64(len(s)) {
		t.Fatalf("candidates %d + skipped %d = %d, want active %d × docs %d = %d",
			cand, skip, total, ix.Active(), len(s), int64(ix.Active())*int64(len(s)))
	}
	if cand <= 0 {
		t.Fatal("no candidates evaluated — relocation cannot have assigned anything")
	}
}

// TestRelocateOneIndexedZeroAllocWarm extends the CI allocation guards to
// the indexed assignment path: with a warm scratch, query state and index,
// relocating one document through the index performs zero heap allocations.
// A companion check pins the per-round index rebuild to zero steady-state
// allocations too (all slabs and maps are reused).
func TestRelocateOneIndexedZeroAllocWarm(t *testing.T) {
	corpus := twoTopicDocs(t, 12)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	cl := xkmeans(cx, s, runCfg{K: 4, MaxIter: 3, Seed: 3, Workers: 1})
	reps := cl.Reps
	ix := sim.NewRepIndex()
	ix.Build(cx, reps)
	if !ix.Enabled() {
		t.Fatal("index unexpectedly disabled")
	}
	sc := sim.NewScratch()
	for _, tr := range s {
		RelocateOneIndexed(cx, tr, reps, ix, sc)
	}
	if avg := testing.AllocsPerRun(200, func() {
		RelocateOneIndexed(cx, s[0], reps, ix, sc)
	}); avg != 0 {
		t.Errorf("warm RelocateOneIndexed allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		ix.Build(cx, reps)
	}); avg != 0 {
		t.Errorf("warm index rebuild allocates %.2f/op, want 0", avg)
	}
}
