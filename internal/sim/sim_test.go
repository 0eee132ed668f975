package sim

import (
	"math"
	"math/rand"
	"testing"

	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPathSimIdentical(t *testing.T) {
	p := xmltree.ParsePath("dblp.article.title")
	if got := PathSim(p, p); !approx(got, 1) {
		t.Errorf("identical paths sim = %v, want 1", got)
	}
}

func TestPathSimDisjoint(t *testing.T) {
	a := xmltree.ParsePath("a.b.c")
	b := xmltree.ParsePath("x.y.z")
	if got := PathSim(a, b); got != 0 {
		t.Errorf("disjoint paths sim = %v, want 0", got)
	}
}

// TestPathSimEq3Manual verifies Eq. 3 on a hand-computed example:
// p_i = dblp.article.title (n=3), p_j = dblp.inproceedings.title (m=3).
// Matching tags: dblp at position 1↔1 (factor 1), title at 3↔3 (factor 1);
// article/inproceedings do not match. simS = (1+0+1 + 1+0+1)/6 = 2/3.
func TestPathSimEq3Manual(t *testing.T) {
	a := xmltree.ParsePath("dblp.article.title")
	b := xmltree.ParsePath("dblp.inproceedings.title")
	if got := PathSim(a, b); !approx(got, 2.0/3.0) {
		t.Errorf("sim = %v, want 2/3", got)
	}
}

// TestPathSimExactDelta: Δ of Eq. 3 is exact tag equality, so a case or
// spelling variant of a tag, or a synonym, matches nothing. Each pair shares
// only its first tag: simS = (1+0 + 1+0)/4.
func TestPathSimExactDelta(t *testing.T) {
	for _, b := range []string{"r.Author", "r.author-name", "r.writer"} {
		if got := PathSim(xmltree.ParsePath("r.author"), xmltree.ParsePath(b)); !approx(got, 0.5) {
			t.Errorf("r.author vs %s: sim = %v, want 0.5", b, got)
		}
	}
}

// TestPathSimPositionPenalty: same tags, shifted by one level.
// p_i = a.b (n=2), p_j = r.a.b (m=3).
// For p_i: s(a, p_j, 1): a at position 2 → 1/(1+1) = 0.5; s(b, p_j, 2): b at
// 3 → 0.5. For p_j: s(r, p_i, 1) = 0; s(a, p_i, 2): a at 1 → 0.5;
// s(b, p_i, 3): b at 2 → 0.5. simS = (0.5+0.5+0+0.5+0.5)/5 = 0.4.
func TestPathSimPositionPenalty(t *testing.T) {
	a := xmltree.ParsePath("a.b")
	b := xmltree.ParsePath("r.a.b")
	if got := PathSim(a, b); !approx(got, 0.4) {
		t.Errorf("sim = %v, want 0.4", got)
	}
}

func TestPathSimSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tags := []string{"a", "b", "c", "d"}
	randPath := func() xmltree.Path {
		n := 1 + rng.Intn(4)
		p := make(xmltree.Path, n)
		for i := range p {
			p[i] = tags[rng.Intn(len(tags))]
		}
		return p
	}
	for i := 0; i < 500; i++ {
		a, b := randPath(), randPath()
		if !approx(PathSim(a, b), PathSim(b, a)) {
			t.Fatalf("asymmetric for %v, %v", a, b)
		}
	}
}

func TestPathSimRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tags := []string{"a", "b", "c"}
	for i := 0; i < 500; i++ {
		n, m := 1+rng.Intn(5), 1+rng.Intn(5)
		pa := make(xmltree.Path, n)
		pb := make(xmltree.Path, m)
		for j := range pa {
			pa[j] = tags[rng.Intn(3)]
		}
		for j := range pb {
			pb[j] = tags[rng.Intn(3)]
		}
		s := PathSim(pa, pb)
		if s < 0 || s > 1+1e-9 {
			t.Fatalf("out of range: %v for %v,%v", s, pa, pb)
		}
	}
}

// Three documents: two near-identical papers and one unrelated report.
var testDocs = []string{
	`<db><paper key="p1">
    <writer>alice cooper</writer>
    <name>mining structured information repositories</name>
    <venue>KDD</venue>
  </paper></db>`,
	`<db><paper key="p2">
    <writer>alice cooper</writer>
    <name>mining structured information collections</name>
    <venue>KDD</venue>
  </paper></db>`,
	`<db><report key="r1">
    <writer>somebody else</writer>
    <name>unrelated plumbing manual</name>
  </report></db>`,
}

func buildCtx(t *testing.T, f, gamma float64) (*Context, *txn.Corpus) {
	t.Helper()
	var trees []*xmltree.Tree
	for _, d := range testDocs {
		tree, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	corpus := txn.Build(trees, txn.BuildOptions{})
	weighting.Apply(corpus)
	return NewContext(corpus, Params{F: f, Gamma: gamma}), corpus
}

func TestItemSimBlend(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.5)
	// Find the two venue items — same path, same answer → same item id.
	var venueCount int
	for id := 0; id < corpus.Items.Len(); id++ {
		it := corpus.Items.Get(txn.ItemID(id))
		if it.Answer == "KDD" {
			venueCount++
			if got := cx.Item(it, it); !approx(got, 1) {
				// identical item: simS=1, simC=cos(u,u)=1 unless empty text
				// ("kdd" is a valid token).
				t.Errorf("self sim = %v", got)
			}
		}
	}
	if venueCount != 1 {
		t.Fatalf("venue items = %d, want 1 (interned)", venueCount)
	}
}

func TestItemSimStructureOnlyAndContentOnly(t *testing.T) {
	cxS, corpus := buildCtx(t, 1.0, 0.5)
	cxC := NewContext(corpus, Params{F: 0, Gamma: 0.5})
	var paperName, reportName *txn.Item
	for id := 0; id < corpus.Items.Len(); id++ {
		it := corpus.Items.Get(txn.ItemID(id))
		switch it.Answer {
		case "mining structured information repositories":
			paperName = it
		case "unrelated plumbing manual":
			reportName = it
		}
	}
	if paperName == nil || reportName == nil {
		t.Fatal("items not found")
	}
	// Structure-only: db.paper.name vs db.report.name → Eq. 3 value 2/3.
	if got := cxS.Item(paperName, reportName); !approx(got, 2.0/3.0) {
		t.Errorf("structure-only sim = %v, want 2/3", got)
	}
	// Content-only: no shared terms → 0.
	if got := cxC.Item(paperName, reportName); !approx(got, 0) {
		t.Errorf("content-only sim = %v, want 0", got)
	}
}

func TestMatchedThreshold(t *testing.T) {
	cx, corpus := buildCtx(t, 1.0, 0.7)
	a := corpus.Items.Get(corpus.Transactions[0].Items[0])
	if !cx.Matched(a, a) {
		t.Error("item should γ-match itself under structure-driven setting")
	}
}

func TestTransactionsSimRangeAndSymmetry(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.6)
	trs := corpus.Transactions
	for i := range trs {
		for j := range trs {
			s1 := cx.Transactions(trs[i], trs[j], nil)
			s2 := cx.Transactions(trs[j], trs[i], nil)
			if !approx(s1, s2) {
				t.Fatalf("asymmetric txn sim %d,%d: %v vs %v", i, j, s1, s2)
			}
			if s1 < 0 || s1 > 1+1e-9 {
				t.Fatalf("txn sim out of range: %v", s1)
			}
		}
	}
}

func TestTransactionsSelfSimIsOne(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.6)
	for _, tr := range corpus.Transactions {
		if got := cx.Transactions(tr, tr, nil); !approx(got, 1) {
			t.Errorf("self sim = %v, want 1", got)
		}
	}
}

func TestSimilarRecordsBeatDissimilar(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.6)
	trs := corpus.Transactions
	// trs[0], trs[1] are the two near-identical papers; trs[2] the report.
	sTwin := cx.Transactions(trs[0], trs[1], nil)
	sFar := cx.Transactions(trs[0], trs[2], nil)
	if sTwin <= sFar {
		t.Errorf("twin sim %v should exceed far sim %v", sTwin, sFar)
	}
}

func TestMatchSetEmptyWhenGammaMaxed(t *testing.T) {
	cx, corpus := buildCtx(t, 0.0, 0.999)
	trs := corpus.Transactions
	// Content-only with near-1 threshold: the unrelated report shares no
	// exact text with paper 1.
	ms := cx.MatchSet(trs[0], trs[2])
	if len(ms) != 0 {
		t.Errorf("match set should be empty, got %d", len(ms))
	}
}

func TestMatchSetBestMatcherOnly(t *testing.T) {
	cx, corpus := buildCtx(t, 1.0, 0.5)
	trs := corpus.Transactions
	ms := cx.MatchSet(trs[0], trs[1])
	if len(ms) == 0 {
		t.Fatal("twins should share items structurally")
	}
	// All shared items must come from one of the two transactions.
	for id := range ms {
		if !trs[0].Contains(id) && !trs[1].Contains(id) {
			t.Errorf("foreign item %d in match set", id)
		}
	}
}

func TestPathCacheCountsAndEquivalence(t *testing.T) {
	cxOn, corpus := buildCtx(t, 1.0, 0.5)
	cxOff := NewContext(corpus, Params{F: 1.0, Gamma: 0.5})
	cxOff.UseCache = false
	trs := corpus.Transactions
	for i := range trs {
		for j := range trs {
			// Fresh scratches so cross-pair structural reuse exercises the
			// shared PathCache rather than the scratch-local memo.
			a := cxOn.Transactions(trs[i], trs[j], NewScratch())
			b := cxOff.Transactions(trs[i], trs[j], NewScratch())
			if !approx(a, b) {
				t.Fatalf("cache changed result: %v vs %v", a, b)
			}
		}
	}
	if cxOn.Counters.CacheHits.Load() == 0 {
		t.Error("cache never hit")
	}
	if cxOff.Counters.CacheHits.Load() != 0 || cxOff.Counters.CacheMisses.Load() != 0 {
		t.Error("disabled cache recorded hits/misses")
	}
	if cxOff.Counters.PathSims.Load() <= cxOn.Counters.PathSims.Load() {
		t.Errorf("cache should reduce path alignments: on=%d off=%d",
			cxOn.Counters.PathSims.Load(), cxOff.Counters.PathSims.Load())
	}
}

func TestCountersAdvance(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.6)
	before := cx.Counters.TxnSims.Load()
	cx.Transactions(corpus.Transactions[0], corpus.Transactions[1], nil)
	if cx.Counters.TxnSims.Load() != before+1 {
		t.Error("TxnSims not incremented")
	}
	if cx.Counters.ItemSims.Load() == 0 {
		t.Error("ItemSims not incremented")
	}
}

func TestGammaMonotonicity(t *testing.T) {
	// Raising γ can only shrink match sets, so simγJ is non-increasing in γ.
	_, corpus := buildCtx(t, 0.5, 0.5)
	trs := corpus.Transactions
	prev := math.Inf(1)
	for _, gamma := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		cx := NewContext(corpus, Params{F: 0.5, Gamma: gamma})
		s := cx.Transactions(trs[0], trs[1], nil)
		if s > prev+1e-9 {
			t.Fatalf("simγJ increased when γ rose to %v: %v > %v", gamma, s, prev)
		}
		prev = s
	}
}

func BenchmarkTransactionSim(b *testing.B) {
	var trees []*xmltree.Tree
	for _, d := range testDocs {
		tree, _ := xmltree.ParseString(d)
		trees = append(trees, tree)
	}
	corpus := txn.Build(trees, txn.BuildOptions{})
	weighting.Apply(corpus)
	cx := NewContext(corpus, Params{F: 0.5, Gamma: 0.7})
	trs := corpus.Transactions
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cx.Transactions(trs[i%len(trs)], trs[(i+1)%len(trs)], nil)
	}
}

func BenchmarkPathSim(b *testing.B) {
	p1 := xmltree.ParsePath("dblp.inproceedings.author")
	p2 := xmltree.ParsePath("dblp.article.editor")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PathSim(p1, p2)
	}
}
