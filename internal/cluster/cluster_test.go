package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// twoTopicDocs builds a tiny corpus with two clearly separated groups:
// papers about "mining patterns" and reports about "routing networks".
func twoTopicDocs(t testing.TB, perGroup int) *txn.Corpus {
	t.Helper()
	var trees []*xmltree.Tree
	var labels []int
	for i := 0; i < perGroup; i++ {
		doc := fmt.Sprintf(`<db><paper key="p%d">
			<writer>alice cooper</writer>
			<name>mining frequent patterns number%d</name>
			<venue>KDD</venue>
		</paper></db>`, i, i)
		tree, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
		labels = append(labels, 0)
	}
	for i := 0; i < perGroup; i++ {
		doc := fmt.Sprintf(`<db><report key="r%d">
			<editor>bob dylan</editor>
			<heading>routing wireless networks number%d</heading>
			<lab>NETLAB</lab>
		</report></db>`, i, i)
		tree, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
		labels = append(labels, 1)
	}
	corpus := txn.Build(trees, txn.BuildOptions{Labels: labels})
	weighting.Apply(corpus)
	return corpus
}

func ctxFor(corpus *txn.Corpus, f, gamma float64) *sim.Context {
	return sim.NewContext(corpus, sim.Params{F: f, Gamma: gamma})
}

// relocate is one batch relocation pass, flat when ix is nil. A nil ctx never
// cancels, so an error is a bug (t.Error: callers run on worker goroutines
// too).
func relocate(t testing.TB, cx *sim.Context, s, reps []*txn.Transaction, workers int, ix *sim.RepIndex) []int {
	t.Helper()
	assign := make([]int, len(s))
	if err := RelocateScores(nil, cx, s, reps, workers, ix, assign, nil); err != nil {
		t.Error(err)
	}
	return assign
}

func flatRelocate(t testing.TB, cx *sim.Context, s, reps []*txn.Transaction, workers int) []int {
	t.Helper()
	return relocate(t, cx, s, reps, workers, nil)
}

// clustering is the outcome of one centralized run (see xkmeans).
type clustering struct {
	Assign     []int
	Reps       []*txn.Transaction
	Sizes      []int
	Iterations int
}

// runCfg parameterizes xkmeans: cluster count, iteration bound (0 = 20),
// seed of the initial selection, worker bound and engine mode.
type runCfg struct {
	K, MaxIter int
	Seed       int64
	Workers    int
	Fast       bool
}

// xkmeans is the centralized XK-means of [33,32] driven through Rounds, the
// one helper every whole-clustering test of this package goes through: select
// k initial representatives from distinct documents, then alternate
// relocation and refinement until assignments and representatives are stable.
func xkmeans(cx *sim.Context, s []*txn.Transaction, cfg runCfg) *clustering {
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 20
	}
	rounds := NewRounds(RepConfig{Ctx: cx, Workers: cfg.Workers}, s, cfg.Fast)
	reps := make([]*txn.Transaction, cfg.K)
	copy(reps, SelectInitial(s, cfg.K, rand.New(rand.NewSource(cfg.Seed))))
	cl := &clustering{Assign: make([]int, len(s)), Reps: reps}
	for i := range cl.Assign {
		cl.Assign[i] = TrashCluster
	}
	for iter := 0; iter < maxIter; iter++ {
		cl.Iterations = iter + 1
		assign, _ := rounds.Assign(nil, reps) // a nil ctx never cancels
		newReps, sizes := rounds.LocalReps(assign)
		for j, size := range sizes {
			if size == 0 {
				newReps[j] = reps[j] // keep the old representative alive
			}
		}
		stable := slices.Equal(assign, cl.Assign) && RepsEqual(newReps, reps)
		cl.Assign, cl.Reps, cl.Sizes = assign, newReps, sizes
		reps = newReps
		if stable {
			break
		}
	}
	return cl
}

func TestConflateItemsGroupsByPath(t *testing.T) {
	corpus := twoTopicDocs(t, 2)
	cx := ctxFor(corpus, 0.5, 0.6)
	// Take all items of the first two transactions (same schema → same
	// paths, different answers on name/key).
	var ids []txn.ItemID
	ids = append(ids, corpus.Transactions[0].Items...)
	ids = append(ids, corpus.Transactions[1].Items...)
	rep := ConflateItems(cx.Items, ids)
	// The representative must be in tree-tuple form: distinct paths only.
	seen := map[xmltree.PathID]bool{}
	for _, id := range rep.Items {
		p := cx.Items.Get(id).Path
		if seen[p] {
			t.Fatalf("path %v appears twice in conflated representative", p)
		}
		seen[p] = true
	}
	// Shared items (writer, venue) stay raw; divergent ones are synthetic.
	var synth, raw int
	for _, id := range rep.Items {
		if cx.Items.Get(id).Synthetic {
			synth++
		} else {
			raw++
		}
	}
	if synth == 0 || raw == 0 {
		t.Errorf("expected a mix of synthetic and raw items, got %d/%d", synth, raw)
	}
}

func TestConflateItemsDeterministic(t *testing.T) {
	corpus := twoTopicDocs(t, 2)
	cx := ctxFor(corpus, 0.5, 0.6)
	ids := append([]txn.ItemID(nil), corpus.Transactions[0].Items...)
	ids = append(ids, corpus.Transactions[1].Items...)
	a := ConflateItems(cx.Items, ids)
	// Reversed input order must produce the same representative.
	rev := make([]txn.ItemID, len(ids))
	for i, id := range ids {
		rev[len(ids)-1-i] = id
	}
	b := ConflateItems(cx.Items, rev)
	if !a.Equal(b) {
		t.Errorf("conflation order-sensitive: %v vs %v", a.Items, b.Items)
	}
}

func TestConflateFlattensNestedSynthetics(t *testing.T) {
	corpus := twoTopicDocs(t, 3)
	cx := ctxFor(corpus, 0.5, 0.6)
	ids01 := append([]txn.ItemID(nil), corpus.Transactions[0].Items...)
	ids01 = append(ids01, corpus.Transactions[1].Items...)
	rep01 := ConflateItems(cx.Items, ids01)
	// Conflating the conflation with transaction 2 must equal conflating
	// all three directly (exactness of constituent tracking).
	idsNested := append([]txn.ItemID(nil), rep01.Items...)
	var flat []txn.ItemID
	for _, id := range idsNested {
		flat = append(flat, cx.Items.Get(id).Flatten()...)
	}
	flat = append(flat, corpus.Transactions[2].Items...)
	nested := ConflateItems(cx.Items, flat)

	var direct []txn.ItemID
	for _, tr := range corpus.Transactions[:3] {
		direct = append(direct, tr.Items...)
	}
	want := ConflateItems(cx.Items, direct)
	if !nested.Equal(want) {
		t.Errorf("nested conflation differs: %v vs %v", nested.Items, want.Items)
	}
}

func TestComputeLocalRepresentativeEmpty(t *testing.T) {
	corpus := twoTopicDocs(t, 1)
	cx := ctxFor(corpus, 0.5, 0.6)
	if got := ComputeLocalRepresentative(RepConfig{Ctx: cx}, nil); got != nil {
		t.Errorf("empty cluster rep = %v, want nil", got)
	}
}

func TestComputeLocalRepresentativeCoversCluster(t *testing.T) {
	corpus := twoTopicDocs(t, 4)
	cx := ctxFor(corpus, 0.5, 0.6)
	papers := corpus.Transactions[:4]
	rep := ComputeLocalRepresentative(RepConfig{Ctx: cx}, papers)
	if rep == nil || rep.Len() == 0 {
		t.Fatal("nil/empty representative")
	}
	// The representative must be γ-similar to every member.
	for i, tr := range papers {
		if got := cx.Transactions(tr, rep, nil); got == 0 {
			t.Errorf("member %d has zero similarity to its representative", i)
		}
	}
	// Size bound: |rep| ≤ max member length (+ slack of 0: per Fig. 6 it
	// can exceed trmax only transiently, never in the returned value under
	// the default rule... the guard allows ≤ trmax in returns).
	if rep.Len() > txn.MaxTransactionLen(papers)+1 {
		t.Errorf("representative too long: %d > %d", rep.Len(), txn.MaxTransactionLen(papers))
	}
}

func TestRepresentativeSeparatesGroups(t *testing.T) {
	corpus := twoTopicDocs(t, 4)
	cx := ctxFor(corpus, 0.5, 0.6)
	papers := corpus.Transactions[:4]
	reports := corpus.Transactions[4:]
	prep := ComputeLocalRepresentative(RepConfig{Ctx: cx}, papers)
	rrep := ComputeLocalRepresentative(RepConfig{Ctx: cx}, reports)
	for _, tr := range papers {
		if cx.Transactions(tr, prep, nil) <= cx.Transactions(tr, rrep, nil) {
			t.Errorf("paper closer to report representative")
		}
	}
	for _, tr := range reports {
		if cx.Transactions(tr, rrep, nil) <= cx.Transactions(tr, prep, nil) {
			t.Errorf("report closer to paper representative")
		}
	}
}

func TestComputeGlobalRepresentativeMergesLocals(t *testing.T) {
	corpus := twoTopicDocs(t, 6)
	cx := ctxFor(corpus, 0.5, 0.6)
	papers := corpus.Transactions[:6]
	l1 := ComputeLocalRepresentative(RepConfig{Ctx: cx}, papers[:3])
	l2 := ComputeLocalRepresentative(RepConfig{Ctx: cx}, papers[3:])
	g := ComputeGlobalRepresentative(RepConfig{Ctx: cx}, []WeightedRep{
		{Rep: l1, Weight: 3}, {Rep: l2, Weight: 3},
	})
	if g == nil || g.Len() == 0 {
		t.Fatal("nil global representative")
	}
	for i, tr := range papers {
		if cx.Transactions(tr, g, nil) == 0 {
			t.Errorf("paper %d unreachable from global representative", i)
		}
	}
}

func TestComputeGlobalRepresentativeNilInputs(t *testing.T) {
	corpus := twoTopicDocs(t, 1)
	cx := ctxFor(corpus, 0.5, 0.6)
	if got := ComputeGlobalRepresentative(RepConfig{Ctx: cx}, nil); got != nil {
		t.Errorf("no reps should yield nil, got %v", got)
	}
	if got := ComputeGlobalRepresentative(RepConfig{Ctx: cx}, []WeightedRep{{Rep: nil, Weight: 5}}); got != nil {
		t.Errorf("all-nil reps should yield nil, got %v", got)
	}
}

func TestGlobalRepresentativeWeightInfluence(t *testing.T) {
	corpus := twoTopicDocs(t, 6)
	cx := ctxFor(corpus, 0.5, 0.6)
	papers := corpus.Transactions[:6]
	reports := corpus.Transactions[6:]
	lp := ComputeLocalRepresentative(RepConfig{Ctx: cx}, papers)
	lr := ComputeLocalRepresentative(RepConfig{Ctx: cx}, reports)
	// Heavily weighted paper rep should dominate the merge.
	g := ComputeGlobalRepresentative(RepConfig{Ctx: cx}, []WeightedRep{
		{Rep: lp, Weight: 100}, {Rep: lr, Weight: 1},
	})
	simP := cx.Transactions(papers[0], g, nil)
	simR := cx.Transactions(reports[0], g, nil)
	if simP <= simR {
		t.Errorf("weight 100 paper rep should dominate: paper=%v report=%v", simP, simR)
	}
}

func TestSelectInitialDistinctDocs(t *testing.T) {
	corpus := twoTopicDocs(t, 5)
	rng := rand.New(rand.NewSource(7))
	sel := SelectInitial(corpus.Transactions, 4, rng)
	if len(sel) != 4 {
		t.Fatalf("selected %d, want 4", len(sel))
	}
	docs := map[int]bool{}
	for _, tr := range sel {
		if docs[tr.Doc] {
			t.Errorf("duplicate source document %d", tr.Doc)
		}
		docs[tr.Doc] = true
	}
}

func TestSelectInitialMoreThanDocs(t *testing.T) {
	corpus := twoTopicDocs(t, 1) // 2 documents, 2 transactions
	rng := rand.New(rand.NewSource(7))
	sel := SelectInitial(corpus.Transactions, 5, rng)
	if len(sel) != 2 {
		t.Fatalf("selected %d, want all 2", len(sel))
	}
	if got := SelectInitial(corpus.Transactions, 0, rng); got != nil {
		t.Errorf("q=0 should select nothing")
	}
	if got := SelectInitial(nil, 3, rng); got != nil {
		t.Errorf("empty input should select nothing")
	}
}

func TestSelectInitialDeterministic(t *testing.T) {
	corpus := twoTopicDocs(t, 5)
	a := SelectInitial(corpus.Transactions, 3, rand.New(rand.NewSource(9)))
	b := SelectInitial(corpus.Transactions, 3, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("selection not deterministic for equal seeds")
		}
	}
}

func TestRelocateTrashAndArgmax(t *testing.T) {
	corpus := twoTopicDocs(t, 3)
	cx := ctxFor(corpus, 0.5, 0.6)
	papers := corpus.Transactions[:3]
	reports := corpus.Transactions[3:]
	reps := []*txn.Transaction{
		ComputeLocalRepresentative(RepConfig{Ctx: cx}, papers),
		ComputeLocalRepresentative(RepConfig{Ctx: cx}, reports),
	}
	assign := flatRelocate(t, cx, corpus.Transactions, reps, 1)
	for i := 0; i < 3; i++ {
		if assign[i] != 0 {
			t.Errorf("paper %d assigned to %d", i, assign[i])
		}
	}
	for i := 3; i < 6; i++ {
		if assign[i] != 1 {
			t.Errorf("report %d assigned to %d", i, assign[i])
		}
	}
	// Nil representatives are skipped; all-nil → trash.
	assign = flatRelocate(t, cx, corpus.Transactions, []*txn.Transaction{nil, nil}, 1)
	for _, a := range assign {
		if a != TrashCluster {
			t.Errorf("expected trash with nil reps, got %d", a)
		}
	}
}

func TestXKMeansTwoGroups(t *testing.T) {
	corpus := twoTopicDocs(t, 5)
	cx := ctxFor(corpus, 0.5, 0.6)
	// An unlucky seed can draw both initial representatives from one group
	// (the other group then lands in the trash cluster, which is legitimate
	// behavior); pick the first seed whose initial selection spans both.
	var cl *clustering
	for seed := int64(0); seed < 10; seed++ {
		init := SelectInitial(corpus.Transactions, 2, rand.New(rand.NewSource(seed)))
		if len(init) == 2 && (init[0].Doc < 5) != (init[1].Doc < 5) {
			cl = xkmeans(cx, corpus.Transactions, runCfg{K: 2, Seed: seed})
			break
		}
	}
	if cl == nil {
		t.Fatal("no seed produced cross-group initial representatives")
	}
	if cl.Iterations == 0 || cl.Iterations > 20 {
		t.Fatalf("iterations = %d", cl.Iterations)
	}
	// Perfect separation: each group lands in one cluster.
	first := cl.Assign[0]
	if first == TrashCluster {
		t.Fatal("paper 0 in trash")
	}
	for i := 1; i < 5; i++ {
		if cl.Assign[i] != first {
			t.Errorf("papers split: %v", cl.Assign)
		}
	}
	second := cl.Assign[5]
	if second == first || second == TrashCluster {
		t.Fatalf("reports not separated: %v", cl.Assign)
	}
	for i := 6; i < 10; i++ {
		if cl.Assign[i] != second {
			t.Errorf("reports split: %v", cl.Assign)
		}
	}
	if cl.Sizes[first] != 5 || cl.Sizes[second] != 5 {
		t.Errorf("sizes = %v", cl.Sizes)
	}
}

func TestXKMeansDeterministic(t *testing.T) {
	corpus := twoTopicDocs(t, 4)
	cx := ctxFor(corpus, 0.5, 0.6)
	a := xkmeans(cx, corpus.Transactions, runCfg{K: 2, Seed: 11})
	b := xkmeans(cx, corpus.Transactions, runCfg{K: 2, Seed: 11})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("assignments differ across identical runs")
		}
	}
}

func TestXKMeansKOne(t *testing.T) {
	corpus := twoTopicDocs(t, 3)
	cx := ctxFor(corpus, 0.5, 0.5)
	cl := xkmeans(cx, corpus.Transactions, runCfg{K: 1, Seed: 1})
	nonTrash := 0
	for _, a := range cl.Assign {
		if a == 0 {
			nonTrash++
		}
	}
	if nonTrash == 0 {
		t.Error("k=1 clustered nothing")
	}
}

func TestSSE(t *testing.T) {
	corpus := twoTopicDocs(t, 3)
	cx := ctxFor(corpus, 0.5, 0.6)
	papers := corpus.Transactions[:3]
	rep := ComputeLocalRepresentative(RepConfig{Ctx: cx}, papers)
	for _, fast := range []bool{true, false} {
		r := NewRounds(RepConfig{Ctx: cx}, papers, fast)
		if _, err := r.Assign(nil, []*txn.Transaction{rep}); err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, tr := range papers {
			want += 1 - cx.Transactions(tr, rep, nil)
		}
		if sse := r.Objective(); sse != want || sse < 0 || sse >= 3 {
			t.Errorf("fast %v: objective = %v, want %v in [0,3)", fast, sse, want)
		}
		// Trash assignments contribute 1 each.
		if _, err := r.Assign(nil, []*txn.Transaction{nil}); err != nil {
			t.Fatal(err)
		}
		if sse := r.Objective(); sse != 3 {
			t.Errorf("fast %v: trash objective = %v, want 3", fast, sse)
		}
	}
}

func TestGenerateTreeTupleRules(t *testing.T) {
	corpus := twoTopicDocs(t, 4)
	cx := ctxFor(corpus, 0.5, 0.6)
	papers := corpus.Transactions[:4]
	for _, rule := range []ReturnRule{ReturnBestObjective, ReturnLastImproving, ReturnPrevious} {
		rep := ComputeLocalRepresentative(RepConfig{Ctx: cx, Rule: rule}, papers)
		if rep == nil || rep.Len() == 0 {
			t.Errorf("rule %d produced empty representative", rule)
		}
	}
}

func BenchmarkComputeLocalRepresentative(b *testing.B) {
	corpus := twoTopicDocs(b, 8)
	cx := ctxFor(corpus, 0.5, 0.6)
	papers := corpus.Transactions[:8]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLocalRepresentative(RepConfig{Ctx: cx}, papers)
	}
}

func BenchmarkXKMeans(b *testing.B) {
	corpus := twoTopicDocs(b, 10)
	cx := ctxFor(corpus, 0.5, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xkmeans(cx, corpus.Transactions, runCfg{K: 2, Seed: int64(i)})
	}
}

// ---------------------------------------------------------------- Workers

// synthCorpus builds one of the synthetic corpora via the dataset
// generators (used by the Workers-equivalence tests, which want varied
// schema/content geometry rather than the toy two-topic docs).
func synthCorpus(t testing.TB, ds string, docs int) (*txn.Corpus, int) {
	t.Helper()
	gen, ok := dataset.ByName(ds)
	if !ok {
		t.Fatalf("unknown dataset %q", ds)
	}
	col := gen(dataset.Spec{Docs: docs, Seed: 99})
	corpus := col.BuildCorpus(dataset.ByHybrid, 24, 1)
	return corpus, col.K(dataset.ByHybrid)
}

// assertClusteringsEqual fails unless the two clusterings are
// byte-identical: same assignments, sizes, iteration count and
// representative item sets.
func assertClusteringsEqual(t *testing.T, label string, want, got *clustering) {
	t.Helper()
	if want.Iterations != got.Iterations {
		t.Errorf("%s: iterations %d vs %d", label, want.Iterations, got.Iterations)
	}
	if len(want.Assign) != len(got.Assign) {
		t.Fatalf("%s: assign length %d vs %d", label, len(want.Assign), len(got.Assign))
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: assignment %d differs: %d vs %d", label, i, want.Assign[i], got.Assign[i])
		}
	}
	for j := range want.Sizes {
		if want.Sizes[j] != got.Sizes[j] {
			t.Errorf("%s: size of cluster %d differs: %d vs %d", label, j, want.Sizes[j], got.Sizes[j])
		}
	}
	if !RepsEqual(want.Reps, got.Reps) {
		t.Errorf("%s: representatives differ", label)
	}
}

// TestXKMeansWorkersEquivalence asserts the tentpole determinism guarantee:
// for a fixed seed, Workers: N produces output byte-identical to
// Workers: 1 — identical Assign, Reps, Sizes and Iterations — on several
// synthetic corpora and seeds.
func TestXKMeansWorkersEquivalence(t *testing.T) {
	cases := []struct {
		ds   string
		docs int
	}{
		{"DBLP", 24},
		{"IEEE", 6},
		{"Shakespeare", 2},
	}
	for _, tc := range cases {
		corpus, k := synthCorpus(t, tc.ds, tc.docs)
		cx := ctxFor(corpus, 0.5, 0.7)
		for _, seed := range []int64{3, 17} {
			serial := xkmeans(cx, corpus.Transactions, runCfg{K: k, Seed: seed, Workers: 1})
			for _, w := range []int{2, 4, 0} {
				par := xkmeans(cx, corpus.Transactions, runCfg{K: k, Seed: seed, Workers: w})
				assertClusteringsEqual(t, fmt.Sprintf("%s seed=%d workers=%d", tc.ds, seed, w), serial, par)
			}
		}
	}
}

// TestRelocateWorkersEquivalence checks the relocation step alone across
// worker counts, including the trash-cluster and tie-to-lowest-index rules.
func TestRelocateWorkersEquivalence(t *testing.T) {
	corpus, _ := synthCorpus(t, "DBLP", 16)
	cx := ctxFor(corpus, 0.5, 0.7)
	rng := rand.New(rand.NewSource(5))
	reps := SelectInitial(corpus.Transactions, 4, rng)
	reps = append(reps, nil) // nil reps must never win, under any schedule
	serial := flatRelocate(t, cx, corpus.Transactions, reps, 1)
	for _, w := range []int{2, 3, 8, 0} {
		got := flatRelocate(t, cx, corpus.Transactions, reps, w)
		for i := range serial {
			if serial[i] != got[i] {
				t.Fatalf("workers=%d: assignment %d differs: %d vs %d", w, i, serial[i], got[i])
			}
		}
	}
}

// TestRepresentativeWorkersEquivalence checks local and global
// representative generation across worker counts and return rules.
func TestRepresentativeWorkersEquivalence(t *testing.T) {
	corpus, _ := synthCorpus(t, "IEEE", 6)
	cx := ctxFor(corpus, 0.5, 0.7)
	half := len(corpus.Transactions) / 2
	for _, rule := range []ReturnRule{ReturnBestObjective, ReturnLastImproving, ReturnPrevious} {
		serial := ComputeLocalRepresentative(RepConfig{Ctx: cx, Rule: rule, Workers: 1}, corpus.Transactions[:half])
		for _, w := range []int{4, 0} {
			got := ComputeLocalRepresentative(RepConfig{Ctx: cx, Rule: rule, Workers: w}, corpus.Transactions[:half])
			if (serial == nil) != (got == nil) || (serial != nil && !serial.Equal(got)) {
				t.Errorf("rule %d workers %d: local representative differs", rule, w)
			}
		}
	}
	l1 := ComputeLocalRepresentative(RepConfig{Ctx: cx, Workers: 1}, corpus.Transactions[:half])
	l2 := ComputeLocalRepresentative(RepConfig{Ctx: cx, Workers: 1}, corpus.Transactions[half:])
	wreps := []WeightedRep{{Rep: l1, Weight: half}, {Rep: l2, Weight: len(corpus.Transactions) - half}}
	serial := ComputeGlobalRepresentative(RepConfig{Ctx: cx, Workers: 1}, wreps)
	for _, w := range []int{4, 0} {
		got := ComputeGlobalRepresentative(RepConfig{Ctx: cx, Workers: w}, wreps)
		if (serial == nil) != (got == nil) || (serial != nil && !serial.Equal(got)) {
			t.Errorf("workers %d: global representative differs", w)
		}
	}
}

// TestRelocateOneMatchesRelocate pins the single-transaction kernel (the
// serving layer's classify path) to the batch relocation it was factored out
// of: same winner, and a winning similarity equal to a direct Transactions
// evaluation.
func TestRelocateOneMatchesRelocate(t *testing.T) {
	corpus := twoTopicDocs(t, 3)
	cx := ctxFor(corpus, 0.5, 0.6)
	reps := []*txn.Transaction{
		ComputeLocalRepresentative(RepConfig{Ctx: cx}, corpus.Transactions[:3]),
		ComputeLocalRepresentative(RepConfig{Ctx: cx}, corpus.Transactions[3:]),
	}
	batch := flatRelocate(t, cx, corpus.Transactions, reps, 1)
	sc := sim.NewScratch()
	for i, tr := range corpus.Transactions {
		gotJ, gotSim := RelocateOneIndexed(cx, tr, reps, nil, sc)
		if gotJ != batch[i] {
			t.Errorf("transaction %d: RelocateOne chose %d, Relocate chose %d", i, gotJ, batch[i])
		}
		if gotJ == TrashCluster {
			if gotSim != 0 {
				t.Errorf("transaction %d: trash with sim %g", i, gotSim)
			}
			continue
		}
		// The reported similarity must be the exact pairwise value of the
		// winner.
		want := cx.Transactions(tr, reps[gotJ], sc)
		if gotSim != want {
			t.Errorf("transaction %d: RelocateOne sim %g, direct %g", i, gotSim, want)
		}
		// nil scratch must allocate and agree.
		j2, s2 := RelocateOneIndexed(cx, tr, reps, nil, nil)
		if j2 != gotJ || s2 != gotSim {
			t.Errorf("transaction %d: nil-scratch RelocateOne (%d,%g) != (%d,%g)", i, j2, s2, gotJ, gotSim)
		}
	}
	// Nil and empty representative sets are trash.
	if j, s := RelocateOneIndexed(cx, corpus.Transactions[0], nil, nil, sc); j != TrashCluster || s != 0 {
		t.Errorf("empty reps: got (%d,%g)", j, s)
	}
	if j, _ := RelocateOneIndexed(cx, corpus.Transactions[0], []*txn.Transaction{nil, nil}, nil, sc); j != TrashCluster {
		t.Errorf("all-nil reps: got cluster %d", j)
	}
}
