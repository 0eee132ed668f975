package weighting_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

func accTestTrees(t *testing.T, n int) []*xmltree.Tree {
	t.Helper()
	trees := make([]*xmltree.Tree, n)
	for i := range trees {
		doc := fmt.Sprintf(
			`<paper key="k%d"><title>clustering xml trees %d</title><author>greco</author><author>tagarelli %d</author><venue>icpp</venue></paper>`,
			i, i%4, i%2)
		tree, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tree
	}
	return trees
}

// TestAccumulatorMatchesApply feeds the same corpus twice — once through
// the batch Apply pass, once document-by-document through an Accumulator
// attached to an incremental Builder — and requires identical vectors,
// term ids and stats.
func TestAccumulatorMatchesApply(t *testing.T) {
	mk := func() []*xmltree.Tree { return accTestTrees(t, 7) }

	batch := txn.Build(mk(), txn.BuildOptions{})
	batchStats := weighting.Apply(batch)

	b := txn.NewBuilder(txn.BuildOptions{})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)
	for _, tree := range mk() {
		b.Add(tree)
	}
	stream := b.Finish()
	streamStats := acc.Finalize()

	if batchStats != streamStats {
		t.Fatalf("stats differ: batch %+v, streaming %+v", batchStats, streamStats)
	}
	if batch.Terms.Len() != stream.Terms.Len() {
		t.Fatalf("vocabulary %d != %d", batch.Terms.Len(), stream.Terms.Len())
	}
	for i := int32(0); i < int32(batch.Terms.Len()); i++ {
		if batch.Terms.Term(i) != stream.Terms.Term(i) {
			t.Fatalf("term id %d is %q batch vs %q streaming — interning order diverged",
				i, batch.Terms.Term(i), stream.Terms.Term(i))
		}
	}
	if batch.Items.Len() != stream.Items.Len() {
		t.Fatalf("items %d != %d", batch.Items.Len(), stream.Items.Len())
	}
	for i := 0; i < batch.Items.Len(); i++ {
		a, s := batch.Items.Get(txn.ItemID(i)), stream.Items.Get(txn.ItemID(i))
		if !vector.Equal(a.Vector, s.Vector) {
			t.Fatalf("item %d (%q): vector differs between batch Apply and streaming Accumulator", i, a.Answer)
		}
	}
}

// TestAccumulatorEmptyDocs checks documents that contribute no items
// (empty elements only) flow through the per-document fold without
// skewing counts.
func TestAccumulatorEmptyDocs(t *testing.T) {
	docs := []string{
		`<r><a/><b/></r>`, // tuples with no content leaves
		`<r><x>real content here</x></r>`,
		`<r><c/></r>`,
	}
	trees := make([]*xmltree.Tree, len(docs))
	for i, d := range docs {
		trees[i] = xmltree.MustParseString(d)
	}
	batch := txn.Build(trees, txn.BuildOptions{})
	batchStats := weighting.Apply(batch)

	trees2 := make([]*xmltree.Tree, len(docs))
	for i, d := range docs {
		trees2[i] = xmltree.MustParseString(d)
	}
	b := txn.NewBuilder(txn.BuildOptions{})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)
	for _, tree := range trees2 {
		b.Add(tree)
	}
	stream := b.Finish()
	streamStats := acc.Finalize()
	if batchStats != streamStats {
		t.Fatalf("stats differ with empty docs: %+v vs %+v", batchStats, streamStats)
	}
	for i := 0; i < batch.Items.Len(); i++ {
		if !vector.Equal(batch.Items.Get(txn.ItemID(i)).Vector, stream.Items.Get(txn.ItemID(i)).Vector) {
			t.Fatalf("item %d vector differs", i)
		}
	}
}

// TestWeighNewFrozenITF covers the online weighting pass of the serving
// layer: items interned after Finalize get vectors under the frozen
// collection counters, already-weighted items keep theirs byte for byte,
// and synthetic (conflated) items are never re-derived.
func TestWeighNewFrozenITF(t *testing.T) {
	b := txn.NewBuilder(txn.BuildOptions{})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)
	for _, tree := range accTestTrees(t, 3) {
		b.Add(tree)
	}
	c := b.Finish()
	acc.Finalize()

	if n := acc.WeighNew(); n != 0 {
		t.Fatalf("WeighNew right after Finalize weighted %d items, want 0", n)
	}
	itemsBefore := c.Items.Len()
	before := make([]vector.Sparse, itemsBefore)
	for i := range before {
		before[i] = c.Items.Get(txn.ItemID(i)).Vector
	}

	// A synthetic item must keep its conflated vector across WeighNew.
	synVec := vector.FromMap(map[int32]float64{0: 0.125})
	synID := c.Items.InternSynthetic(c.Items.Get(0).Path, "syn merged answer key", synVec, []txn.ItemID{0, 1})

	// Stream one more document with fresh vocabulary through a reopened
	// builder; its items exist but are unweighted until WeighNew runs.
	tree, err := xmltree.ParseString(
		`<paper key="k9"><title>quantum entanglement puzzles</title><author>unseen scribe</author><venue>icpp</venue></paper>`)
	if err != nil {
		t.Fatal(err)
	}
	b2 := txn.ReopenBuilder(c, 3, txn.BuildOptions{})
	b2.Observe(acc)
	b2.AddLabeled(tree, -1)

	newID := txn.ItemID(-1)
	for i := int(synID) + 1; i < c.Items.Len(); i++ {
		it := c.Items.Get(txn.ItemID(i))
		if !it.Vector.IsZero() {
			t.Fatalf("item %d (%q) weighted before WeighNew", i, it.Answer)
		}
		if it.Answer == "quantum entanglement puzzles" {
			newID = txn.ItemID(i)
		}
	}
	if newID < 0 {
		t.Fatal("new document's title item not interned")
	}

	n := acc.WeighNew()
	if n == 0 {
		t.Fatal("WeighNew weighted nothing after a new document")
	}
	if c.Items.Get(newID).Vector.IsZero() {
		t.Fatal("new item still has a zero vector after WeighNew")
	}
	if !vector.Equal(c.Items.Get(synID).Vector, synVec) {
		t.Fatal("WeighNew re-derived a synthetic item's conflated vector")
	}
	for i := range before {
		if !vector.Equal(c.Items.Get(txn.ItemID(i)).Vector, before[i]) {
			t.Fatalf("WeighNew changed already-weighted item %d", i)
		}
	}
	if n2 := acc.WeighNew(); n2 != 0 {
		t.Fatalf("second WeighNew re-weighted %d items", n2)
	}

	// Transient classify-time items (interned directly, observed by no
	// document) weight with a neutral context and a clamped n_{j,T} ≥ 1,
	// so unseen terms keep a finite idf.
	transient := c.Items.Intern(c.Items.Get(0).Path, "totally novel wording")
	if acc.WeighNew() == 0 {
		t.Fatal("WeighNew skipped a directly interned item")
	}
	tv := c.Items.Get(transient).Vector
	if tv.IsZero() {
		t.Fatal("transient item got a zero vector")
	}
	for _, e := range tv.Entries() {
		if math.IsInf(e.Weight, 0) || math.IsNaN(e.Weight) {
			t.Fatalf("transient item weight is not finite: %v", tv)
		}
	}
}

// weighedCorpus builds a corpus of trees through a builder with an
// accumulator attached, the way the streaming ingest does, and leaves the
// weighting pass to the caller.
func weighedCorpus(trees []*xmltree.Tree) (*txn.Corpus, *weighting.Accumulator) {
	b := txn.NewBuilder(txn.BuildOptions{Tuple: tuple.Options{MaxTuplesPerTree: 64}})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)
	for _, tree := range trees {
		b.Add(tree)
	}
	return b.Finish(), acc
}

// TestFinalizeWorkersEquivalence: the weighting finish weighs each item on
// one worker into its own span of one arena, so workers 1, 2 and 8 give the
// same Stats and the same vector bits on every generator — the bits a pass
// that weighs item by item into storage of its own (WeighNew) gives.
func TestFinalizeWorkersEquivalence(t *testing.T) {
	for _, g := range []struct {
		name string
		docs int
	}{{"DBLP", 120}, {"IEEE", 8}, {"Wikipedia", 120}, {"Shakespeare", 4}} {
		gen, _ := dataset.ByName(g.name)
		trees := gen(dataset.Spec{Docs: g.docs, Seed: 40}).Trees
		ref, refAcc := weighedCorpus(trees)
		refAcc.WeighNew()
		var want weighting.Stats
		for _, workers := range []int{1, 2, 8} {
			c, acc := weighedCorpus(trees)
			stats := acc.FinalizeWorkers(workers)
			if workers == 1 {
				want = stats
			} else if stats != want {
				t.Fatalf("%s, workers %d: stats %+v, want %+v", g.name, workers, stats, want)
			}
			for i := 0; i < c.Items.Len(); i++ {
				got, exp := c.Items.Get(txn.ItemID(i)).Vector, ref.Items.Get(txn.ItemID(i)).Vector
				same := got.Len() == exp.Len() && math.Float64bits(got.Norm()) == math.Float64bits(exp.Norm())
				for k := 0; same && k < got.Len(); k++ {
					e, x := got.Entries()[k], exp.Entries()[k]
					same = e.Term == x.Term && math.Float64bits(e.Weight) == math.Float64bits(x.Weight)
				}
				if !same {
					t.Fatalf("%s, workers %d: item %d vector %v, want %v", g.name, workers, i, got, exp)
				}
			}
		}
	}
}

// TestWeighNewAfterFinalizeWeighsTheNewItems: Finalize leaves a watermark
// behind every id it passed, so a later WeighNew weighs exactly the items
// interned since — one a document brought, one interned directly — and a
// second WeighNew has nothing left to weigh.
func TestWeighNewAfterFinalizeWeighsTheNewItems(t *testing.T) {
	c, acc := weighedCorpus(accTestTrees(t, 4))
	acc.Finalize()
	before := c.Items.Len()
	tree, err := xmltree.ParseString(`<paper key="k9"><title>novel wording here</title></paper>`)
	if err != nil {
		t.Fatal(err)
	}
	b := txn.ReopenBuilder(c, 4, txn.BuildOptions{})
	b.Observe(acc)
	b.Add(tree)
	c.Items.Intern(c.Items.Get(0).Path, "another unseen answer")
	if n, want := acc.WeighNew(), c.Items.Len()-before; n != want || want < 2 {
		t.Fatalf("WeighNew after Finalize weighed %d items, want the %d interned since", n, want)
	}
	for i := before; i < c.Items.Len(); i++ {
		if it := c.Items.Get(txn.ItemID(i)); it.Vector.IsZero() {
			t.Fatalf("new item %d (%q) has no vector", i, it.Answer)
		}
	}
	if n := acc.WeighNew(); n != 0 {
		t.Fatalf("a second WeighNew weighed %d items", n)
	}
}

// BenchmarkFinalize times the weighting finish over the items of a corpus of
// the four generators, at one worker per CPU.
func BenchmarkFinalize(b *testing.B) {
	var trees []*xmltree.Tree
	for _, g := range []struct {
		name string
		docs int
	}{{"DBLP", 1000}, {"IEEE", 10}, {"Wikipedia", 500}, {"Shakespeare", 3}} {
		gen, _ := dataset.ByName(g.name)
		trees = append(trees, gen(dataset.Spec{Docs: g.docs, Seed: 40}).Trees...)
	}
	c, acc := weighedCorpus(trees)
	b.ReportMetric(float64(c.Items.Len()), "items")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Finalize()
	}
}

// TestWeighStagedMatchesWeighNew stages a document with unseen items and
// terms over one of two twin corpora and weighs it with WeighStaged, twice
// on one scratch; the other twin interns and weighs the same document with
// WeighNew. The staged transactions and vectors are the interned ones bit
// for bit — item ids from the table's length, term ids from the
// vocabulary's, in first-met order — and the staging twin's accumulator and
// corpus are deeply what they were.
func TestWeighStagedMatchesWeighNew(t *testing.T) {
	a, accA := weighedCorpus(accTestTrees(t, 5))
	b, accB := weighedCorpus(accTestTrees(t, 5))
	accA.Finalize()
	accB.Finalize()
	res, err := tuple.ExtractBytes([]byte(`<paper key="k9"><title>clustering quantum puzzles 9</title>`+
		`<author>greco</author><author>novel scribe</author><venue>icpp</venue></paper>`), tuple.Options{MaxTuplesPerTree: 64})
	if err != nil {
		t.Fatal(err)
	}

	ov := txn.NewOverlay(a)
	var sc weighting.Staged
	for pass := 0; pass < 2; pass++ {
		st, staged := ov.Resolve(res)
		accA.WeighStaged(st, &sc)
		if pass == 0 {
			interned := txn.Transactions(b, res, -1, -1)
			accB.WeighNew()
			if !reflect.DeepEqual(staged, interned) {
				t.Fatalf("staged transactions %v, interned %v", staged, interned)
			}
			if st.Len() == a.Items.Len() || st.Len() != b.Items.Len() {
				t.Fatalf("staged %d items over %d; interning grew the twin to %d", st.Len()-a.Items.Len(), a.Items.Len(), b.Items.Len())
			}
		}
		for id := txn.ItemID(0); int(id) < st.Len(); id++ {
			if got, want := st.Get(id).Vector, b.Items.Get(id).Vector; !vector.Equal(got, want) {
				t.Fatalf("pass %d: item %d (%q) staged %v, interned %v", pass, id, st.Get(id).Answer, got, want)
			}
		}
	}
	c, accC := weighedCorpus(accTestTrees(t, 5))
	accC.Finalize()
	if !reflect.DeepEqual(accA, accC) || !reflect.DeepEqual(a, c) {
		t.Fatal("WeighStaged or StageTransactions wrote to the accumulator or the corpus")
	}
}
