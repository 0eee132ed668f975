package xmlclust

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"xmlclust/internal/txn"
)

// TestClassifyTransactionsFixedPoint: at convergence a clustering is a fixed
// point of relocation, so classifying every corpus transaction against the
// final representatives must reproduce the final assignment exactly, for any
// worker count.
func TestClassifyTransactionsFixedPoint(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cls, err := eng.ClassifyTransactions(context.Background(), corpus.Transactions, res.Reps,
			ClassifyOptions{F: 0.5, Gamma: 0.6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(cls.Assign) != len(res.Assign) {
			t.Fatalf("workers=%d: classify returned %d assignments, want %d", workers, len(cls.Assign), len(res.Assign))
		}
		for i := range cls.Assign {
			if cls.Assign[i] != res.Assign[i] {
				t.Errorf("workers=%d: transaction %d classified to %d, clustering assigned %d",
					workers, i, cls.Assign[i], res.Assign[i])
			}
			if cls.Assign[i] != TrashCluster && cls.Sims[i] <= 0 {
				t.Errorf("workers=%d: transaction %d in cluster %d with sim %g", workers, i, cls.Assign[i], cls.Sims[i])
			}
		}
	}
}

func TestClassifyEmptyRepsIsTrash(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := eng.ClassifyTransactions(context.Background(), corpus.Transactions, nil,
		ClassifyOptions{F: 0.5, Gamma: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if cls.Cluster != TrashCluster {
		t.Fatalf("no representatives but majority cluster %d", cls.Cluster)
	}
	for i, cl := range cls.Assign {
		if cl != TrashCluster {
			t.Errorf("transaction %d assigned to %d with no representatives", i, cl)
		}
	}
}

// TestClassifyDocument: a held-out document classifies into the cluster of
// its topic, and the read-only contract holds — the corpus transaction set
// does not grow and the extracted transactions are marked transient.
func TestClassifyDocument(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dc := DocumentClusters(corpus, res.Assign)

	held := `<catalog><sw key="ax"><name>photo editor holdout</name><vendor>acme soft</vendor><platform>linux</platform></sw></catalog>`
	tree, err := ParseString(held)
	if err != nil {
		t.Fatal(err)
	}
	txnsBefore := len(corpus.Transactions)
	trs := eng.ExtractTransactions(tree, 0)
	if len(trs) == 0 {
		t.Fatal("no transactions extracted from held-out doc")
	}
	for _, tr := range trs {
		if tr.Doc != -1 {
			t.Fatalf("transient transaction carries doc id %d, want -1", tr.Doc)
		}
	}
	if len(corpus.Transactions) != txnsBefore {
		t.Fatalf("ExtractTransactions grew the corpus: %d → %d", txnsBefore, len(corpus.Transactions))
	}

	cls, err := eng.Classify(context.Background(), tree, res.Reps, ClassifyOptions{F: 0.5, Gamma: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if want := dc[0]; cls.Cluster != want { // docs 0-2 are the sw topic
		t.Fatalf("held-out sw doc classified to %d, corpus sw docs sit in %d", cls.Cluster, want)
	}
	if len(corpus.Transactions) != txnsBefore {
		t.Fatalf("Classify grew the corpus: %d → %d", txnsBefore, len(corpus.Transactions))
	}
}

func TestClassifyCancellation(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ClassifyTransactions(ctx, corpus.Transactions, res.Reps,
		ClassifyOptions{F: 0.5, Gamma: 0.6}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled classify: got %v, want ErrCanceled", err)
	}
}

// TestEngineConcurrentClusterClassify hammers one engine with clustering and
// read-only classification from many goroutines at once. The shared
// PathCache, ItemSimCache and params-keyed sim contexts must tolerate this;
// run under -race this is the regression test for the serving layer's
// concurrency contract.
func TestEngineConcurrentClusterClassify(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := eng.Cluster(context.Background(),
					ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: seed, Workers: 2}); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				cls, err := eng.ClassifyTransactions(context.Background(), corpus.Transactions, res.Reps,
					ClassifyOptions{F: 0.5, Gamma: 0.6, Workers: 2})
				if err != nil {
					errs <- err
					return
				}
				for j := range cls.Assign {
					if cls.Assign[j] != res.Assign[j] {
						errs <- errors.New("concurrent classify diverged from the converged assignment")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExtractTransactionsMatchesBuilder: decomposing the corpus's own
// documents again must land on the item sets the builder made of them and
// intern nothing — both go through the interning of txn.Transactions, the
// builder with a scratch it keeps, ExtractTransactions with one per call.
func TestExtractTransactionsMatchesBuilder(t *testing.T) {
	var trees []*Tree
	for _, d := range append([]string{
		`<r><k>shared leaf</k><a>one</a><a>two</a><a>two</a></r>`, // 3 tuples, 2 distinct item sets
	}, sampleDocs...) {
		tree, err := ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	corpus := BuildCorpus(trees, CorpusOptions{})
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	items := corpus.Items.Len()
	next := 0
	for doc, tree := range trees {
		for _, tr := range eng.ExtractTransactions(tree, 0) {
			if next >= len(corpus.Transactions) || corpus.Transactions[next].Doc != doc {
				t.Fatalf("doc %d: more transient transactions than the builder made", doc)
			}
			if want := corpus.Transactions[next]; !tr.Equal(want) || tr.TupleIndex != want.TupleIndex || tr.Doc != -1 {
				t.Fatalf("doc %d tuple %d: extracted %v, builder %v", doc, tr.TupleIndex, tr.Items, want.Items)
			}
			next++
		}
	}
	if next != len(corpus.Transactions) {
		t.Fatalf("extracted %d transactions, corpus has %d", next, len(corpus.Transactions))
	}
	if corpus.Items.Len() != items {
		t.Fatalf("re-extraction interned %d new items", corpus.Items.Len()-items)
	}
}

// TestExtractTransactionsConcurrent: eight goroutines decompose, on one
// engine, documents that share ⟨path, answer⟩ pairs the corpus has not seen.
// A document resolves its leaves under one write lock of the item table, so
// every pair is interned exactly once, item ids stay dense, and each
// goroutine gets the transactions a serial extraction gets, compared by
// ⟨path, answer⟩ since the ids depend on which goroutine came first.
func TestExtractTransactionsConcurrent(t *testing.T) {
	docs := make([]string, 12)
	for i := range docs {
		docs[i] = fmt.Sprintf(`<catalog><sw key="n%d"><name>unseen name %d</name><vendor>unseen vendor</vendor><tag>t%d</tag><tag>t%d</tag></sw></catalog>`,
			i%4, i%3, i%5, (i+2)%5)
	}
	parseAll := func() []*Tree {
		trees := make([]*Tree, len(docs))
		for i, d := range docs {
			tree, err := ParseString(d)
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = tree
		}
		return trees
	}
	// pairs renders each transaction as its sorted ⟨path, answer⟩ pairs.
	pairs := func(c *Corpus, trs []*Transaction) [][]string {
		out := make([][]string, len(trs))
		for i, tr := range trs {
			for _, id := range tr.Items {
				it := c.Items.Get(id)
				out[i] = append(out[i], c.Paths.Path(it.Path).String()+"="+it.Answer)
			}
			slices.Sort(out[i])
		}
		return out
	}

	serialCorpus := sampleCorpus(t)
	serial, err := NewEngine(serialCorpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]string, len(docs))
	for i, tree := range parseAll() {
		want[i] = pairs(serialCorpus, serial.ExtractTransactions(tree, 0))
	}

	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	got := make([][][]*Transaction, goroutines)
	trees := make([][]*Tree, goroutines)
	for g := range trees {
		trees[g] = parseAll()
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([][]*Transaction, len(docs))
			for k := range docs {
				i := (k + g) % len(docs) // each goroutine starts elsewhere, so first sightings race
				got[g][i] = eng.ExtractTransactions(trees[g][i], 0)
			}
		}()
	}
	wg.Wait()

	seen := map[string]txn.ItemID{}
	for id := txn.ItemID(0); int(id) < corpus.Items.Len(); id++ {
		it := corpus.Items.Get(id)
		if it.ID != id {
			t.Fatalf("item at %d carries id %d", id, it.ID)
		}
		key := corpus.Paths.Path(it.Path).String() + "=" + it.Answer
		if prev, dup := seen[key]; dup {
			t.Errorf("⟨%s⟩ interned twice: ids %d and %d", key, prev, id)
		}
		seen[key] = id
	}
	if corpus.Items.Len() != serialCorpus.Items.Len() {
		t.Errorf("%d items after the concurrent extraction, %d after the serial one", corpus.Items.Len(), serialCorpus.Items.Len())
	}
	for g := range got {
		for i := range docs {
			if p := pairs(corpus, got[g][i]); !slices.EqualFunc(p, want[i], slices.Equal) {
				t.Errorf("goroutine %d, document %d: %v, serial %v", g, i, p, want[i])
			}
		}
	}
}
