package xmlclust

import (
	"context"
	"errors"
	"sync"
	"testing"

	"xmlclust/internal/tuple"
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
// its topic, and the read-only contract holds — neither the corpus
// transaction set nor its item table grows.
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
	txnsBefore, itemsBefore := len(corpus.Transactions), corpus.Items.Len()
	cls, err := eng.Classify(context.Background(), tree, res.Reps, ClassifyOptions{F: 0.5, Gamma: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if want := dc[0]; cls.Cluster != want { // docs 0-2 are the sw topic
		t.Fatalf("held-out sw doc classified to %d, corpus sw docs sit in %d", cls.Cluster, want)
	}
	if len(corpus.Transactions) != txnsBefore || corpus.Items.Len() != itemsBefore {
		t.Fatalf("Classify grew the corpus: %d → %d transactions, %d → %d items",
			txnsBefore, len(corpus.Transactions), itemsBefore, corpus.Items.Len())
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

// TestOverlayMatchesBuilder: resolving the corpus's own documents again
// through an overlay, as Classify does, must land on the item sets the
// builder made of them and stage nothing — both go through the interning of
// txn.Transactions, the builder with a scratch it keeps, the overlay with
// its own.
func TestOverlayMatchesBuilder(t *testing.T) {
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
	items := corpus.Items.Len()
	ov := txn.NewOverlay(corpus)
	next := 0
	for doc, tree := range trees {
		staged, trs := ov.Resolve(tuple.Extract(tree, tuple.Options{}))
		for _, tr := range trs {
			if next >= len(corpus.Transactions) || corpus.Transactions[next].Doc != doc {
				t.Fatalf("doc %d: more transient transactions than the builder made", doc)
			}
			if want := corpus.Transactions[next]; !tr.Equal(want) || tr.TupleIndex != want.TupleIndex || tr.Doc != -1 {
				t.Fatalf("doc %d tuple %d: resolved %v, builder %v", doc, tr.TupleIndex, tr.Items, want.Items)
			}
			next++
		}
		if staged.Len() != items {
			t.Fatalf("doc %d: the overlay staged %d items", doc, staged.Len()-items)
		}
	}
	if next != len(corpus.Transactions) {
		t.Fatalf("resolved %d transactions, corpus has %d", next, len(corpus.Transactions))
	}
	if corpus.Items.Len() != items {
		t.Fatalf("re-resolution interned %d new items", corpus.Items.Len()-items)
	}
}
