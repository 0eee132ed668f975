package serve

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"xmlclust"
	"xmlclust/internal/dataset"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// classifyInterning is the classify that interns: the document's unseen
// items and terms go into the live tables and are weighed by WeighNew, under
// the write lock. Until the next refresh its items stay in the corpus, and
// an add of the document later counts its weights from there.
func classifyInterning(s *Service, xml []byte) (*xmlclust.Classification, error) {
	tuples, err := tuple.ExtractBytes(xml, s.cfg.buildOptions().Tuple)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := s.snap
	trs := txn.Transactions(sn.corpus, tuples, -1, -1)
	sn.acc.WeighNew()
	return sn.eng.ClassifyTransactions(context.Background(), trs, sn.reps, s.classifyOptionsLocked())
}

// twinServices returns two services that have been through the same
// history: docs[:n] added, a refresh, then docs[n] added online.
func twinServices(t *testing.T, cfg Config, docs []string, n int) (a, b *Service) {
	t.Helper()
	var out [2]*Service
	for i := range out {
		s, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addAll(t, s, docs[:n])
		if err := s.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddDocument(context.Background(), "online", []byte(docs[n]), -1); err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out[0], out[1]
}

// TestClassifyLeavesServiceUnchanged: classifying a document N times leaves
// the item and term tables at their length, and the accumulator and the
// corpus deeply equal to those of a twin service that never classified;
// an add of the document then weighs its items, and assigns it, as on the
// twin. A classify that interns fails all three: the add finds the
// document's items already weighed, and a term that weighs 1.243 in an add
// alone weighs 3.784 after three such classifies.
func TestClassifyLeavesServiceUnchanged(t *testing.T) {
	docs := serveDocs(6)
	probe := []byte(serveDocs(8)[7]) // a paper no service has seen
	for _, mode := range []xmlclust.RepIndexMode{xmlclust.RepIndexAuto, xmlclust.RepIndexOff} {
		cfg := serveConfig()
		cfg.IndexReps = mode
		a, b := twinServices(t, cfg, docs, 10)
		items, terms := a.snap.corpus.Items.Len(), a.snap.corpus.Terms.Len()
		for i := 0; i < 3; i++ {
			if _, err := a.Classify(context.Background(), probe); err != nil {
				t.Fatal(err)
			}
			if got, gotTerms := a.snap.corpus.Items.Len(), a.snap.corpus.Terms.Len(); got != items || gotTerms != terms {
				t.Fatalf("%v: classify %d took the tables from %d items, %d terms to %d, %d", mode, i, items, terms, got, gotTerms)
			}
		}
		if !reflect.DeepEqual(a.snap.acc, b.snap.acc) {
			t.Fatalf("%v: the classifies changed the accumulator or the corpus", mode)
		}

		infoA, err := a.AddDocument(context.Background(), "probe", probe, -1)
		if err != nil {
			t.Fatal(err)
		}
		infoB, err := b.AddDocument(context.Background(), "probe", probe, -1)
		if err != nil {
			t.Fatal(err)
		}
		if infoA.Cluster != infoB.Cluster || !reflect.DeepEqual(a.Assignment(), b.Assignment()) {
			t.Errorf("%v: the add after classifies is in cluster %d, alone in %d", mode, infoA.Cluster, infoB.Cluster)
		}
		r := a.snap.ranges[infoA.ID]
		for _, tr := range a.snap.corpus.Transactions[r[0]:r[1]] {
			for _, id := range tr.Items {
				va, vb := a.snap.corpus.Items.Get(id).Vector, b.snap.corpus.Items.Get(id).Vector
				if !vector.Equal(va, vb) {
					t.Fatalf("%v: item %d weighs %v after classifies, %v alone", mode, id, va, vb)
				}
			}
		}
	}
}

// TestFirstClassifyMatchesInterning: a service's first classify of a
// document since its last refresh returns the Classification the
// interning classify returns on a twin — Assign, Cluster and the bits of
// Sims — on the serve tests' corpus and on generated DBLP, on both engines,
// at the tests' γ and at one where content decides the matches. The twins
// then stay apart until a refresh, so every probe refreshes both.
func TestFirstClassifyMatchesInterning(t *testing.T) {
	gen, _ := dataset.ByName("DBLP")
	var dblp []string
	for _, tree := range gen(dataset.Spec{Docs: 16, Seed: 3}).Trees {
		dblp = append(dblp, xmltree.RenderString(tree))
	}
	var mixed []string // papers and reports alternate, so that both topics are probed
	for sd, i := serveDocs(6), 0; i < 6; i++ {
		mixed = append(mixed, sd[i], sd[6+i])
	}
	corpora := map[string][]string{"serveDocs": mixed, "DBLP": dblp}
	for name, docs := range corpora {
		for _, mode := range []xmlclust.RepIndexMode{xmlclust.RepIndexAuto, xmlclust.RepIndexOff} {
			for _, gamma := range []float64{serveConfig().Gamma, 0.6} {
				cfg := serveConfig()
				cfg.IndexReps, cfg.MaxTuplesPerTree, cfg.Gamma = mode, 16, gamma
				a, b := twinServices(t, cfg, docs, 8)
				for _, probe := range docs[9:] {
					got, err := a.Classify(context.Background(), []byte(probe))
					if err != nil {
						t.Fatal(err)
					}
					want, err := classifyInterning(b, []byte(probe))
					if err != nil {
						t.Fatal(err)
					}
					if got.Cluster != want.Cluster || !reflect.DeepEqual(got.Assign, want.Assign) || !sameBits(got.Sims, want.Sims) {
						t.Fatalf("%s %v γ=%v: classify %d %v %v, interning %d %v %v", name, mode, gamma,
							got.Cluster, got.Assign, got.Sims, want.Cluster, want.Assign, want.Sims)
					}
					for _, s := range []*Service{a, b} {
						if err := s.Refresh(context.Background()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestClassifyConcurrent runs classifies beside adds, cluster queries and a
// refresh, a handful of goroutines at once (run it with -race): every
// classify answers, and once the writers are done a classify scores as it
// does on a service that never classified.
func TestClassifyConcurrent(t *testing.T) {
	docs := serveDocs(8)
	a, b := twinServices(t, serveConfig(), docs, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 3*8+3+1) // one per call that can fail: nothing blocks on a send
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := a.Classify(context.Background(), []byte(docs[(g+i)%len(docs)])); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i, doc := range docs[9:12] {
			if _, err := a.AddDocument(context.Background(), fmt.Sprint("late", i), []byte(doc), -1); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			a.QueryCluster(i % 2)
		}
	}()
	go func() {
		defer wg.Done()
		if err := a.Refresh(context.Background()); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	addAll(t, b, docs[9:12])
	for _, s := range []*Service{a, b} {
		if err := s.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	probe := []byte(docs[15])
	got, err := a.Classify(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Classify(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cluster != want.Cluster || !reflect.DeepEqual(got.Assign, want.Assign) || !sameBits(got.Sims, want.Sims) {
		t.Errorf("after the concurrent run classify gives %d %v, a quiet twin %d %v", got.Cluster, got.Sims, want.Cluster, want.Sims)
	}
}
