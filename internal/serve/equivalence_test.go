package serve

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"xmlclust"
)

// TestIncrementalEquivalence is the acceptance test of the incremental
// service: after the maintenance loop converges, the incremental state —
// per-transaction assignments AND cluster representatives — must match a
// from-scratch Engine.Cluster run on the same documents with the same
// options and seed, byte for byte.
//
// The service earns this by construction: a refresh rebuilds a fresh
// corpus from the retained raw XML of the live documents in original add
// order, so interning, weighting and clustering see exactly the inputs a
// batch run would. The test drives a realistic churn history (interleaved
// adds, removals, read-only classifies) through maintenance rounds with a
// hair-trigger drift threshold before comparing.
// It runs once per engine — a fast service against a fast job, a reference
// service against a reference job — and once across: either engine must
// leave the converged state, and hence the equivalence, untouched.
func TestIncrementalEquivalence(t *testing.T) {
	for _, mode := range []xmlclust.RepIndexMode{xmlclust.RepIndexOff, xmlclust.RepIndexAuto} {
		name := "index-off"
		if mode != xmlclust.RepIndexOff {
			name = "index-on"
		}
		t.Run(name, func(t *testing.T) { testIncrementalEquivalence(t, mode, xmlclust.DeltaRoundsAuto) })
	}
	// Cross-engine gate: the service refreshes and classifies on the fast
	// engine (the default), while the from-scratch job runs the reference
	// one. The byte-identity asserts below then prove the fast engine changes
	// nothing observable.
	t.Run("delta-off-reference", func(t *testing.T) {
		testIncrementalEquivalence(t, xmlclust.RepIndexAuto, xmlclust.DeltaRoundsOff)
	})
}

// fromScratch is the batch job on the documents docs holds, named
// "doc<key>" and in key order: a fresh corpus and Engine.Cluster under the
// service's options, with delta rounds as refDelta says.
func fromScratch(t *testing.T, cfg Config, refDelta xmlclust.DeltaRoundsMode, docs map[int]string) (*xmlclust.Corpus, *xmlclust.Result) {
	t.Helper()
	var trees []*xmlclust.Tree
	for _, i := range slices.Sorted(maps.Keys(docs)) {
		tree, err := xmlclust.ParseString(docs[i])
		if err != nil {
			t.Fatal(err)
		}
		tree.Name = fmt.Sprintf("doc%d", i)
		trees = append(trees, tree)
	}
	corpus := xmlclust.BuildCorpus(trees, xmlclust.CorpusOptions{MaxTuplesPerTree: cfg.MaxTuplesPerTree})
	eng, err := xmlclust.NewEngine(corpus, xmlclust.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Cluster(context.Background(), xmlclust.ClusterOptions{
		K: cfg.K, F: cfg.F, Gamma: cfg.Gamma,
		Seed: cfg.Seed, Workers: cfg.Workers, MaxRounds: cfg.MaxRounds,
		IndexReps: cfg.IndexReps, DeltaRounds: refDelta,
	})
	if err != nil {
		t.Fatal(err)
	}
	return corpus, ref
}

// TestServiceKeepsNoCallerBytes: AddDocument and Classify keep no reference
// to the bytes they are given. Every document goes in through one buffer
// that is overwritten as soon as the call returns, as the HTTP handler
// reuses a pooled request body, and a refresh still equals the batch job.
func TestServiceKeepsNoCallerBytes(t *testing.T) {
	s, err := NewService(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	docs := serveDocs(4)
	var buf []byte
	through := func(doc string, call func([]byte) error) {
		buf = append(buf[:0], doc...)
		if err := call(buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
	}
	live := map[int]string{}
	for i, doc := range docs {
		live[i] = doc
		through(doc, func(b []byte) error { _, err := s.AddDocument(ctx, fmt.Sprintf("doc%d", i), b, -1); return err })
		through(docs[len(docs)-1-i], func(b []byte) error { _, err := s.Classify(ctx, b); return err })
	}
	if err := s.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	_, ref := fromScratch(t, serveConfig(), xmlclust.DeltaRoundsAuto, live)
	if got := s.Assignment(); !slices.Equal(got, ref.Assign) {
		t.Fatalf("refresh after reused buffers assigns %v, the batch job %v", got, ref.Assign)
	}
	for j, rep := range s.Representatives() {
		if (rep == nil) != (ref.Reps[j] == nil) || rep != nil && !rep.Equal(ref.Reps[j]) {
			t.Fatalf("representative %d: %v after reused buffers, %v from the batch job", j, rep, ref.Reps[j])
		}
	}
}

func testIncrementalEquivalence(t *testing.T, mode xmlclust.RepIndexMode, refDelta xmlclust.DeltaRoundsMode) {
	cfg := serveConfig()
	cfg.DriftThreshold = -1 // any drift at all refreshes on the next round
	cfg.IndexReps = mode
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	docs := serveDocs(5) // ids 0-4 papers, 5-9 reports

	maintain := func() RoundStats {
		t.Helper()
		rs, err := s.MaintenanceRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	// Churn: add in batches with maintenance between, remove a doc of each
	// topic, interleave read-only classifies (they must not perturb state).
	for i, doc := range docs[:4] {
		if _, err := s.AddDocument(ctx, fmt.Sprintf("doc%d", i), []byte(doc), -1); err != nil {
			t.Fatal(err)
		}
		maintain()
	}
	for i, doc := range docs[4:] {
		if _, err := s.AddDocument(ctx, fmt.Sprintf("doc%d", 4+i), []byte(doc), -1); err != nil {
			t.Fatal(err)
		}
	}
	maintain()
	if _, err := s.Classify(ctx, []byte(docs[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveDocument(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveDocument(7); err != nil {
		t.Fatal(err)
	}
	maintain()
	if _, err := s.Classify(ctx, []byte(docs[9])); err != nil {
		t.Fatal(err)
	}

	// Converge: maintenance rounds until one observes no drift and does not
	// refresh.
	converged := false
	for i := 0; i < 5; i++ {
		rs := maintain()
		if !rs.Refreshed && rs.DirtyDocs == 0 && rs.Drift == 0 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("maintenance loop did not converge")
	}

	// From-scratch reference: the live documents in original add order.
	live := map[int]string{}
	for i, doc := range docs {
		if i != 2 && i != 7 { // removed above
			live[i] = doc
		}
	}
	corpus, ref := fromScratch(t, cfg, refDelta, live)

	// With the index on, the service must actually be using it: the stats
	// surface reports a live index and counter movement.
	if st := s.Stats(); mode != xmlclust.RepIndexOff {
		if st.IndexedReps == 0 {
			t.Error("index on but stats report no indexed representatives")
		}
		if st.IndexCandidates+st.IndexSkipped == 0 {
			t.Error("index on but no index counter movement")
		}
	} else if st.IndexEntries != 0 || st.IndexCandidates+st.IndexSkipped != 0 {
		t.Errorf("index off but stats report index activity: %+v", st)
	}

	// Assignments must match transaction for transaction.
	got := s.Assignment()
	if len(got) != len(ref.Assign) {
		t.Fatalf("incremental state has %d transactions, from-scratch %d", len(got), len(ref.Assign))
	}
	for i := range got {
		if got[i] != ref.Assign[i] {
			t.Errorf("transaction %d: incremental cluster %d, from-scratch %d", i, got[i], ref.Assign[i])
		}
	}

	// Representatives must match item set for item set. Both corpora were
	// built from identical documents in identical order, so item ids are
	// directly comparable.
	reps := s.Representatives()
	if len(reps) != len(ref.Reps) {
		t.Fatalf("incremental state has %d representatives, from-scratch %d", len(reps), len(ref.Reps))
	}
	for j := range reps {
		switch {
		case reps[j] == nil && ref.Reps[j] == nil:
		case reps[j] == nil || ref.Reps[j] == nil:
			t.Errorf("representative %d: nil mismatch (incremental %v, from-scratch %v)", j, reps[j], ref.Reps[j])
		case !reps[j].Equal(ref.Reps[j]):
			t.Errorf("representative %d: item sets differ\nincremental:  %v\nfrom-scratch: %v",
				j, reps[j].Items, ref.Reps[j].Items)
		}
	}

	// And the document-level view agrees with DocumentClusters on the
	// reference run.
	refDocs := xmlclust.DocumentClusters(corpus, ref.Assign)
	i := 0
	for _, info := range s.Documents() {
		if info.Removed {
			continue
		}
		if want := refDocs[i]; info.Cluster != want {
			t.Errorf("doc %d (service id %d): incremental cluster %d, from-scratch %d", i, info.ID, info.Cluster, want)
		}
		i++
	}
}
