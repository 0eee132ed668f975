package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xmlclust"
)

// serveDocs is a small two-topic collection, separable at k=2: conference
// papers vs lab reports, with distinct tags, authors and vocabulary.
func serveDocs(n int) []string {
	var docs []string
	for i := 0; i < n; i++ {
		docs = append(docs, fmt.Sprintf(`<db><paper key="p%d">
			<writer>alice cooper</writer>
			<name>mining frequent patterns number%d</name>
			<venue>KDD</venue>
		</paper></db>`, i, i))
	}
	for i := 0; i < n; i++ {
		docs = append(docs, fmt.Sprintf(`<db><report key="r%d">
			<editor>bob dylan</editor>
			<heading>routing wireless networks number%d</heading>
			<lab>NETLAB</lab>
		</report></db>`, i, i))
	}
	return docs
}

func serveConfig() Config {
	// γ = 0.3 lets same-topic items match while cross-topic similarity
	// stays zero, so the two topics separate for any initial seed.
	return Config{K: 2, F: 0.5, Gamma: 0.3, Seed: 7, Workers: 1}
}

func addAll(t *testing.T, s *Service, docs []string) {
	t.Helper()
	for i, doc := range docs {
		if _, err := s.AddDocument(context.Background(), fmt.Sprintf("doc%d", i), []byte(doc), -1); err != nil {
			t.Fatalf("AddDocument %d: %v", i, err)
		}
	}
}

// walkCluster is QueryCluster as a walk over every document that recomputes
// each live document's majority from the assignment: the oracle of the
// member lists.
func walkCluster(s *Service, cl int) []DocInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []DocInfo
	for id, rec := range s.docs {
		if r, ok := s.snap.ranges[id]; ok && xmlclust.MajorityCluster(s.snap.assign[r[0]:r[1]]) == cl {
			out = append(out, DocInfo{ID: id, Name: rec.name, Label: rec.label, Cluster: cl, Transactions: r[1] - r[0]})
		}
	}
	return out
}

// TestQueryClusterMatchesDocuments runs a seeded history of adds (some
// with a canceled context, which parks the document in the trash until
// maintenance moves it), removals, maintenance rounds and refreshes. After
// every step each cluster's QueryCluster, and Stats' counts, equal the
// walk over every document, and a query's slice has no spare capacity.
func TestQueryClusterMatchesDocuments(t *testing.T) {
	cfg := serveConfig()
	cfg.DriftThreshold = 10 // maintenance re-relocates; refreshes come from the history
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(55))
	docs := serveDocs(12)
	next, reassigned := 0, 0
	for step := 0; step < 80; step++ {
		var what string
		switch op := rng.Intn(10); {
		case op < 5 && next < len(docs):
			ctx := context.Background()
			what = "add"
			if rng.Intn(3) == 0 {
				ctx, what = canceled, "canceled add"
			}
			if _, err := s.AddDocument(ctx, fmt.Sprint("doc", next), []byte(docs[next]), next%2); err != nil && ctx != canceled {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			next++
		case op < 7:
			what = "remove"
			s.RemoveDocument(rng.Intn(next + 1))
		case op < 9:
			what = "maintenance"
			rs, err := s.MaintenanceRound(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			reassigned += rs.Reassigned
		default:
			what = "refresh"
			if err := s.Refresh(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		for _, cl := range []int{xmlclust.TrashCluster, 0, 1} {
			got, want := s.QueryCluster(cl), walkCluster(s, cl)
			if !reflect.DeepEqual(got, want) || cap(got) != len(got) {
				t.Fatalf("step %d (%s): QueryCluster(%d) = %v (cap %d), the walk gives %v", step, what, cl, got, cap(got), want)
			}
			n := st.Trash
			if cl >= 0 {
				n = st.ClusterSizes[cl]
			}
			if n != len(want) {
				t.Fatalf("step %d (%s): Stats counts %d documents in cluster %d, the walk %d", step, what, n, cl, len(want))
			}
		}
	}
	if reassigned == 0 || s.Stats().Refreshes == 0 {
		t.Fatalf("the history reassigned %d transactions in maintenance and refreshed %d times; it must do both", reassigned, s.Stats().Refreshes)
	}
}

func TestServiceAddClassifyQuery(t *testing.T) {
	s, err := NewService(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	docs := serveDocs(4)
	addAll(t, s, docs)

	// Before any refresh there are no representatives: everything is trash.
	st := s.Stats()
	if st.Docs != 8 || st.LiveDocs != 8 {
		t.Fatalf("stats %+v, want 8 live docs", st)
	}
	if st.Trash != 8 {
		t.Fatalf("before the first refresh every doc should be trash, got %+v", st)
	}

	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Trash != 0 {
		t.Fatalf("after refresh no doc should be trash: %+v", st)
	}
	// The two topics must separate: each cluster holds exactly one topic.
	var clusters [2][]int
	for _, info := range s.Documents() {
		if info.Cluster < 0 || info.Cluster > 1 {
			t.Fatalf("doc %d in cluster %d", info.ID, info.Cluster)
		}
		clusters[info.Cluster] = append(clusters[info.Cluster], info.ID)
	}
	for cl, members := range clusters {
		if len(members) != 4 {
			t.Fatalf("cluster %d has members %v, want 4", cl, members)
		}
		for _, id := range members[1:] {
			if (id < 4) != (members[0] < 4) {
				t.Fatalf("cluster %d mixes topics: %v", cl, members)
			}
		}
	}

	// QueryCluster agrees with Documents.
	for cl := 0; cl < 2; cl++ {
		if got := s.QueryCluster(cl); len(got) != 4 {
			t.Fatalf("QueryCluster(%d) returned %d docs, want 4", cl, len(got))
		}
	}

	// Classify a held-out document of each topic (read-only): it must land
	// with its topic and must not change any state.
	before := s.Assignment()
	paperCl := s.Documents()[0].Cluster
	reportCl := 1 - paperCl
	held := []struct {
		xml  string
		want int
	}{
		{`<db><paper key="px"><writer>alice cooper</writer><name>mining frequent patterns holdout</name><venue>KDD</venue></paper></db>`, paperCl},
		{`<db><report key="rx"><editor>bob dylan</editor><heading>routing wireless networks holdout</heading><lab>NETLAB</lab></report></db>`, reportCl},
	}
	for _, h := range held {
		res, err := s.Classify(context.Background(), []byte(h.xml))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cluster != h.want {
			t.Fatalf("held-out doc classified to %d, want %d", res.Cluster, h.want)
		}
	}
	after := s.Assignment()
	if len(before) != len(after) {
		t.Fatalf("Classify changed the assignment length: %d → %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("Classify mutated assignment at %d", i)
		}
	}
	if st2 := s.Stats(); st2.Docs != st.Docs || st2.Refreshes != st.Refreshes {
		t.Fatalf("Classify mutated service stats: %+v vs %+v", st2, st)
	}
}

func TestServiceRemoveDocument(t *testing.T) {
	s, err := NewService(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, s, serveDocs(3))
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	info, err := s.RemoveDocument(0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Removed {
		t.Fatal("RemoveDocument did not report the doc as removed")
	}
	if _, err := s.RemoveDocument(0); !errors.Is(err, ErrRemovedDocument) {
		t.Fatalf("double remove: got %v, want ErrRemovedDocument", err)
	}
	if _, err := s.RemoveDocument(99); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("unknown id: got %v, want ErrUnknownDocument", err)
	}
	if _, err := s.RemoveDocument(-1); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("negative id: got %v, want ErrUnknownDocument", err)
	}

	st := s.Stats()
	if st.RemovedDocs != 1 || st.LiveDocs != 5 {
		t.Fatalf("stats after remove: %+v", st)
	}
	if st.DirtyTxns == 0 {
		t.Fatal("removal must count as drift")
	}

	// The next refresh drops the removed document entirely.
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, info := range s.Documents() {
		if info.ID == 0 {
			if !info.Removed || info.Transactions != 0 {
				t.Fatalf("removed doc still materialized: %+v", info)
			}
		} else if info.Transactions == 0 {
			t.Fatalf("live doc %d lost its transactions", info.ID)
		}
	}
	if st := s.Stats(); st.DirtyTxns != 0 {
		t.Fatalf("refresh must clear drift: %+v", st)
	}
}

func TestServiceMaintenanceTriggersRefresh(t *testing.T) {
	cfg := serveConfig()
	cfg.DriftThreshold = 0.5
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := serveDocs(4)
	addAll(t, s, docs[:6])
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One more doc on six live: drift 1/7 < 0.5 → no refresh.
	addAll(t, s, docs[6:7])
	rs, err := s.MaintenanceRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Refreshed {
		t.Fatalf("round refreshed below threshold: %+v", rs)
	}
	if rs.DirtyDocs != 1 {
		t.Fatalf("round re-relocated %d docs, want 1", rs.DirtyDocs)
	}
	if st := s.Stats(); st.DirtyDocs != 0 {
		t.Fatalf("maintenance must clear the dirty set: %+v", st)
	}

	// Remove enough to cross the threshold.
	for id := 0; id < 4; id++ {
		if _, err := s.RemoveDocument(id); err != nil {
			t.Fatal(err)
		}
	}
	rs, err = s.MaintenanceRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Refreshed {
		t.Fatalf("round did not refresh above threshold: %+v drift=%g", rs, rs.Drift)
	}
	if st := s.Stats(); st.Refreshes != 2 || st.DirtyTxns != 0 {
		t.Fatalf("stats after refreshing round: %+v", st)
	}
}

func TestServiceCancellation(t *testing.T) {
	s, err := NewService(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, s, serveDocs(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Refresh(ctx); !errors.Is(err, xmlclust.ErrCanceled) {
		t.Fatalf("canceled refresh: got %v, want ErrCanceled", err)
	}
	// The old (pre-refresh) snapshot must survive a failed refresh.
	if st := s.Stats(); st.Refreshes != 0 || st.LiveDocs != 6 {
		t.Fatalf("failed refresh corrupted state: %+v", st)
	}
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Refreshes != 1 || st.Trash != 0 {
		t.Fatalf("retry after canceled refresh: %+v", st)
	}
}

func TestNewServiceValidation(t *testing.T) {
	cases := []Config{
		{K: 0, F: 0.5, Gamma: 0.5},
		{K: 2, F: -0.1, Gamma: 0.5},
		{K: 2, F: 0.5, Gamma: 1.5},
		{K: 2, F: 0.5, Gamma: 0.5, Workers: -1},
		{K: 2, F: 0.5, Gamma: 0.5, MaxRounds: -3},
	}
	for i, cfg := range cases {
		_, err := NewService(cfg)
		var oe *xmlclust.OptionsError
		if !errors.As(err, &oe) {
			t.Errorf("case %d (%+v): got %v, want *OptionsError", i, cfg, err)
		}
	}
}
