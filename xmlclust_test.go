package xmlclust

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var sampleDocs = []string{
	`<catalog><sw key="a1"><name>photo editor deluxe</name><vendor>acme soft</vendor><platform>linux</platform></sw></catalog>`,
	`<catalog><sw key="a2"><name>photo editor classic</name><vendor>acme soft</vendor><platform>windows</platform></sw></catalog>`,
	`<catalog><sw key="a3"><name>photo viewer basic</name><vendor>acme soft</vendor><platform>linux</platform></sw></catalog>`,
	`<catalog><game key="b1"><title>space battle arena</title><studio>pixel works</studio><genre>arcade shooter</genre></game></catalog>`,
	`<catalog><game key="b2"><title>space battle legends</title><studio>pixel works</studio><genre>arcade shooter</genre></game></catalog>`,
	`<catalog><game key="b3"><title>castle battle siege</title><studio>pixel works</studio><genre>strategy battle</genre></game></catalog>`,
}

func sampleCorpus(t testing.TB) *Corpus {
	t.Helper()
	var trees []*Tree
	labels := []int{0, 0, 0, 1, 1, 1}
	for _, d := range sampleDocs {
		tree, err := ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	return BuildCorpus(trees, CorpusOptions{Labels: labels})
}

func TestEndToEndPipeline(t *testing.T) {
	corpus := sampleCorpus(t)
	if len(corpus.Transactions) != 6 {
		t.Fatalf("transactions = %d, want 6", len(corpus.Transactions))
	}
	bestF := -1.0
	for seed := int64(1); seed <= 5; seed++ {
		res, err := freshEngine(t, corpus).Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if s := Evaluate(Labels(corpus), res.Assign, 2); s.FMeasure > bestF {
			bestF = s.FMeasure
		}
	}
	if bestF < 0.9 {
		t.Errorf("best F = %v on separable catalog", bestF)
	}
}

func TestClusterMultiPeer(t *testing.T) {
	corpus := sampleCorpus(t)
	res, err := freshEngine(t, corpus).Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Peers: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Error("no rounds recorded")
	}
	if res.TrafficMsgs == 0 || res.TrafficBytes == 0 {
		t.Error("no traffic recorded for m=3")
	}
	if res.SimulatedTime <= 0 || res.WallTime <= 0 {
		t.Error("times not recorded")
	}
}

// TestClusterDistributed drives the one-process-per-peer surface: three
// concurrent ClusterDistributed calls (each with its own Node transport and
// similarity context, exactly as three OS processes would run) must agree
// with the in-process engine for the same parameters.
func TestClusterDistributed(t *testing.T) {
	corpus := sampleCorpus(t)
	want, err := freshEngine(t, corpus).Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Peers: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Reserve three loopback addresses for the shared peer table.
	addrs := make([]string, 3)
	listeners := make([]net.Listener, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	results := make([]*DistributedResult, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		eng := freshEngine(t, corpus) // one per simulated process
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.ClusterDistributed(context.Background(), DistributedOptions{
				K: 2, F: 0.5, Gamma: 0.6, ID: i, PeerAddrs: addrs, Seed: 4,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	if results[0].Assign == nil {
		t.Fatal("coordinator carries no corpus-wide assignment")
	}
	for i, a := range want.Assign {
		if results[0].Assign[i] != a {
			t.Fatalf("assignment %d differs: distributed %d vs in-process %d", i, results[0].Assign[i], a)
		}
	}
	refDigest := RepsDigest(corpus, want.Reps)
	for i := 0; i < 3; i++ {
		if results[i].RepsDigest != refDigest {
			t.Errorf("peer %d reps digest %016x, in-process run %016x", i, results[i].RepsDigest, refDigest)
		}
	}
	for i := 1; i < 3; i++ {
		if results[i].Assign != nil {
			t.Errorf("peer %d reports a corpus-wide assignment", i)
		}
		if len(results[i].LocalAssign) == 0 {
			t.Errorf("peer %d reports no local assignment", i)
		}
	}
}

// TestDistributedFabricValidation covers the option cross-checks of the
// elastic fabric surface: fabric features without a checkpoint dir,
// negative fabric knobs, and the coordinator restriction.
func TestDistributedFabricValidation(t *testing.T) {
	corpus := sampleCorpus(t)
	addrs := []string{"127.0.0.1:9", "127.0.0.1:9"} // never dialed: validation fails first
	base := DistributedOptions{K: 2, F: 0.5, Gamma: 0.6, PeerAddrs: addrs, Seed: 4}

	bad := []struct {
		name   string
		mutate func(*DistributedOptions)
	}{
		{"join without fabric", func(o *DistributedOptions) { o.ID = 1; o.Join = true }},
		{"leave without fabric", func(o *DistributedOptions) { o.ID = 1; o.Leave = make(chan struct{}) }},
		{"debug addr without fabric", func(o *DistributedOptions) { o.ID = 1; o.DebugAddr = "127.0.0.1:0" }},
		{"failpoint without fabric", func(o *DistributedOptions) { o.ID = 1; o.FailpointRound = 1 }},
	}
	for _, tc := range bad {
		opts := base
		tc.mutate(&opts)
		if _, err := freshEngine(t, corpus).ClusterDistributed(context.Background(), opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Negative fabric knobs and a negative DialTimeout are typed errors
	// naming the field, not silent defaults or a silently disabled drill.
	// They are rejected before anything listens: the peer's own address is
	// held here, so reaching Listen would fail with a plain error instead.
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, tc := range []struct {
		field  string
		mutate func(*DistributedOptions)
	}{
		{"CheckpointEvery", func(o *DistributedOptions) { o.CheckpointEvery = -1 }},
		{"RecoveryWindows", func(o *DistributedOptions) { o.RecoveryWindows = -2 }},
		{"FailpointRound", func(o *DistributedOptions) { o.FailpointRound = -1 }},
		{"DialTimeout", func(o *DistributedOptions) { o.DialTimeout = -1 }},
	} {
		opts := base
		opts.ID, opts.CheckpointDir = 1, t.TempDir()
		opts.PeerAddrs = []string{addrs[0], busy.Addr().String()}
		tc.mutate(&opts)
		_, err := freshEngine(t, corpus).ClusterDistributed(context.Background(), opts)
		var oe *OptionsError
		if !errors.As(err, &oe) || oe.Field != tc.field {
			t.Errorf("negative %s: want an *OptionsError naming it, got %v", tc.field, err)
		}
	}

	opts := base
	opts.CheckpointDir = t.TempDir()
	opts.Join = true
	if _, err := freshEngine(t, corpus).ClusterDistributed(context.Background(), opts); !errors.Is(err, ErrCoordinatorLost) {
		t.Errorf("coordinator join: want ErrCoordinatorLost, got %v", err)
	}
}

func TestClusterPKMeansBaseline(t *testing.T) {
	corpus := sampleCorpus(t)
	res, err := freshEngine(t, corpus).Cluster(context.Background(), ClusterOptions{
		K: 2, F: 0.5, Gamma: 0.6, Peers: 2, Seed: 4, Algorithm: PKMeans,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != len(corpus.Transactions) {
		t.Error("assignment size mismatch")
	}
}

func TestClusterValidation(t *testing.T) {
	corpus := sampleCorpus(t)
	if _, err := freshEngine(t, corpus).Cluster(context.Background(), ClusterOptions{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
}

func TestDocumentClustersMajority(t *testing.T) {
	corpus := sampleCorpus(t)
	assign := make([]int, len(corpus.Transactions))
	for i := range assign {
		if corpus.Transactions[i].Doc < 3 {
			assign[i] = 0
		} else {
			assign[i] = 1
		}
	}
	dc := DocumentClusters(corpus, assign)
	for doc, cl := range dc {
		want := 0
		if doc >= 3 {
			want = 1
		}
		if cl != want {
			t.Errorf("doc %d → cluster %d, want %d", doc, cl, want)
		}
	}
}

// multiTupleCorpus builds a corpus whose documents each decompose into
// several transactions, so majority voting has real work to do.
func multiTupleCorpus(t *testing.T) *Corpus {
	t.Helper()
	docs := []string{
		`<catalog><sw key="a1"><name>photo editor</name></sw><sw key="a2"><name>photo viewer</name></sw><sw key="a3"><name>photo printer</name></sw></catalog>`,
		`<catalog><game key="b1"><title>space battle</title></game><game key="b2"><title>space race</title></game><game key="b3"><title>space siege</title></game></catalog>`,
	}
	var trees []*Tree
	for _, d := range docs {
		tree, err := ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	corpus := BuildCorpus(trees, CorpusOptions{})
	perDoc := map[int]int{}
	for _, tr := range corpus.Transactions {
		perDoc[tr.Doc]++
	}
	for doc, n := range perDoc {
		if n < 3 {
			t.Fatalf("test corpus assumption broken: doc %d has %d transactions, need ≥ 3", doc, n)
		}
	}
	return corpus
}

// TestDocumentClustersTieBreak pins the documented tie rule: equal vote
// counts go to the LOWER cluster id, regardless of vote order.
func TestDocumentClustersTieBreak(t *testing.T) {
	corpus := multiTupleCorpus(t)
	assign := make([]int, len(corpus.Transactions))
	// Per document: first transaction → cluster 5, second → cluster 2,
	// remaining → trash. 5 and 2 tie on one vote each ⇒ cluster 2 wins.
	seen := map[int]int{}
	for i, tr := range corpus.Transactions {
		switch seen[tr.Doc] {
		case 0:
			assign[i] = 5
		case 1:
			assign[i] = 2
		default:
			assign[i] = TrashCluster
		}
		seen[tr.Doc]++
	}
	for doc, cl := range DocumentClusters(corpus, assign) {
		if cl != 2 {
			t.Errorf("doc %d: tie resolved to %d, want lower id 2", doc, cl)
		}
	}
}

// TestDocumentClustersTrashNeverOutvotes pins that trash votes are ignored
// while any real cluster got at least one vote: a document with one real
// vote and many trash votes still maps to the real cluster.
func TestDocumentClustersTrashNeverOutvotes(t *testing.T) {
	corpus := multiTupleCorpus(t)
	assign := make([]int, len(corpus.Transactions))
	first := map[int]bool{}
	for i, tr := range corpus.Transactions {
		if !first[tr.Doc] {
			assign[i] = 3
			first[tr.Doc] = true
		} else {
			assign[i] = TrashCluster
		}
	}
	for doc, cl := range DocumentClusters(corpus, assign) {
		if cl != 3 {
			t.Errorf("doc %d: trash outvoted the real cluster (got %d)", doc, cl)
		}
	}
}

// TestDocumentClustersShortAssign pins the behaviour for assignment slices
// shorter than the transaction list: trailing transactions cast no votes,
// and a document whose transactions ALL fall past the end follows the
// documented all-trash rule — it maps to TrashCluster instead of being
// silently dropped from the result (the historical bug).
func TestDocumentClustersShortAssign(t *testing.T) {
	corpus := multiTupleCorpus(t)
	// Cover only the transactions of the first document.
	firstDoc := corpus.Transactions[0].Doc
	n := 0
	for _, tr := range corpus.Transactions {
		if tr.Doc != firstDoc {
			break
		}
		n++
	}
	if n == len(corpus.Transactions) {
		t.Fatal("test needs a second document past the assignment slice")
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = 1
	}
	dc := DocumentClusters(corpus, assign)
	if cl, ok := dc[firstDoc]; !ok || cl != 1 {
		t.Errorf("covered doc %d → %d (present %v), want cluster 1", firstDoc, cl, ok)
	}
	secondDoc := corpus.Transactions[n].Doc
	if cl, ok := dc[secondDoc]; !ok || cl != TrashCluster {
		t.Errorf("uncovered doc %d → %d (present %v), want TrashCluster: every document must appear", secondDoc, cl, ok)
	}
	if len(dc) != 2 {
		t.Errorf("result must cover every document of the corpus; got %v", dc)
	}

	// Empty assignment: no votes at all, every document maps to the trash.
	dc = DocumentClusters(corpus, nil)
	if len(dc) != 2 {
		t.Errorf("nil assignment must still map every document: %v", dc)
	}
	for doc, cl := range dc {
		if cl != TrashCluster {
			t.Errorf("nil assignment: doc %d → %d, want TrashCluster", doc, cl)
		}
	}
}

// TestMajorityCluster pins the exported per-document vote: the same rule
// DocumentClusters applies, usable on a single document's assignment.
func TestMajorityCluster(t *testing.T) {
	cases := []struct {
		name   string
		assign []int
		want   int
	}{
		{"empty", nil, TrashCluster},
		{"all trash", []int{TrashCluster, TrashCluster}, TrashCluster},
		{"majority", []int{2, 1, 2}, 2},
		{"tie to lower id", []int{5, 2, 2, 5}, 2},
		{"trash never outvotes", []int{TrashCluster, TrashCluster, 3}, 3},
		{"single vote", []int{0}, 0},
		{"ids past the stack counts", []int{70, 3, 70, TrashCluster, 3, 200, 70}, 70},
	}
	for _, tc := range cases {
		if got := MajorityCluster(tc.assign); got != tc.want {
			t.Errorf("%s: MajorityCluster(%v) = %d, want %d", tc.name, tc.assign, got, tc.want)
		}
	}
}

func TestDocumentClustersAllTrash(t *testing.T) {
	corpus := sampleCorpus(t)
	assign := make([]int, len(corpus.Transactions))
	for i := range assign {
		assign[i] = TrashCluster
	}
	for doc, cl := range DocumentClusters(corpus, assign) {
		if cl != TrashCluster {
			t.Errorf("doc %d should be trash, got %d", doc, cl)
		}
	}
}

func TestEvaluateScores(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	s := Evaluate(labels, []int{0, 0, 1, 1}, 2)
	if s.FMeasure != 1 || s.Purity != 1 || s.Trash != 0 {
		t.Errorf("perfect scores = %+v", s)
	}
	s = Evaluate(labels, []int{-1, -1, -1, -1}, 2)
	if s.Trash != 1 {
		t.Errorf("all-trash = %+v", s)
	}
}

func TestParseStringErrors(t *testing.T) {
	if _, err := ParseString("not xml"); err == nil {
		t.Error("garbage should fail")
	}
}

func TestParseFilesMissing(t *testing.T) {
	if _, err := ParseFiles([]string{"/nonexistent/file.xml"}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestParseReader(t *testing.T) {
	tree, err := Parse(strings.NewReader("<a><b>text</b></a>"))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Label != "a" {
		t.Errorf("root = %q", tree.Root.Label)
	}
}

func TestSaveLoadCorpus(t *testing.T) {
	corpus := sampleCorpus(t)
	var buf bytes.Buffer
	if err := SaveCorpus(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Transactions) != len(corpus.Transactions) {
		t.Fatalf("transactions %d != %d", len(back.Transactions), len(corpus.Transactions))
	}
	// A loaded corpus clusters identically to the original.
	a, err := freshEngine(t, corpus).Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := freshEngine(t, back).Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment %d differs after save/load", i)
		}
	}
}

// TestClusterWorkersEquivalence asserts the public-API determinism
// guarantee: ClusterOptions.Workers changes only wall time, never output.
func TestClusterWorkersEquivalence(t *testing.T) {
	corpus := sampleCorpus(t)
	run := func(workers int) *Result {
		res, err := freshEngine(t, corpus).Cluster(context.Background(), ClusterOptions{
			K: 2, F: 0.5, Gamma: 0.6, Peers: 2, Workers: workers, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{4, 0} {
		got := run(w)
		if serial.Rounds != got.Rounds {
			t.Errorf("workers=%d: rounds %d vs %d", w, serial.Rounds, got.Rounds)
		}
		for i := range serial.Assign {
			if serial.Assign[i] != got.Assign[i] {
				t.Fatalf("workers=%d: assignment %d differs", w, i)
			}
		}
		for j := range serial.Reps {
			switch {
			case serial.Reps[j] == nil && got.Reps[j] == nil:
			case serial.Reps[j] == nil || got.Reps[j] == nil:
				t.Errorf("workers=%d: rep %d nil-ness differs", w, j)
			case !serial.Reps[j].Equal(got.Reps[j]):
				t.Errorf("workers=%d: rep %d differs", w, j)
			}
		}
	}
}

func writeSampleDir(t testing.TB) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, len(sampleDocs))
	for i, d := range sampleDocs {
		p := filepath.Join(dir, fmt.Sprintf("doc-%02d.xml", i))
		if err := os.WriteFile(p, []byte(d), 0o644); err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	return dir, paths
}

func corpusBytes(t testing.TB, c *Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveCorpus(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBuildCorpusFromSourceMatchesBatch(t *testing.T) {
	dir, paths := writeSampleDir(t)
	trees, err := ParseFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	want := corpusBytes(t, BuildCorpus(trees, CorpusOptions{}))

	for _, workers := range []int{1, 2, 8} {
		src, err := DirSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, stats, err := BuildCorpusFromSource(src, CorpusOptions{IngestWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(corpusBytes(t, c), want) {
			t.Fatalf("workers=%d: streaming corpus differs from batch BuildCorpus", workers)
		}
		if stats.Docs != len(sampleDocs) {
			t.Fatalf("workers=%d: ingested %d docs, want %d", workers, stats.Docs, len(sampleDocs))
		}
		if stats.DocsPerSec() <= 0 {
			t.Fatalf("workers=%d: DocsPerSec = %v", workers, stats.DocsPerSec())
		}
	}
}

func TestTreeSourceCarriesLabels(t *testing.T) {
	labels := []int{0, 0, 0, 1, 1, 1}
	var trees []*Tree
	for _, d := range sampleDocs {
		tree, err := ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	want := corpusBytes(t, sampleCorpus(t))
	c, _, err := BuildCorpusFromSource(TreeSource("sample", trees, labels), CorpusOptions{IngestWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(corpusBytes(t, c), want) {
		t.Fatal("tree-source corpus differs from labeled BuildCorpus")
	}
	for i, l := range Labels(c) {
		if l != labels[c.Transactions[i].Doc] {
			t.Fatalf("transaction %d label %d, want %d", i, l, labels[c.Transactions[i].Doc])
		}
	}
}

func TestClusterFromStreamingCorpus(t *testing.T) {
	dir, _ := writeSampleDir(t)
	src, err := DirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := BuildCorpusFromSource(src, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := freshEngine(t, c).Cluster(context.Background(), ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: 3, Peers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != len(c.Transactions) {
		t.Fatalf("assign len %d, want %d", len(res.Assign), len(c.Transactions))
	}
}

func TestOpenCorpus(t *testing.T) {
	dir, _ := writeSampleDir(t)

	// Raw directory: builds via the streaming pipeline.
	fromDir, stats, err := OpenCorpus(dir, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Docs != len(sampleDocs) {
		t.Fatalf("dir ingest: %d docs, want %d", stats.Docs, len(sampleDocs))
	}

	// Saved gob: loads without ingestion.
	gobPath := filepath.Join(t.TempDir(), "corpus.gob")
	f, err := os.Create(gobPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(f, fromDir); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fromGob, stats, err := OpenCorpus(gobPath, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Docs != 0 {
		t.Fatalf("gob load reported ingestion stats: %+v", stats)
	}
	if !bytes.Equal(corpusBytes(t, fromDir), corpusBytes(t, fromGob)) {
		t.Fatal("gob round trip through OpenCorpus differs")
	}

	// Garbage: a readable error naming both interpretations.
	junk := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(junk, []byte("\x00\x01\x02 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCorpus(junk, CorpusOptions{}); err == nil {
		t.Fatal("garbage should not load")
	} else if !strings.Contains(err.Error(), "neither XML data nor a saved corpus") {
		t.Fatalf("unhelpful error: %v", err)
	}

	if _, _, err := OpenCorpus(filepath.Join(dir, "missing"), CorpusOptions{}); err == nil {
		t.Fatal("missing path should error")
	}
}

func TestDirSourceRequiresXML(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "readme.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DirSource(dir); err == nil {
		t.Fatal("directory without XML documents should error")
	}
}

func TestBuildCorpusFromSourceLabelsFallback(t *testing.T) {
	// File sources carry no labels; CorpusOptions.Labels (document order)
	// must fill them in, matching the batch path exactly.
	dir, paths := writeSampleDir(t)
	labels := []int{0, 0, 0, 1, 1, 1}
	trees, err := ParseFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	want := corpusBytes(t, BuildCorpus(trees, CorpusOptions{Labels: labels}))

	src, err := DirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := BuildCorpusFromSource(src, CorpusOptions{Labels: labels, IngestWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(corpusBytes(t, c), want) {
		t.Fatal("streaming corpus with Labels fallback differs from labeled batch BuildCorpus")
	}
	for i, l := range Labels(c) {
		if want := labels[c.Transactions[i].Doc]; l != want {
			t.Fatalf("transaction %d label %d, want %d", i, l, want)
		}
	}
}
