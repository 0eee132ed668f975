package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xmlclust"
)

// referenceRun is the in-process run the peer processes are compared with, on
// the reference engine (DeltaRoundsOff) while the spawned processes run the
// default fast one with its digest-marker exchange over real TCP — so every
// equality against it gates cross-engine byte-identity end to end.
func referenceRun(t *testing.T, corpus *xmlclust.Corpus, opts xmlclust.ClusterOptions) *xmlclust.Result {
	t.Helper()
	eng, err := xmlclust.NewEngine(corpus, xmlclust.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts.DeltaRounds = xmlclust.DeltaRoundsOff
	res, err := eng.Cluster(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// e2eDocs is a small two-topic collection, separable at k=2.
func e2eDocs() []string {
	var docs []string
	for i := 0; i < 6; i++ {
		docs = append(docs, fmt.Sprintf(`<db><paper key="p%d">
			<writer>alice cooper</writer>
			<name>mining frequent patterns number%d</name>
			<venue>KDD</venue>
		</paper></db>`, i, i))
	}
	for i := 0; i < 6; i++ {
		docs = append(docs, fmt.Sprintf(`<db><report key="r%d">
			<editor>bob dylan</editor>
			<heading>routing wireless networks number%d</heading>
			<lab>NETLAB</lab>
		</report></db>`, i, i))
	}
	return docs
}

// e2eCorpus builds the collection in memory and returns it plus the path of
// its serialized form (the file every peer process loads).
func e2eCorpus(t *testing.T, dir string) (*xmlclust.Corpus, string) {
	t.Helper()
	var trees []*xmlclust.Tree
	for _, doc := range e2eDocs() {
		tree, err := xmlclust.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	corpus := xmlclust.BuildCorpus(trees, xmlclust.CorpusOptions{})
	path := filepath.Join(dir, "corpus.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlclust.SaveCorpus(f, corpus); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return corpus, path
}

// reservePorts picks n distinct loopback addresses that are free right now.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
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
	return addrs
}

// buildPeerBinary compiles cxkpeer into dir (skipping when no toolchain).
func buildPeerBinary(t *testing.T, dir string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	bin := filepath.Join(dir, "cxkpeer")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cxkpeer: %v\n%s", err, out)
	}
	return bin
}

// runThreeProcs launches a 3-peer cluster as 3 OS processes over loopback
// with the given -corpus argument and returns the coordinator's corpus-wide
// assignment.
func runThreeProcs(t *testing.T, bin, corpusArg string, k int, seed int64) map[int]int {
	t.Helper()
	addrs := reservePorts(t, 3)
	peers := strings.Join(addrs, ",")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var coordOut bytes.Buffer
	procs := make([]*exec.Cmd, 3)
	// Start the followers first, the coordinator last: the dial-retry in
	// the Node transport must absorb any start order anyway.
	for _, id := range []int{1, 2, 0} {
		cmd := exec.CommandContext(ctx, bin,
			"-id", fmt.Sprint(id),
			"-peers", peers,
			"-corpus", corpusArg,
			"-k", fmt.Sprint(k),
			"-f", "0.5",
			"-gamma", "0.7",
			"-seed", fmt.Sprint(seed),
			"-dial-timeout", "30s",
		)
		cmd.Stderr = os.Stderr
		if id == 0 {
			cmd.Stdout = &coordOut
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting peer %d: %v", id, err)
		}
		procs[id] = cmd
	}
	for id, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("peer %d exited with error: %v", id, err)
		}
	}

	got := make(map[int]int)
	sc := bufio.NewScanner(bytes.NewReader(coordOut.Bytes()))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var idx, cl int
		if _, err := fmt.Sscanf(line, "%d\t%d", &idx, &cl); err != nil {
			t.Fatalf("unparsable coordinator output %q: %v", line, err)
		}
		got[idx] = cl
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

func assertAssignEqual(t *testing.T, got map[int]int, want []int, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: coordinator reported %d assignments, want %d", label, len(got), len(want))
	}
	for i, a := range want {
		if got[i] != a {
			t.Fatalf("%s: assignment %d differs: 3-process run %d vs in-process %d", label, i, got[i], a)
		}
	}
}

// TestE2EThreeProcessEquivalence is the acceptance check of the distributed
// runtime: a 3-peer cluster running as 3 separate OS processes over real
// loopback TCP must produce assignments identical to the in-process
// ChanTransport engine for the same seed, k, f, γ.
func TestE2EThreeProcessEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildPeerBinary(t, dir)
	corpus, corpusPath := e2eCorpus(t, dir)
	const k, seed = 2, 4
	want := referenceRun(t, corpus, xmlclust.ClusterOptions{K: k, F: 0.5, Gamma: 0.7, Peers: 3, Seed: seed})
	got := runThreeProcs(t, bin, corpusPath, k, seed)
	assertAssignEqual(t, got, want.Assign, "gob corpus")
}

// TestE2ERawDirectoryCorpus points every peer process at a raw XML
// directory instead of a preprocessed gob: each peer ingests the directory
// through the streaming pipeline independently, and because ingestion is
// deterministic the cluster still reproduces the in-process assignments —
// no separate preprocessing step required.
func TestE2ERawDirectoryCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildPeerBinary(t, dir)

	xmlDir := filepath.Join(dir, "docs")
	if err := os.MkdirAll(xmlDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, doc := range e2eDocs() {
		if err := os.WriteFile(filepath.Join(xmlDir, fmt.Sprintf("doc-%02d.xml", i)), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src, err := xmlclust.DirSource(xmlDir)
	if err != nil {
		t.Fatal(err)
	}
	corpus, _, err := xmlclust.BuildCorpusFromSource(src, xmlclust.CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const k, seed = 2, 4
	want := referenceRun(t, corpus, xmlclust.ClusterOptions{K: k, F: 0.5, Gamma: 0.7, Peers: 3, Seed: seed})
	got := runThreeProcs(t, bin, xmlDir, k, seed)
	assertAssignEqual(t, got, want.Assign, "raw directory corpus")
}
