package corpus_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xmlclust/internal/corpus"
	"xmlclust/internal/dataset"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// saveBytes serializes a corpus; Save covers paths, terms, items (with
// vectors) and transactions, so equal bytes mean equal corpora in every
// field the clustering pipeline reads.
func saveBytes(t testing.TB, c *txn.Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchFromFiles is the legacy pipeline: parse everything, hold all trees,
// batch-build, weight.
func batchFromFiles(t testing.TB, paths []string, maxTuples int) *txn.Corpus {
	t.Helper()
	var trees []*xmltree.Tree
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := xmltree.Parse(f, xmltree.DefaultParseOptions())
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		tree.Name = p
		trees = append(trees, tree)
	}
	c := txn.Build(trees, txn.BuildOptions{Tuple: tuple.Options{MaxTuplesPerTree: maxTuples}})
	weighting.Apply(c)
	return c
}

// renderCollection writes a generated collection to dir as XML files in
// document order and returns the sorted file paths.
func renderCollection(t testing.TB, col *dataset.Collection, dir string) []string {
	t.Helper()
	paths := make([]string, len(col.Trees))
	for i, tree := range col.Trees {
		p := filepath.Join(dir, fmt.Sprintf("%s-%04d.xml", col.Name, i))
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := xmltree.Render(f, tree); err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	return paths
}

// fuzzShapedDocs are adversarial inputs in the shape the parser fuzzer
// exercises: deep nesting, repeated siblings (tuple blow-up), attributes,
// mixed text, unicode, empty elements, entities.
var fuzzShapedDocs = []string{
	`<r><a><b><c><d><e>deep</e></d></c></b></a></r>`,
	`<r><x>1</x><x>2</x><x>3</x><y>a</y><y>b</y></r>`,
	`<r a="1" b="2"><c d="3">text</c><c d="4">more</c></r>`,
	`<r>mixed <b>bold</b> tail</r>`,
	`<r><empty/><empty/><full>x</full></r>`,
	`<r><u>héllo wörld — ünïcode ✓</u><u>ασδφ</u></r>`,
	`<r>&amp;&lt;&gt; entities</r>`,
	`<r><a/></r>`,
	`<root><p><q>v</q></p><p><q>w</q></p><p><q>v</q></p></root>`,
	`<r><long>` + string(bytes.Repeat([]byte("word "), 200)) + `</long></r>`,
}

func TestBuildEquivalentToBatchOnRealCorpus(t *testing.T) {
	col := dataset.DBLP(dataset.Spec{Docs: 40, Seed: 424242})
	dir := t.TempDir()
	paths := renderCollection(t, col, dir)
	const maxTuples = 24

	want := saveBytes(t, batchFromFiles(t, paths, maxTuples))
	for _, workers := range []int{1, 2, 8} {
		src, err := corpus.Dir(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, stats, err := corpus.Build(src, corpus.Options{
			Tuple:   tuple.Options{MaxTuplesPerTree: maxTuples},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, c); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: streaming corpus differs from batch (%d vs %d bytes)", workers, len(got), len(want))
		}
		if stats.Docs != len(paths) {
			t.Fatalf("workers=%d: ingested %d docs, want %d", workers, stats.Docs, len(paths))
		}
		if stats.Transactions != len(c.Transactions) || stats.Items != c.Items.Len() || stats.Terms != c.Terms.Len() {
			t.Fatalf("workers=%d: stats %+v disagree with corpus", workers, stats)
		}
	}
}

func TestBuildEquivalentToBatchOnFuzzShapedInputs(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, doc := range fuzzShapedDocs {
		p := filepath.Join(dir, fmt.Sprintf("fuzz-%02d.xml", i))
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	want := saveBytes(t, batchFromFiles(t, paths, 0))
	for _, workers := range []int{1, 2, 8} {
		src, err := corpus.Dir(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := corpus.Build(src, corpus.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, c); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: streaming corpus differs from batch on fuzz-shaped inputs", workers)
		}
	}
}

func TestBuildTreeSourceEquivalentToBatchWithLabels(t *testing.T) {
	col := dataset.IEEE(dataset.Spec{Docs: 24, Seed: 424242})
	labels, _ := col.Labels(dataset.ByHybrid)
	batch := txn.Build(col.Trees, txn.BuildOptions{
		Tuple:  tuple.Options{MaxTuplesPerTree: 32},
		Labels: labels,
	})
	weighting.Apply(batch)
	want := saveBytes(t, batch)

	for _, workers := range []int{1, 2, 8} {
		c, _, err := corpus.Build(col.Source(dataset.ByHybrid), corpus.Options{
			Tuple:   tuple.Options{MaxTuplesPerTree: 32},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, c); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: tree-source streaming corpus differs from batch", workers)
		}
		// Labels ride along per document on the streaming path.
		for i, tr := range c.Transactions {
			if tr.Label != batch.Transactions[i].Label {
				t.Fatalf("workers=%d: transaction %d label %d, want %d", workers, i, tr.Label, batch.Transactions[i].Label)
			}
		}
	}
}

func TestBuildTarEquivalentToDir(t *testing.T) {
	col := dataset.Shakespeare(dataset.Spec{Docs: 4, Seed: 424242})
	dir := t.TempDir()
	renderCollection(t, col, dir)

	dsrc, err := corpus.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fromDir, _, err := corpus.Build(dsrc, corpus.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Pack the same files into an in-memory tar.gz and ingest that.
	var tarBytes bytes.Buffer
	writeTarGz(t, &tarBytes, dir)
	tsrc, err := corpus.Tar(bytes.NewReader(tarBytes.Bytes()), "mem.tar.gz")
	if err != nil {
		t.Fatal(err)
	}
	fromTar, _, err := corpus.Build(tsrc, corpus.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, fromDir), saveBytes(t, fromTar)) {
		t.Fatal("tar.gz ingest differs from directory ingest of the same files")
	}
}

// writeTarGz packs every file under dir into a gzipped tar in lexical
// order (matching the Dir source's document order).
func writeTarGz(t testing.TB, w *bytes.Buffer, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.WriteHeader(&tar.Header{Name: e.Name(), Mode: 0o644, Size: int64(len(data))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildBoundedQueue(t *testing.T) {
	col := dataset.DBLP(dataset.Spec{Docs: 60, Seed: 424242})
	for _, workers := range []int{2, 4} {
		window := 2 * workers
		_, stats, err := corpus.Build(col.Source(dataset.ByHybrid), corpus.Options{
			Tuple:   tuple.Options{MaxTuplesPerTree: 16},
			Workers: workers,
			Window:  window,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.PeakQueuedTrees > window {
			t.Fatalf("workers=%d: peak queued %d exceeds window %d — ingest is not bounded-memory",
				workers, stats.PeakQueuedTrees, window)
		}
		if stats.Docs != 60 {
			t.Fatalf("docs %d, want 60", stats.Docs)
		}
	}
}

func TestBuildParseErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.xml"), []byte("   "), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := corpus.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := corpus.Build(src, corpus.Options{Workers: 2}); err == nil {
		t.Fatal("document with no root element should fail the build")
	}
}

// dblpTar renders n generated DBLP documents into an in-memory tar.
func dblpTar(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for i, tree := range dataset.DBLP(dataset.Spec{Docs: n, Seed: 5}).Trees {
		doc := xmltree.RenderString(tree)
		if err := tw.WriteHeader(&tar.Header{Name: fmt.Sprintf("dblp-%04d.xml", i), Mode: 0o644, Size: int64(len(doc))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildAllocationBound guards what ingest allocates per document: the
// fold of a document into the ttf.itf accumulator touches no map, leaves
// are interned and their paths built once per node rather than once per
// tuple that retains them, tokens are stemmed once per distinct token, and
// an in-memory document is decoded without a bufio.Reader of its own.
// Building 500 DBLP documents from a tar measures 8.1 MB (9.5 MB under the
// race detector, which CI runs this with); the parent of that change —
// map-based fold, per-occurrence interning — measured 13.2 MB on the same
// input. The bound is 1.3× the mean of the two measurements.
func TestBuildAllocationBound(t *testing.T) {
	archive := dblpTar(t, 500)
	build := func() {
		src, err := corpus.Tar(bytes.NewReader(archive), "dblp.tar")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := corpus.Build(src, corpus.Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	build() // the first build pays for whatever the runtime and the libraries set up lazily
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	const boundMB = 11.5
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > boundMB {
		t.Errorf("building 500 DBLP documents allocated %.1f MB, want at most %.1f MB", mb, boundMB)
	} else {
		t.Logf("building 500 DBLP documents allocated %.1f MB (bound %.1f MB)", mb, boundMB)
	}
}
