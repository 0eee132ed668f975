package corpus_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

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
		tree, err := xmltree.Parse(f)
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

// TestBuildBoundedQueue states what bounds ingest memory: the raw XML in
// flight between the source and the merge is at most two batches per
// worker, each of at most BatchBytes plus one document — however large the
// corpus. PeakQueuedTrees counts the extracted documents among those, so
// multiplied by the smallest document it must fit the bound too. The
// archive is several times the bound, so a pipeline that let the source run
// ahead of the merge would show.
func TestBuildBoundedQueue(t *testing.T) {
	const docs = 4000
	archive, smallest, largest := dblpTar(t, docs, "")
	for _, workers := range []int{2, 4} {
		src, err := corpus.Tar(bytes.NewReader(archive), "dblp.tar")
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := corpus.Build(src, corpus.Options{
			Tuple:   tuple.Options{MaxTuplesPerTree: 16},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		bound := corpus.BatchesPerWorker * workers * (corpus.BatchBytes + largest)
		if len(archive) < 3*bound {
			t.Fatalf("workers=%d: a %d-byte archive cannot show a %d-byte bound", workers, len(archive), bound)
		}
		if stats.PeakQueuedTrees < 1 || stats.PeakQueuedTrees*smallest > bound {
			t.Fatalf("workers=%d: %d extracted documents of at least %d bytes queued, over the %d bytes in flight the pipeline allows — ingest is not bounded-memory",
				workers, stats.PeakQueuedTrees, smallest, bound)
		}
		if stats.Docs != docs {
			t.Fatalf("docs %d, want %d", stats.Docs, docs)
		}
	}
}

// mixedDocs is a collection shaped to land on every batch boundary case: a
// document larger than a batch, runs of documents under 100 bytes (hundreds
// to a batch), documents that yield no transaction, and ordinary records.
func mixedDocs() []string {
	var docs []string
	for i, tree := range dataset.DBLP(dataset.Spec{Docs: 150, Seed: 7}).Trees {
		docs = append(docs, xmltree.RenderString(tree))
		switch {
		case i%60 == 30:
			docs = append(docs, "<r><long>"+strings.Repeat("many words ", (corpus.BatchBytes+corpus.BatchBytes/2)/11)+fmt.Sprint(i)+"</long></r>")
		case i%3 == 0:
			for j := 0; j < 25; j++ {
				docs = append(docs, fmt.Sprintf("<r><x>%d</x><y k=\"%d\"/></r>", i, j))
			}
		case i%7 == 0:
			docs = append(docs, "<empty/>", "<r><nothing/> <here/></r>")
		}
	}
	return docs
}

// tarOf packs documents into an in-memory tar, named so that a directory of
// the same files sorts in the same order.
func tarOf(t testing.TB, docs []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for i, doc := range docs {
		if err := tw.WriteHeader(&tar.Header{Name: fmt.Sprintf("doc-%05d.xml", i), Mode: 0o644, Size: int64(len(doc))}); err != nil {
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

// TestBuildEquivalenceMatrix: one collection, every kind of source, every
// worker count — one saved corpus. The sources differ in what the pipeline
// knows of a document before a worker has it (bytes, a file to open, a
// tree), hence in where its batches end; none of that may reach the corpus.
func TestBuildEquivalenceMatrix(t *testing.T) {
	docs := mixedDocs()
	dir := t.TempDir()
	paths := make([]string, len(docs))
	trees := make([]*xmltree.Tree, len(docs))
	sawLarge, sawEmpty := false, false
	for i, doc := range docs {
		paths[i] = filepath.Join(dir, fmt.Sprintf("doc-%05d.xml", i))
		if err := os.WriteFile(paths[i], []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		trees[i] = xmltree.MustParseString(doc)
		sawLarge = sawLarge || len(doc) > corpus.BatchBytes
		sawEmpty = sawEmpty || len(trees[i].Leaves()) == 0
	}
	if !sawLarge || !sawEmpty {
		t.Fatalf("the mix lost a case: larger than a batch %v, without leaves %v", sawLarge, sawEmpty)
	}
	archive := tarOf(t, docs)
	tarSource := func(docs []string) corpus.Source {
		src, err := corpus.Tar(bytes.NewReader(tarOf(t, docs)), "mix.tar")
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	third := len(docs) / 3
	sources := map[string]func() corpus.Source{
		"Tar": func() corpus.Source {
			src, err := corpus.Tar(bytes.NewReader(archive), "mix.tar")
			if err != nil {
				t.Fatal(err)
			}
			return src
		},
		"Dir": func() corpus.Source {
			src, err := corpus.Dir(dir)
			if err != nil {
				t.Fatal(err)
			}
			return src
		},
		"Files": func() corpus.Source { return corpus.Files(paths...) },
		"Trees": func() corpus.Source { return corpus.Trees("mix", trees, nil) },
		"Multi": func() corpus.Source {
			return corpus.Multi(tarSource(docs[:third]), corpus.Files(paths[third:2*third]...),
				corpus.Trees("mix", trees[2*third:len(trees)-5], nil), tarSource(docs[len(docs)-5:]))
		},
	}
	want := sha256.Sum256(saveBytes(t, batchFromFiles(t, paths, 0)))
	for name, source := range sources {
		for _, workers := range []int{1, 2, 3, 8} {
			c, stats, err := corpus.Build(source(), corpus.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			if stats.Docs != len(docs) {
				t.Fatalf("%s, %d workers: %d documents, want %d", name, workers, stats.Docs, len(docs))
			}
			if got := sha256.Sum256(saveBytes(t, c)); got != want {
				t.Errorf("%s, %d workers: saved corpus %x, want %x (the batch path's)", name, workers, got, want)
			}
		}
	}
}

// TestBuildMalformedDocumentInArchive: the error names the entry that is
// malformed, not its batch, and Build leaves no goroutine behind when it
// gives up in the middle of an archive.
func TestBuildMalformedDocumentInArchive(t *testing.T) {
	docs := mixedDocs()
	bad := len(docs) / 2
	docs[bad] = "<a><b>cut short"
	archive := tarOf(t, docs)
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 3, 8} {
		src, err := corpus.Tar(bytes.NewReader(archive), "mix.tar")
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = corpus.Build(src, corpus.Options{Workers: workers})
		if name := fmt.Sprintf("mix.tar:doc-%05d.xml", bad); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%d workers: error %v, want one naming %s", workers, err, name)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
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

// dblpTar renders n generated DBLP documents into an in-memory tar, each
// behind the given comment, and reports the sizes of the smallest and the
// largest.
func dblpTar(t testing.TB, n int, comment string) (archive []byte, smallest, largest int) {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	smallest = math.MaxInt
	for i, tree := range dataset.DBLP(dataset.Spec{Docs: n, Seed: 5}).Trees {
		doc := comment + xmltree.RenderString(tree)
		smallest, largest = min(smallest, len(doc)), max(largest, len(doc))
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
	return buf.Bytes(), smallest, largest
}

// TestBuildAllocationBound guards what ingest allocates per document: the
// fold of a document into the ttf.itf accumulator touches no map, leaves
// are interned and their paths built once per leaf rather than once per
// tuple that retains them, tokens are stemmed once per distinct token, an
// in-memory document is scanned in place into its tuples, with no tree,
// one allocation per leaf plus the result's four blocks, and a tar entry is
// read into a recycled batch buffer, not a copy of its own. Building 500
// DBLP documents from a tar measures 3.1 MB (5.5–5.7 MB under the race
// detector, which CI runs this with); scanned into a tree first it was
// 4.2 MB, with encoding/xml tokens and a frame per element 8.1 MB, and with a
// map-based fold and per-occurrence interning 13.2 MB, on the same input.
// The same records each behind a comment of 16 KiB, which the scanner skips,
// are 8.4 MB of entries and measure the same; with a copy per entry they
// measured 11.7 MB (14.0 MB under the race detector). The bound is 1.25× the
// highest measurement of 500 records, the race detector's.
func TestBuildAllocationBound(t *testing.T) {
	const boundMB = 7.0
	for _, c := range []struct{ name, comment string }{
		{"500 DBLP documents", ""},
		{"500 DBLP documents behind 16 KiB comments", "<!--" + strings.Repeat("license ", 2048) + "-->"},
	} {
		archive, _, _ := dblpTar(t, 500, c.comment)
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
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > boundMB {
			t.Errorf("building %s allocated %.1f MB, want at most %.1f MB", c.name, mb, boundMB)
		} else {
			t.Logf("building %s allocated %.1f MB (bound %.1f MB)", c.name, mb, boundMB)
		}
	}
}

// TestSavedBytesAcrossGenerators pins tuple extraction from above: the saved
// corpus of every generator at four tuple caps — one alternative per tree, a
// cap that truncates, one that mostly does not, the default — hashes to what
// it hashed to with the extraction of the commit before tuple.variants lost
// its per-element map (same format, recorded in CHANGES.md). A variant out of
// order or a leaf short moves an item id, and with it every byte behind.
func TestSavedBytesAcrossGenerators(t *testing.T) {
	want := map[string]string{
		"DBLP/1": "4608e4c73cca40c3", "DBLP/3": "6ef4075e8e4062c4", "DBLP/17": "6ef4075e8e4062c4", "DBLP/0": "6ef4075e8e4062c4",
		"IEEE/1": "686f5228af899df2", "IEEE/3": "276e54d2bb6155b0", "IEEE/17": "9eb0caba858b86c8", "IEEE/0": "94f670df5c7eb188",
		"Wikipedia/1": "8929f6fce61dae7e", "Wikipedia/3": "e30590d7512f8d69", "Wikipedia/17": "488816d2477e4e1f", "Wikipedia/0": "488816d2477e4e1f",
		"Shakespeare/1": "0332acce9721cbb2", "Shakespeare/3": "78e210c77551a281", "Shakespeare/17": "6b6462ef61d303f4", "Shakespeare/0": "b385208f1bfec51c",
	}
	for _, g := range []struct {
		name string
		docs int
	}{{"DBLP", 400}, {"IEEE", 12}, {"Wikipedia", 400}, {"Shakespeare", 12}} {
		gen, _ := dataset.ByName(g.name)
		for _, max := range []int{1, 3, 17, 0} {
			key := fmt.Sprintf("%s/%d", g.name, max)
			c := gen(dataset.Spec{Docs: g.docs, Seed: 26}).BuildCorpus(dataset.ByHybrid, max, 2)
			if got := fmt.Sprintf("%x", sha256.Sum256(saveBytes(t, c)))[:16]; got != want[key] {
				t.Errorf("%s: saved corpus hashes to %s, want %s", key, got, want[key])
			}
		}
	}
}

// playsAndRecords renders a run of DBLP records, a few Shakespeare plays,
// another run of records, more plays and a last run: documents of two orders
// of magnitude, so a worker's reused trees and tuple blocks are now too small
// and now far too large for the next document.
func playsAndRecords() (records [3][]string, plays [2][]string) {
	for i := range records {
		for _, tree := range dataset.DBLP(dataset.Spec{Docs: 120, Seed: int64(40 + i)}).Trees {
			records[i] = append(records[i], xmltree.RenderString(tree))
		}
	}
	for i := range plays {
		for _, tree := range dataset.Shakespeare(dataset.Spec{Docs: 2, Seed: int64(40 + i)}).Trees {
			plays[i] = append(plays[i], xmltree.RenderString(tree))
		}
	}
	return records, plays
}

// batchOfDocs is the batch path over documents held as strings.
func batchOfDocs(t testing.TB, docs []string) []byte {
	t.Helper()
	trees := make([]*xmltree.Tree, len(docs))
	for i, doc := range docs {
		trees[i] = xmltree.MustParseString(doc)
	}
	c := txn.Build(trees, txn.BuildOptions{})
	weighting.Apply(c)
	return saveBytes(t, c)
}

// TestBuildMatchesBatchAcrossDocumentSizes: workers extract raw XML in the
// pass that reads it, the batch path walks parsed trees. An archive with
// Shakespeare plays between runs of DBLP records saves the bytes of the
// batch path at workers 1, 2 and 8.
func TestBuildMatchesBatchAcrossDocumentSizes(t *testing.T) {
	records, plays := playsAndRecords()
	docs := slices.Concat(records[0], plays[0], records[1], plays[1], records[2])
	want := batchOfDocs(t, docs)
	archive := tarOf(t, docs)
	for _, workers := range []int{1, 2, 8} {
		src, err := corpus.Tar(bytes.NewReader(archive), "mix.tar")
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := corpus.Build(src, corpus.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, c), want) {
			t.Errorf("workers %d: the saved corpus differs from the batch path's", workers)
		}
	}
}

// TestBuildLeavesSourceTreesAlone: a tree the source hands in is only
// walked, between documents the workers extract from files. The source's
// trees — parsed plays — are as they were after builds at workers 1, 2
// and 8.
func TestBuildLeavesSourceTreesAlone(t *testing.T) {
	records, plays := playsAndRecords()
	dir := t.TempDir()
	var files [3][]string
	for i, run := range records {
		for j, doc := range run {
			p := filepath.Join(dir, fmt.Sprintf("run%d-%04d.xml", i, j))
			if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			files[i] = append(files[i], p)
		}
	}
	var trees [2][]*xmltree.Tree
	var rendered [2][]string
	for i, run := range plays {
		for _, doc := range run {
			tree := xmltree.MustParseString(doc)
			trees[i] = append(trees[i], tree)
			rendered[i] = append(rendered[i], xmltree.RenderString(tree))
		}
	}
	want := batchOfDocs(t, slices.Concat(records[0], plays[0], records[1], plays[1], records[2]))
	for _, workers := range []int{1, 2, 8} {
		src := corpus.Multi(corpus.Files(files[0]...), corpus.Trees("plays", trees[0], nil),
			corpus.Files(files[1]...), corpus.Trees("plays", trees[1], nil), corpus.Files(files[2]...))
		c, _, err := corpus.Build(src, corpus.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range trees {
			for j, tree := range trees[i] {
				if xmltree.RenderString(tree) != rendered[i][j] {
					t.Fatalf("workers %d: source tree %d of run %d changed in the build", workers, j, i)
				}
			}
		}
		if !bytes.Equal(saveBytes(t, c), want) {
			t.Errorf("workers %d: the saved corpus differs from the batch path's", workers)
		}
	}
}
