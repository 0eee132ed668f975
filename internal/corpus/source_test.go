package corpus

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlclust/internal/xmltree"
)

// drain collects the names of every document a source yields.
func drain(t *testing.T, src Source) []string {
	t.Helper()
	var names []string
	for {
		d, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		names = append(names, d.Name)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return names
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDirSourceRecursesAndSorts(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "b.xml"), "<b/>")
	writeFile(t, filepath.Join(root, "sub", "a.xml"), "<a/>")
	writeFile(t, filepath.Join(root, "sub", "deep", "c.XML"), "<c/>")
	writeFile(t, filepath.Join(root, "sub", "ignored.txt"), "nope")

	src, err := Dir(root)
	if err != nil {
		t.Fatal(err)
	}
	names := drain(t, src)
	if len(names) != 3 {
		t.Fatalf("found %d documents, want 3 (recursion into subdirectories): %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	if !strings.Contains(names[2], filepath.Join("sub", "deep")) && !strings.Contains(names[1], filepath.Join("sub", "deep")) {
		t.Fatalf("nested file missing: %v", names)
	}
}

func TestDirSourceEmptyIsError(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "notes.txt"), "no xml here")
	if _, err := Dir(root); err == nil {
		t.Fatal("Dir over a directory without XML should fail")
	} else if !strings.Contains(err.Error(), "no XML documents") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := Dir(filepath.Join(root, "missing")); err == nil {
		t.Fatal("Dir over a missing path should fail")
	}
}

func TestFilesSourceOpens(t *testing.T) {
	root := t.TempDir()
	p := filepath.Join(root, "doc.xml")
	writeFile(t, p, "<doc><a>x</a></doc>")
	src := Files(p)
	d, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Label != -1 {
		t.Fatalf("file documents carry label %d, want -1", d.Label)
	}
	rc, err := d.Open()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "<doc><a>x</a></doc>" {
		t.Fatalf("read %q", data)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// makeTar builds a tar (optionally gzipped) holding the given name→content
// entries plus one non-XML entry that must be skipped.
func makeTar(t *testing.T, gz bool, entries map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	var w io.Writer = &buf
	var gzw *gzip.Writer
	if gz {
		gzw = gzip.NewWriter(&buf)
		w = gzw
	}
	tw := tar.NewWriter(w)
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	// Deterministic archive order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		c := entries[n]
		if err := tw.WriteHeader(&tar.Header{Name: n, Mode: 0o644, Size: int64(len(c))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.WriteHeader(&tar.Header{Name: "README.md", Mode: 0o644, Size: 4}); err != nil {
		t.Fatal(err)
	}
	tw.Write([]byte("skip"))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if gzw != nil {
		if err := gzw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestTarSourcePlainAndGzip(t *testing.T) {
	entries := map[string]string{
		"a.xml":     "<a>one</a>",
		"sub/b.xml": "<b>two</b>",
	}
	for _, gz := range []bool{false, true} {
		data := makeTar(t, gz, entries)
		src, err := Tar(bytes.NewReader(data), "test.tar")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			d, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if d.Open != nil || d.Tree != nil {
				t.Fatalf("%s: an archive entry is in memory, it needs no Open and is no Tree", d.Name)
			}
			got = append(got, d.Name+"="+string(d.Data))
		}
		src.Close()
		want := []string{"test.tar:a.xml=<a>one</a>", "test.tar:sub/b.xml=<b>two</b>"}
		if len(got) != len(want) {
			t.Fatalf("gz=%v: got %v want %v", gz, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gz=%v: got %v want %v", gz, got, want)
			}
		}
	}
}

// TestTarEntryBuffering covers the two per-document constants of the tar
// path: an entry is read whole whether or not it fits the buffer its header
// sized (empty, small, larger than the preallocation cap, and cut short by
// a damaged archive), and the document hands out those bytes themselves —
// even an empty entry is Data, not a document of unknown size.
func TestTarEntryBuffering(t *testing.T) {
	big := "<a>" + strings.Repeat("x", maxEntryPrealloc+12345) + "</a>"
	entries := map[string]string{"big.xml": big, "empty.xml": "", "small.xml": "<s>v</s>"}
	data := makeTar(t, false, entries)
	src, err := Tar(bytes.NewReader(data), "t.tar")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, name := range []string{"big.xml", "empty.xml", "small.xml"} {
		d, err := src.Next()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Data == nil || string(d.Data) != entries[name] {
			t.Fatalf("%s: Data holds %d bytes (nil: %v), want %d", name, len(d.Data), d.Data == nil, len(entries[name]))
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after the last entry: %v, want io.EOF", err)
	}

	// The archive ends in the middle of big.xml: an error, not a short document.
	cut, err := Tar(bytes.NewReader(data[:len(data)/2]), "cut.tar")
	if err != nil {
		t.Fatal(err)
	}
	defer cut.Close()
	if d, err := cut.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated archive yielded %v, %v", d, err)
	}
}

// TestTarSmallEntryCutShort: an entry under the preallocation cap is read
// into exactly the bytes its header declares, so an archive that ends inside
// it must be an error naming the entry — not a document padded with zeros.
func TestTarSmallEntryCutShort(t *testing.T) {
	doc := "<s>" + strings.Repeat("v", 600) + "</s>"
	data := makeTar(t, false, map[string]string{"first.xml": "<f/>", "small.xml": doc})
	// first.xml: a header and one padded block; small.xml's header; then 100 of its bytes.
	src, err := Tar(bytes.NewReader(data[:3*512+100]), "cut.tar")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if d, err := src.Next(); err != nil || string(d.Data) != "<f/>" || cap(d.Data) != len(d.Data) {
		t.Fatalf("the entry before the cut: %v, %v", d, err)
	}
	d, err := src.Next()
	if err == nil || err == io.EOF || !strings.Contains(err.Error(), "tar entry small.xml") {
		t.Fatalf("an entry cut short yielded %v, %v", d, err)
	}
}

func TestTreesSourceLabels(t *testing.T) {
	trees := []*xmltree.Tree{
		xmltree.MustParseString("<a/>", xmltree.DefaultParseOptions()),
		xmltree.MustParseString("<b/>", xmltree.DefaultParseOptions()),
		xmltree.MustParseString("<c/>", xmltree.DefaultParseOptions()),
	}
	src := Trees("gen", trees, []int{4, 9}) // short labels: third doc → −1
	want := []int{4, 9, -1}
	for i := 0; ; i++ {
		d, err := src.Next()
		if err == io.EOF {
			if i != 3 {
				t.Fatalf("yielded %d docs, want 3", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if d.Tree == nil {
			t.Fatal("tree source must set Tree")
		}
		if d.Label != want[i] {
			t.Fatalf("doc %d label %d, want %d", i, d.Label, want[i])
		}
	}
}

func TestMultiConcatenates(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "x.xml"), "<x/>")
	a := Files(filepath.Join(root, "x.xml"))
	b := Trees("g", []*xmltree.Tree{xmltree.MustParseString("<y/>", xmltree.DefaultParseOptions())}, nil)
	names := drain(t, Multi(a, b))
	if len(names) != 2 || !strings.HasSuffix(names[0], "x.xml") {
		t.Fatalf("multi order wrong: %v", names)
	}
}

func TestDetectAndOpen(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "docs")
	writeFile(t, filepath.Join(dir, "a.xml"), "<a/>")
	xml := filepath.Join(root, "one.dat") // XML content without .xml extension
	writeFile(t, xml, "  \n<doc/>")
	tarPath := filepath.Join(root, "c.tar")
	if err := os.WriteFile(tarPath, makeTar(t, false, map[string]string{"t.xml": "<t/>"}), 0o644); err != nil {
		t.Fatal(err)
	}
	tgzPath := filepath.Join(root, "c.bin") // gzip magic, arbitrary extension
	if err := os.WriteFile(tgzPath, makeTar(t, true, map[string]string{"t.xml": "<t/>"}), 0o644); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(root, "junk.gob")
	writeFile(t, junk, "\x01\x02\x03 definitely not xml")

	cases := []struct {
		path string
		want Kind
	}{
		{dir, KindDir},
		{xml, KindXML},
		{tarPath, KindTar},
		{tgzPath, KindTar},
		{junk, KindUnknown},
	}
	for _, c := range cases {
		got, err := Detect(c.path)
		if err != nil {
			t.Fatalf("Detect(%s): %v", c.path, err)
		}
		if got != c.want {
			t.Fatalf("Detect(%s) = %v, want %v", c.path, got, c.want)
		}
	}

	for _, p := range []string{dir, xml, tarPath, tgzPath} {
		src, err := Open(p)
		if err != nil {
			t.Fatalf("Open(%s): %v", p, err)
		}
		if names := drain(t, src); len(names) != 1 {
			t.Fatalf("Open(%s) yielded %v", p, names)
		}
	}
	if _, err := Open(junk); err == nil {
		t.Fatal("Open on unrecognized content should fail")
	}
}
