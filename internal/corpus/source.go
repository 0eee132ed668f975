// Package corpus implements the streaming ingestion pipeline: Source
// abstractions that yield XML documents one at a time (directory walks,
// file lists, tar archives, in-process tree generators) and a parallel
// bounded-memory Build driver that turns any Source into a weighted
// transactional corpus without ever building a tree of raw XML. The output
// is byte-identical to the batch txn.Build + weighting.Apply path for any
// worker count.
package corpus

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xmlclust/internal/xmltree"
)

// Document is one unit yielded by a Source: raw XML the source already
// holds in memory (Data), raw XML obtained through Open, or an
// already-parsed Tree (in-process generators). Exactly one of the three is
// set.
type Document struct {
	// Name identifies the document (file path, archive entry, generator id).
	Name string
	// Label is the ground-truth class when known, else −1.
	Label int
	// Tree is the pre-parsed form; nil when the document is raw XML.
	Tree *xmltree.Tree
	// Data is the raw XML of a document that is in memory anyway (an
	// archive entry); it is parsed in place, no reader around it.
	Data []byte
	// Open returns a reader over the raw XML of a document that is not in
	// memory yet (a file). It may be called at most once, from any
	// goroutine.
	Open func() (io.ReadCloser, error)
}

// Raw returns the document's raw XML: Data, or everything Open's reader
// yields. A pre-parsed document has none.
func (d *Document) Raw() ([]byte, error) {
	if d.Data != nil {
		return d.Data, nil
	}
	if d.Open == nil {
		return nil, fmt.Errorf("corpus: %s is a pre-parsed tree, not raw XML", d.Name)
	}
	rc, err := d.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// Source yields the documents of a corpus one at a time, in a deterministic
// order. Next returns io.EOF after the last document. Next is never called
// concurrently; Close releases underlying resources and is safe after a
// partial iteration.
type Source interface {
	Next() (*Document, error)
	Close() error
}

// fileSource yields one document per path.
type fileSource struct {
	paths []string
	i     int
}

// Files returns a source over an explicit list of XML files, in the given
// order.
func Files(paths ...string) Source {
	return &fileSource{paths: paths}
}

func (s *fileSource) Next() (*Document, error) {
	if s.i >= len(s.paths) {
		return nil, io.EOF
	}
	p := s.paths[s.i]
	s.i++
	return &Document{
		Name:  p,
		Label: -1,
		Open: func() (io.ReadCloser, error) {
			return os.Open(p)
		},
	}, nil
}

func (s *fileSource) Close() error { return nil }

// Dir returns a source over every *.xml file under root, recursively, in
// lexical path order. It fails up front when the walk yields no XML
// documents, so a mistyped path surfaces as a clear error instead of an
// empty corpus.
func Dir(root string) (Source, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(strings.ToLower(d.Name()), ".xml") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("corpus: walk %s: %w", root, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("corpus: no XML documents under %s", root)
	}
	sort.Strings(paths)
	return Files(paths...), nil
}

// treeSource yields pre-parsed trees.
type treeSource struct {
	name   string
	trees  []*xmltree.Tree
	labels []int
	i      int
}

// Trees returns a source over already-parsed trees — the adapter that turns
// an in-process generator (e.g. the cxkgen synthetic corpora) into an
// ingestion source. labels may be nil or shorter than trees; missing
// entries yield −1. The slice is not copied and not mutated.
func Trees(name string, trees []*xmltree.Tree, labels []int) Source {
	return &treeSource{name: name, trees: trees, labels: labels}
}

func (s *treeSource) Next() (*Document, error) {
	if s.i >= len(s.trees) {
		return nil, io.EOF
	}
	i := s.i
	s.i++
	label := -1
	if i < len(s.labels) {
		label = s.labels[i]
	}
	name := s.trees[i].Name
	if name == "" {
		name = fmt.Sprintf("%s-%04d", s.name, i)
	}
	return &Document{Name: name, Label: label, Tree: s.trees[i]}, nil
}

func (s *treeSource) Close() error { return nil }

// multiSource concatenates sources.
type multiSource struct {
	srcs []Source
	i    int
}

// Multi concatenates sources: documents of the first source, then the
// second, and so on. Close closes every underlying source.
func Multi(srcs ...Source) Source {
	return &multiSource{srcs: srcs}
}

func (s *multiSource) Next() (*Document, error) {
	for s.i < len(s.srcs) {
		d, err := s.srcs[s.i].Next()
		if err == io.EOF {
			s.i++
			continue
		}
		return d, err
	}
	return nil, io.EOF
}

func (s *multiSource) Close() error {
	var first error
	for _, src := range s.srcs {
		if err := src.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
