package corpus

import (
	"archive/tar"
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// tarSource streams *.xml entries out of a tar (optionally gzip-compressed)
// archive. Tar is a sequential format, so each entry is buffered into
// memory at Next time — one document of raw bytes in flight, never the
// archive — which lets the parallel ingest stage parse entries
// concurrently while the archive reader stays single-threaded.
type tarSource struct {
	tr     *tar.Reader
	gz     *gzip.Reader
	closer io.Closer // underlying file when opened via TarFile
	name   string
	done   bool
}

// Tar returns a source over the *.xml entries of a tar or tar.gz stream,
// in archive order. Compression is detected from the gzip magic bytes, so
// .tar and .tar.gz need no separate entry points. name labels errors.
func Tar(r io.Reader, name string) (Source, error) {
	br := bufio.NewReader(r)
	src := &tarSource{name: name}
	magic, err := br.Peek(2)
	if err == nil && len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: gzip: %w", name, err)
		}
		src.gz = gz
		src.tr = tar.NewReader(gz)
	} else {
		src.tr = tar.NewReader(br)
	}
	return src, nil
}

func (s *tarSource) Next() (*Document, error) {
	if s.done {
		return nil, io.EOF
	}
	for {
		hdr, err := s.tr.Next()
		if err == io.EOF {
			s.done = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: tar: %w", s.name, err)
		}
		if hdr.Typeflag != tar.TypeReg || !strings.HasSuffix(strings.ToLower(hdr.Name), ".xml") {
			continue
		}
		// A header is untrusted input: its size sizes the buffer only up to
		// maxEntryPrealloc. An entry within that is read into exactly the
		// bytes it declares — the tar reader yields no more, and fewer are a
		// truncated archive; a larger one grows as it arrives.
		var data []byte
		if hdr.Size <= maxEntryPrealloc {
			data = make([]byte, hdr.Size)
			_, err = io.ReadFull(s.tr, data)
		} else {
			buf := bytes.NewBuffer(make([]byte, 0, maxEntryPrealloc))
			_, err = buf.ReadFrom(s.tr)
			data = buf.Bytes()
		}
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: tar entry %s: %w", s.name, hdr.Name, err)
		}
		return &Document{Name: s.name + ":" + hdr.Name, Label: -1, Data: data}, nil
	}
}

// maxEntryPrealloc bounds what a tar header's claimed size may allocate
// before any byte of the entry is read; larger entries grow as they arrive.
const maxEntryPrealloc = 1 << 20

func (s *tarSource) Close() error {
	var first error
	if s.gz != nil {
		if err := s.gz.Close(); err != nil {
			first = err
		}
	}
	if s.closer != nil {
		if err := s.closer.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
