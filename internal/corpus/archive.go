package corpus

import (
	"archive/tar"
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// tarSource streams *.xml entries out of a tar (optionally gzip-compressed)
// archive. Tar is a sequential format, so each entry is read into memory as
// the source reaches it, which lets the parallel ingest stage extract entries
// concurrently while the archive reader stays single-threaded. Next reads an
// entry into bytes of its own; Build reads a batch's entries end to end into
// one batch buffer, which it recycles once the batch is extracted — raw
// bytes of the batches in flight, never of the archive, and no copy per
// entry.
type tarSource struct {
	tr     *tar.Reader
	gz     *gzip.Reader
	closer io.Closer // underlying file when opened via TarFile
	name   string
	done   bool
	held   *tar.Header // an entry whose header is read but whose bytes are not: the next batch's first
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
	d, _, err := s.next(nil, nil)
	return d, err
}

// next reads the next *.xml entry. With a free list, the entries of a batch
// go end to end into one batch buffer: buf, or one from the list for the
// first entry of at most batchBytes, and next returns buf grown by the entry.
// An entry that does not fit a buffer already holding one is held back for
// the next batch, and next reports errBatchFull; one that does not fit an
// empty buffer, or read by Next, has bytes of its own. Either way the
// document's Data is exactly the entry, non-nil even when empty, and an
// append to it cannot reach the next entry.
func (s *tarSource) next(buf []byte, free chan []byte) (*Document, []byte, error) {
	hdr, err := s.header()
	if err != nil {
		return nil, buf, err
	}
	n := len(buf)
	if buf == nil && free != nil && hdr.Size <= batchBytes {
		select {
		case buf = <-free:
		default:
			buf = make([]byte, 0, batchBytes)
		}
	}
	// A header is untrusted input: its size sizes the bytes only up to
	// batchBytes in a batch buffer or maxEntryPrealloc on their own. An entry
	// within that is read into exactly the bytes it declares — the tar reader
	// yields no more, and fewer are a truncated archive; a larger one grows as
	// it arrives.
	var data []byte
	switch {
	case buf != nil && hdr.Size <= int64(cap(buf)-n):
		buf = buf[:n+int(hdr.Size)]
		data = buf[n:len(buf):len(buf)]
		_, err = io.ReadFull(s.tr, data)
	case n > 0:
		s.held = hdr
		return nil, buf, errBatchFull
	case hdr.Size <= maxEntryPrealloc:
		data = make([]byte, hdr.Size)
		_, err = io.ReadFull(s.tr, data)
	default:
		b := bytes.NewBuffer(make([]byte, 0, maxEntryPrealloc))
		_, err = b.ReadFrom(s.tr)
		data = b.Bytes()
	}
	if err != nil {
		return nil, buf, fmt.Errorf("corpus: %s: tar entry %s: %w", s.name, hdr.Name, err)
	}
	return &Document{Name: s.name + ":" + hdr.Name, Label: -1, Data: data}, buf, nil
}

// errBatchFull reports an entry held back because its batch buffer is full.
var errBatchFull = errors.New("corpus: batch buffer full")

// header returns the header of the next *.xml entry: the one held back, if
// any, else the archive's next.
func (s *tarSource) header() (*tar.Header, error) {
	if hdr := s.held; hdr != nil {
		s.held = nil
		return hdr, nil
	}
	for !s.done {
		hdr, err := s.tr.Next()
		if err == io.EOF {
			s.done = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: tar: %w", s.name, err)
		}
		if hdr.Typeflag == tar.TypeReg && strings.HasSuffix(strings.ToLower(hdr.Name), ".xml") {
			return hdr, nil
		}
	}
	return nil, io.EOF
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
