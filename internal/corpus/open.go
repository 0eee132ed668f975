package corpus

import (
	"fmt"
	"io"
	"os"
	"unicode"
)

// Kind classifies what a filesystem path holds, so CLIs can route a single
// -corpus/positional argument to the right ingestion source (or to the saved
// corpus loader).
type Kind int

const (
	// KindUnknown is anything the sniffer does not recognize — callers with
	// a fallback format (e.g. a saved corpus file) try that.
	KindUnknown Kind = iota
	// KindDir is a directory (walked recursively for *.xml).
	KindDir
	// KindTar is a tar or tar.gz archive.
	KindTar
	// KindXML is a single XML document.
	KindXML
)

// Detect classifies path by stat and content sniffing: directories, gzip
// magic (tar.gz), the ustar magic at offset 257 (tar), or a document whose
// first non-space byte is '<' (XML). Anything else is KindUnknown.
func Detect(path string) (Kind, error) {
	info, err := os.Stat(path)
	if err != nil {
		return KindUnknown, err
	}
	if info.IsDir() {
		return KindDir, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return KindUnknown, err
	}
	defer f.Close()
	head := make([]byte, 512)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return KindUnknown, err
	}
	head = head[:n]
	if len(head) >= 2 && head[0] == 0x1f && head[1] == 0x8b {
		return KindTar, nil // gzip; Tar re-sniffs and decompresses
	}
	if len(head) >= 262 && string(head[257:262]) == "ustar" {
		return KindTar, nil
	}
	if len(head) >= 3 && head[0] == 0xef && head[1] == 0xbb && head[2] == 0xbf {
		head = head[3:] // UTF-8 BOM before the first tag
	}
	for _, b := range head {
		if unicode.IsSpace(rune(b)) {
			continue
		}
		if b == '<' {
			return KindXML, nil
		}
		break
	}
	return KindUnknown, nil
}

// Open returns an ingestion source for path: a recursive directory walk, a
// tar/tar.gz archive stream, or a single XML file, auto-detected via
// Detect. Unrecognized content is an error (use Detect directly when a
// fallback format exists).
func Open(path string) (Source, error) {
	kind, err := Detect(path)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindDir:
		return Dir(path)
	case KindTar:
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		src, err := Tar(f, path)
		if err != nil {
			f.Close()
			return nil, err
		}
		src.(*tarSource).closer = f
		return src, nil
	case KindXML:
		return Files(path), nil
	}
	return nil, fmt.Errorf("corpus: %s is neither a directory, a tar[.gz] archive nor an XML document", path)
}
