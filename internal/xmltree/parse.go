package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// ParseOptions is empty: a document maps onto its tree one way, the way
// Sect. 3.1 of the paper describes (see builder).
//
// Deprecated: goes with the next benchmark PR.
type ParseOptions struct{}

// DefaultParseOptions returns the empty ParseOptions.
//
// Deprecated: goes with the next benchmark PR.
func DefaultParseOptions() ParseOptions { return ParseOptions{} }

// maxTreeDepth bounds the depth of a tree Parse will build. Tree walks
// (Tree.Depth, tuple extraction, rendering) recurse once per level, and a
// goroutine's stack overflowing is fatal to the process, not a panic a
// caller can recover: a few megabytes of nested tags must fail here. The
// paper's collections are under 20 deep.
const maxTreeDepth = 10000

// Parse reads one XML document from r and builds its tree: elements are
// nodes, attributes "@name" leaves, and the character data under an element
// its one S leaf. A document whose tree would be deeper than maxTreeDepth is
// an error. Options are ignored: the parameter goes with DefaultParseOptions.
func Parse(r io.Reader, _ ...ParseOptions) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return ParseBytes(data)
}

// ParseBytes is Parse over a document already in memory; data is only read,
// and the tree keeps no reference to it.
//
// The document is first read by the byte scanner (scan.go), which knows the
// strict, well-formed UTF-8 subset of XML that nearly all documents lie in.
// At the first byte outside that subset the scanner declines and the
// document is read again from its first byte by encoding/xml, configured as
// leniently as it goes: unbalanced and auto-closing HTML tags, HTML entity
// names, name spaces, CDATA, DOCTYPE and declared charsets are its business.
// Both feed the same builder, so which one read a document cannot be told
// from the tree.
func ParseBytes(data []byte) (*Tree, error) {
	return ParseBytesInto(nil, data)
}

// ParseBytesInto is ParseBytes into the storage of reuse, a tree an earlier
// parse returned and nothing reads any more (nil = fresh storage). If the
// storage holds the document, reuse itself is rebuilt and returned, and only
// the leaf values are allocated.
func ParseBytesInto(reuse *Tree, data []byte) (*Tree, error) {
	p := parsers.Get().(*parser)
	defer p.release()
	if t, ok := p.scanTree(reuse, data); ok {
		return t, nil
	}
	return p.decodeTree(reuse, data)
}

// parser is a builder with the scratch of its two token sources. Parsers
// are pooled: a warm one reads a document without allocating anything but
// the tree.
type parser struct {
	builder
	scanner
}

func newParser() *parser {
	return &parser{scanner: scanner{elems: map[string]string{}, attrs: map[string]string{}}}
}

var parsers = sync.Pool{New: func() any { return newParser() }}

func (p *parser) release() {
	p.reset()
	parsers.Put(p)
}

// scanTree builds the tree of data from the scanner's tokens; !ok means the
// scanner declined, or the builder refused the document (the decoder will
// get it to refuse it again, in the same words).
func (p *parser) scanTree(reuse *Tree, data []byte) (t *Tree, ok bool) {
	p.reset()
	if !p.scan(data) {
		return nil, false
	}
	t, err := p.finish(reuse)
	return t, err == nil
}

// decodeTree builds the tree of data from encoding/xml's tokens.
func (p *parser) decodeTree(reuse *Tree, data []byte) (*Tree, error) {
	p.reset()
	dec := xml.NewDecoder(bytes.NewReader(data))
	dec.Strict = false
	dec.AutoClose = xml.HTMLAutoClose
	dec.Entity = xml.HTMLEntity
	dec.CharsetReader = charsetReader
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return p.finish(reuse)
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch el := tok.(type) {
		case xml.StartElement:
			if err := p.start(el.Name.Local); err != nil {
				return nil, err
			}
			for _, a := range el.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				p.attr("@"+a.Name.Local, []byte(a.Value))
			}
		case xml.EndElement:
			if !p.end() {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", el.Name.Local)
			}
		case xml.CharData:
			p.chars(el)
		}
	}
}

// charsetReader reads the single-byte charsets whose bytes are their own
// code points — ISO-8859-1, which real dblp.xml declares, and its subset
// US-ASCII — by widening each byte to a rune. The decoder hands it the
// in-memory rest of the document, so it converts in one go.
func charsetReader(charset string, r io.Reader) (io.Reader, error) {
	switch strings.ToLower(charset) {
	case "iso-8859-1", "iso8859-1", "iso_8859-1", "latin1", "latin-1", "l1", "us-ascii", "ascii":
	default:
		return nil, fmt.Errorf("xmltree: only UTF-8, ISO-8859-1 and US-ASCII documents are read")
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	wide := make([]byte, 0, len(raw)+len(raw)/8)
	for _, c := range raw {
		wide = utf8.AppendRune(wide, rune(c))
	}
	return bytes.NewReader(wide), nil
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Tree, error) {
	return ParseBytes([]byte(s))
}

// MustParseString is ParseString that panics on error; for tests and
// examples operating on literal documents.
func MustParseString(s string) *Tree {
	t, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return t
}
