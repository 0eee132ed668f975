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
// and the tree keeps no reference to it. It is Feed with a Handler that
// builds the tree.
func ParseBytes(data []byte) (*Tree, error) {
	p := parsers.Get().(*parser)
	defer p.release()
	if err := p.feed(data, &p.tb); err != nil {
		return nil, err
	}
	return p.tb.tree(), nil
}

// Feed reads one XML document from data and feeds h its elements and
// leaves, as Parse would build them into a tree; data is only read.
//
// The document is first read by the byte scanner (scan.go), which knows the
// strict, well-formed UTF-8 subset of XML that nearly all documents lie in.
// At the first byte outside that subset the scanner declines, h is Reset
// and the document is read again from its first byte by encoding/xml,
// configured as leniently as it goes: unbalanced and auto-closing HTML tags,
// HTML entity names, name spaces, CDATA, DOCTYPE and declared charsets are
// its business. Both feed the same builder, so which one read a document
// cannot be told from what h receives. On an error, h holds a document read
// in part.
func Feed(data []byte, h Handler) error {
	p := parsers.Get().(*parser)
	defer p.release()
	return p.feed(data, h)
}

func (p *parser) feed(data []byte, h Handler) error {
	p.h = h
	if p.scan(data) && p.finish() == nil {
		return nil
	}
	return p.decode(data)
}

// parser is a builder with the scratch of its two token sources and of the
// tree it builds for Parse. Parsers are pooled: a warm one reads a document
// without allocating anything but the leaf values and the tree.
type parser struct {
	builder
	scanner
	tb treeBuilder
}

func newParser() *parser {
	return &parser{scanner: scanner{elems: map[string]string{}, attrs: map[string]string{}}}
}

var parsers = sync.Pool{New: func() any { return newParser() }}

func (p *parser) release() {
	p.h = nil
	p.tb.Reset()
	parsers.Put(p)
}

// decode feeds the handler encoding/xml's tokens of data.
func (p *parser) decode(data []byte) error {
	p.reset()
	dec := xml.NewDecoder(bytes.NewReader(data))
	dec.Strict = false
	dec.AutoClose = xml.HTMLAutoClose
	dec.Entity = xml.HTMLEntity
	dec.CharsetReader = charsetReader
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return p.finish()
		}
		if err != nil {
			return fmt.Errorf("xmltree: parse: %w", err)
		}
		switch el := tok.(type) {
		case xml.StartElement:
			if err := p.start(el.Name.Local); err != nil {
				return err
			}
			for _, a := range el.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				p.attr("@"+a.Name.Local, []byte(a.Value))
			}
		case xml.EndElement:
			if !p.end() {
				return fmt.Errorf("xmltree: unbalanced end element %s", el.Name.Local)
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
