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

// ParseOptions controls how raw XML is mapped onto the tree model.
type ParseOptions struct {
	// ConcatenateText merges all #PCDATA directly under one element into a
	// single S leaf (the paper does this for the Shakespeare speech lines).
	// When false, each non-blank text run becomes its own S leaf.
	ConcatenateText bool
	// KeepAttributes maps XML attributes to "@name" leaves. The paper's
	// model includes them (e.g. dblp.inproceedings.@key).
	KeepAttributes bool
	// StripTags lists element names to filter out entirely (with their
	// subtrees); used to drop stylistic/non-logical markup as done for the
	// IEEE and Wikipedia corpora (Sect. 5.2).
	StripTags []string
	// InlineTags lists element names whose tags are removed but whose
	// content is hoisted into the parent (typical for formatting markup such
	// as <b> or <it> inside text).
	InlineTags []string
	// MaxDepth, when positive, truncates the tree below the given depth.
	MaxDepth int
}

// DefaultParseOptions returns the configuration used throughout the paper
// reproduction: attributes kept, text concatenated per element.
func DefaultParseOptions() ParseOptions {
	return ParseOptions{ConcatenateText: true, KeepAttributes: true}
}

// maxTreeDepth bounds the depth of a tree Parse will build. Tree walks
// (Tree.Depth, tuple extraction, rendering) recurse once per level, and a
// goroutine's stack overflowing is fatal to the process, not a panic a
// caller can recover: a few megabytes of nested tags must fail here. The
// paper's collections are under 20 deep.
const maxTreeDepth = 10000

// Parse reads one XML document from r and builds its tree. A document whose
// tree would be deeper than maxTreeDepth is an error.
func Parse(r io.Reader, opts ParseOptions) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return ParseBytes(data, opts)
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
func ParseBytes(data []byte, opts ParseOptions) (*Tree, error) {
	p := parsers.Get().(*parser)
	defer p.release()
	if t, ok := p.scanTree(data, opts); ok {
		return t, nil
	}
	return p.decodeTree(data, opts)
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
	p.reset(ParseOptions{})
	parsers.Put(p)
}

// scanTree builds the tree of data from the scanner's tokens; !ok means the
// scanner declined, or the builder refused the document (the decoder will
// get it to refuse it again, in the same words).
func (p *parser) scanTree(data []byte, opts ParseOptions) (t *Tree, ok bool) {
	p.reset(opts)
	if !p.scan(data) {
		return nil, false
	}
	t, err := p.finish()
	return t, err == nil
}

// decodeTree builds the tree of data from encoding/xml's tokens.
func (p *parser) decodeTree(data []byte, opts ParseOptions) (*Tree, error) {
	p.reset(opts)
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
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch el := tok.(type) {
		case xml.StartElement:
			attrs, err := p.start(el.Name.Local)
			if err != nil {
				return nil, err
			}
			if !attrs {
				continue
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
func ParseString(s string, opts ParseOptions) (*Tree, error) {
	return ParseBytes([]byte(s), opts)
}

// MustParseString is ParseString that panics on error; for tests and
// examples operating on literal documents.
func MustParseString(s string, opts ParseOptions) *Tree {
	t, err := ParseString(s, opts)
	if err != nil {
		panic(err)
	}
	return t
}
