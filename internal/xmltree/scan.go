package xmltree

import (
	"bytes"
	"encoding/xml"
	"unicode"
	"unicode/utf8"
)

// The scanner reads the XML that documents are almost always written in,
// and nothing else. It accepts
//
//   - elements and attributes with ASCII names (a letter or '_', then
//     letters, digits, '_', '.', '-'), attribute values in either quote,
//     end tags that name the element they close, and <empty/> elements;
//   - character data and attribute values in well-formed UTF-8, with the
//     five predefined entities, decimal and hexadecimal character
//     references, and the HTML entity names encoding/xml is given;
//   - comments, processing instructions, and the XML declaration when it
//     says version 1.0 and, if anything, UTF-8.
//
// At the first byte that is none of this — a colon or a non-ASCII byte in
// a name, an xmlns attribute, a tag HTML auto-closes, a mismatched or
// missing end tag, an unknown or unterminated entity, a control character,
// "]]>" in text, '<' in an attribute value, CDATA, DOCTYPE, a declared
// charset, a missing quote — it declines, and encoding/xml reads the
// document instead. Declining is always right, so it is the answer to
// every doubt: what is accepted here is only what encoding/xml, as
// decode configures it, provably tokenizes the same way. FuzzParse
// holds the two against each other.

// scanner is the scratch of scan.
type scanner struct {
	ent []byte // a run of character data after entity expansion
	// elems and attrs map the names seen in start tags to node labels, so a
	// label is allocated (and a name vetted) once, not once per node.
	elems, attrs map[string]string
}

// maxLabels bounds scanner.elems and scanner.attrs; a collection has a few
// hundred names, and a hostile document must not grow a pooled map forever.
const maxLabels = 4096

// scan feeds the builder the tokens of data from its first byte. It reports
// false when it declined, or when the builder refused a token.
func (p *parser) scan(data []byte) bool {
	p.reset()
	for i := 0; i < len(data); {
		if data[i] != '<' {
			j := bytes.IndexByte(data[i:], '<')
			if j < 0 {
				j = len(data) - i
			}
			run, ok := p.unescape(data[i:i+j], true)
			if !ok {
				return false
			}
			p.chars(run)
			i += j
			continue
		}
		if i+1 == len(data) {
			return false
		}
		var ok bool
		switch data[i+1] {
		case '/':
			i, ok = p.endTag(data, i+2)
		case '?':
			i, ok = procInst(data, i+2)
		case '!':
			i, ok = comment(data, i+2)
		default:
			i, ok = p.startTag(data, i+1)
		}
		if !ok {
			return false
		}
	}
	return len(p.stack) == 0
}

// startTag reads a start or empty-element tag whose name begins at data[i]
// and returns the position after its '>'.
func (p *parser) startTag(data []byte, i int) (int, bool) {
	end, ok := name(data, i)
	if !ok {
		return 0, false
	}
	label, ok := p.elemLabel(data[i:end])
	if !ok {
		return 0, false
	}
	if p.start(label) != nil {
		return 0, false
	}
	for i = end; ; {
		if i = space(data, i); i == len(data) {
			return 0, false
		}
		switch data[i] {
		case '>':
			return i + 1, true
		case '/':
			if i+1 == len(data) || data[i+1] != '>' {
				return 0, false
			}
			p.end()
			return i + 2, true
		}
		if end, ok = name(data, i); !ok {
			return 0, false
		}
		attr, ok := p.attrLabel(data[i:end])
		if !ok {
			return 0, false
		}
		if i = space(data, end); i == len(data) || data[i] != '=' {
			return 0, false
		}
		if i = space(data, i+1); i == len(data) || (data[i] != '"' && data[i] != '\'') {
			return 0, false
		}
		n := bytes.IndexByte(data[i+1:], data[i])
		if n < 0 {
			return 0, false
		}
		val, ok := p.unescape(data[i+1:i+1+n], false)
		if !ok {
			return 0, false
		}
		p.attr(attr, val)
		i += n + 2
	}
}

// endTag reads the end tag whose name begins at data[i]; it must name the
// innermost open element.
func (p *parser) endTag(data []byte, i int) (int, bool) {
	label, ok := p.open()
	if !ok {
		return 0, false
	}
	if len(data)-i < len(label) || string(data[i:i+len(label)]) != label {
		return 0, false
	}
	// Only white space may follow, so a longer name fails here too.
	if i = space(data, i+len(label)); i == len(data) || data[i] != '>' {
		return 0, false
	}
	p.end()
	return i + 1, true
}

// procInst skips the processing instruction whose target begins at data[i].
// The XML declaration passes in its plainest form only.
func procInst(data []byte, i int) (int, bool) {
	end, ok := name(data, i)
	if !ok {
		return 0, false
	}
	body := space(data, end)
	n := bytes.Index(data[body:], []byte("?>"))
	if n < 0 {
		return 0, false
	}
	if string(data[i:end]) == "xml" && !plainDeclaration(data[body:body+n]) {
		return 0, false
	}
	return body + n + 2, true
}

// plainDeclaration reports whether s, the inside of an XML declaration, is
// exactly version="1.0", then optionally encoding="UTF-8" (in any case),
// then optionally standalone="yes" or "no" — so that whatever a looser
// reader makes of a declaration, it makes the same of this one.
func plainDeclaration(s []byte) bool {
	v, s, ok := pseudoAttr(s, "version=")
	if !ok || string(v) != "1.0" {
		return false
	}
	if v, rest, ok := pseudoAttr(s, "encoding="); ok {
		if !bytes.EqualFold(v, []byte("utf-8")) {
			return false
		}
		s = rest
	}
	if v, rest, ok := pseudoAttr(s, "standalone="); ok {
		if string(v) != "yes" && string(v) != "no" {
			return false
		}
		s = rest
	}
	return space(s, 0) == len(s)
}

// pseudoAttr reads white space, key and a quoted value off the front of s.
func pseudoAttr(s []byte, key string) (value, rest []byte, ok bool) {
	s = s[space(s, 0):]
	if len(s) < len(key)+2 || string(s[:len(key)]) != key {
		return nil, nil, false
	}
	s = s[len(key):]
	if s[0] != '"' && s[0] != '\'' {
		return nil, nil, false
	}
	n := bytes.IndexByte(s[1:], s[0])
	if n < 0 {
		return nil, nil, false
	}
	return s[1 : 1+n], s[n+2:], true
}

// comment skips the comment that begins "<!" before data[i]; any other
// "<!" construct is declined.
func comment(data []byte, i int) (int, bool) {
	if !bytes.HasPrefix(data[i:], []byte("--")) {
		return 0, false
	}
	i += 2
	n := bytes.Index(data[i:], []byte("--"))
	// The first "--" inside a comment must be the one that ends it.
	if n < 0 || i+n+2 == len(data) || data[i+n+2] != '>' {
		return 0, false
	}
	return i + n + 3, true
}

// Byte classes of the scanner.
const (
	nameStart = 1 << iota // may begin a name
	nameByte              // may continue a name
	alnumByte             // may be in an entity name
	plainByte             // character data that needs no second look
)

var class = func() (t [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
			t[c] = nameStart | nameByte | alnumByte | plainByte
		case c == '_':
			t[c] = nameStart | nameByte | plainByte
		case '0' <= c && c <= '9':
			t[c] = nameByte | alnumByte | plainByte
		case c == '.', c == '-':
			t[c] = nameByte | plainByte
		case c == '&', c == '<', c == '>':
		case c >= ' ', c == '\t', c == '\n', c == '\r':
			t[c] = plainByte
		}
	}
	return t
}()

// name returns the end of the name that begins at data[i]. The byte after a
// name must be one that ends it for encoding/xml too, which reads on
// through colons and anything that is not ASCII.
func name(data []byte, i int) (end int, ok bool) {
	if i == len(data) || class[data[i]]&nameStart == 0 {
		return 0, false
	}
	for i++; i < len(data); i++ {
		if c := data[i]; class[c]&nameByte == 0 {
			return i, c != ':' && c < utf8.RuneSelf
		}
	}
	return 0, false // no construct ends in a name
}

// space returns the position of the first byte at or after data[i] that is
// not white space.
func space(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// elemLabel returns the node label of an element name. Names HTML closes on
// its own (<br>, <link>, ...) are declined: encoding/xml invents end tags
// for them.
func (p *parser) elemLabel(name []byte) (string, bool) {
	if label, ok := p.elems[string(name)]; ok {
		return label, true
	}
	for _, s := range xml.HTMLAutoClose {
		if bytes.EqualFold(name, []byte(s)) {
			return "", false
		}
	}
	label := string(name)
	return intern(p.elems, label, label), true
}

// attrLabel returns the node label "@name" of an attribute name. Name space
// declarations are declined.
func (p *parser) attrLabel(name []byte) (string, bool) {
	if label, ok := p.attrs[string(name)]; ok {
		return label, true
	}
	if string(name) == "xmlns" {
		return "", false
	}
	return intern(p.attrs, string(name), "@"+string(name)), true
}

func intern(m map[string]string, name, label string) string {
	if len(m) >= maxLabels {
		clear(m)
	}
	m[name] = label
	return label
}

// unescape vets one run of character data — the text between two tags, or
// an attribute value between its quotes — and expands its entities. The
// result is run itself when there was nothing to expand, else scratch that
// the next call overwrites.
func (p *parser) unescape(run []byte, text bool) ([]byte, bool) {
	k := 0
	for k < len(run) && class[run[k]]&plainByte != 0 {
		k++
	}
	if k == len(run) {
		return run, true
	}
	out, copied := p.ent[:0], 0 // run[:copied] is in out, expanded
	for k < len(run) {
		switch c := run[k]; {
		case class[c]&plainByte != 0:
			k++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(run[k:])
			if size == 1 || !inCharacterRange(r) {
				return nil, false
			}
			k += size
		case c == '>':
			if text && k >= 2 && run[k-1] == ']' && run[k-2] == ']' {
				return nil, false
			}
			k++
		case c == '&':
			out = append(out, run[copied:k]...)
			var ok bool
			if out, k, ok = entity(out, run, k+1); !ok {
				return nil, false
			}
			copied = k
		default: // '<' in an attribute value, or a control character
			return nil, false
		}
	}
	if copied == 0 {
		return run, true
	}
	out = append(out, run[copied:]...)
	p.ent = out
	return out, true
}

// entity appends to dst what the entity reference whose '&' is just before
// run[k] stands for, and returns the position after its ';'.
func entity(dst, run []byte, k int) ([]byte, int, bool) {
	if k < len(run) && run[k] == '#' {
		k++
		base := rune(10)
		if k < len(run) && run[k] == 'x' {
			base = 16
			k++
		}
		r, digits := rune(0), k
		for ; k < len(run); k++ {
			d := digit(run[k])
			if d >= base {
				break
			}
			if r = r*base + d; r > unicode.MaxRune {
				return nil, 0, false
			}
		}
		if k == digits || k == len(run) || run[k] != ';' || !inCharacterRange(r) {
			return nil, 0, false
		}
		return utf8.AppendRune(dst, r), k + 1, true
	}
	start := k
	for k < len(run) && class[run[k]]&alnumByte != 0 {
		k++
	}
	if k == start || k == len(run) || run[k] != ';' {
		return nil, 0, false
	}
	switch string(run[start:k]) {
	case "lt":
		return append(dst, '<'), k + 1, true
	case "gt":
		return append(dst, '>'), k + 1, true
	case "amp":
		return append(dst, '&'), k + 1, true
	case "apos":
		return append(dst, '\''), k + 1, true
	case "quot":
		return append(dst, '"'), k + 1, true
	}
	s, ok := xml.HTMLEntity[string(run[start:k])]
	return append(dst, s...), k + 1, ok
}

// digit returns the value of c as a hexadecimal digit, 16 if it is none.
func digit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// inCharacterRange reports whether r is a character XML allows in a
// document (and so is not NUL, a surrogate, U+FFFE or U+FFFF).
func inCharacterRange(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		' ' <= r && r <= 0xD7FF ||
		0xE000 <= r && r <= 0xFFFD ||
		0x10000 <= r && r <= unicode.MaxRune
}
