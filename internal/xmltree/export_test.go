package xmltree

// Scans reports whether the byte scanner reads doc, rather than declining it
// to encoding/xml; traffic_test.go (package xmltree_test) uses it, since the
// generators it renders import this package.
func Scans(doc []byte) bool {
	_, ok := newParser().scanTree(doc)
	return ok
}

// scanTree builds the tree of data from the scanner's tokens; !ok means the
// scanner declined, or the builder refused the document (the decoder will
// get it to refuse it again, in the same words).
func (p *parser) scanTree(data []byte) (t *Tree, ok bool) {
	p.h = &p.tb
	if !p.scan(data) || p.finish() != nil {
		return nil, false
	}
	return p.tb.tree(), true
}

// decodeTree builds the tree of data from encoding/xml's tokens.
func (p *parser) decodeTree(data []byte) (*Tree, error) {
	p.h = &p.tb
	if err := p.decode(data); err != nil {
		return nil, err
	}
	return p.tb.tree(), nil
}
