package xmltree

// Scans reports whether the byte scanner reads doc, rather than declining it
// to encoding/xml; traffic_test.go (package xmltree_test) uses it, since the
// generators it renders import this package.
func Scans(doc []byte) bool {
	_, ok := newParser().scanTree(nil, doc)
	return ok
}
