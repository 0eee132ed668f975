package xmltree

import (
	"math/rand"
	"strings"
	"testing"
)

// dblpRecord is one record as the generated DBLP collection renders it.
const dblpRecord = `<?xml version="1.0" encoding="UTF-8"?>
<dblp>
  <article key="journals/tods/Codd70" mdate="2003-11-20">
    <author>E. F. Codd</author>
    <author>C. J. Date</author>
    <title>A relational model of data for large shared data banks &amp; more</title>
    <journal>ACM TODS</journal>
    <volume>13</volume>
    <year>1970</year>
    <pages>377-387</pages>
    <ee>db/journals/tods/Codd70.html</ee>
  </article>
</dblp>
`

// TestScannerAccepts pins the subset: these documents must be read by the
// scanner, not quietly handed to encoding/xml at a third of the speed.
func TestScannerAccepts(t *testing.T) {
	for _, doc := range []string{
		paperDoc,
		dblpRecord,
		`<a/>`,
		`<a k="1" k="2"/>`,
		`<a  k = "v"j='w' ></a >`,
		`<a.b-c_d>x</a.b-c_d>`,
		`<a><?pi x?>t<!-- c -->u<!---->v</a>`,
		`<a k="1>2 ]]> &lt;">]] > &#x41;&#65;&amp;&apos;&quot;&gt;</a>`,
		`<a>&uuml;&nbsp;&frac12;</a>`,
		"\ufeff<a>\u00a0x\u0085\r\ny\ufffd</a>\n<!-- after -->tail",
		`<?xml version='1.0' encoding="utf-8" standalone='no' ?><a/>`,
		`<?XML anything?><a/>`,
		`<i><a>x</a></i>`,
	} {
		got, ok := newParser().scanTree([]byte(doc))
		want, err := referenceParse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("the reference refuses %q: %v", doc, err)
		}
		if !ok {
			t.Errorf("scanner declines %q", doc)
		} else if diff := treeDiff(got, want); diff != "" {
			t.Errorf("%q: %s", doc, diff)
		}
	}
}

// TestScannerDeclines lists what lies outside the subset, one document per
// reason: all of them are encoding/xml's to read (or to refuse).
func TestScannerDeclines(t *testing.T) {
	for _, doc := range []string{
		``, `text only`, `<a/><b/>`, `<a>`, `<a></a></a>`, `</a>`,
		`<a><b></a></b>`, `<a><b>x</a>`, `<a><b></a></a>`, `<a></ a>`, `<a></ab>`,
		`<a><br>x</a>`, `<a><BR/></a>`, `<LINK/>`, `<a><hr></hr></a>`,
		`<x:a xmlns:x="u"/>`, `<a xmlns="u"/>`, `<a x:k="v"/>`, `<é/>`, `<aé/>`, `<a é="1"/>`, `<1a/>`, `<-a/>`,
		`<a k=v/>`, `<a k/>`, `<a k="v/>`, `<a k="1<2"/>`, `<a / >`, `< a/>`,
		`<a>x]]>y</a>`,
		`<a>&bogus;</a>`, `<a>&amp</a>`, `<a>&;</a>`, `<a>& </a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#X41;</a>`, `<a>&a.b;</a>`,
		`<a>&#0;</a>`, `<a>&#8;</a>`, `<a>&#xD800;</a>`, `<a>&#xFFFF;</a>`, `<a>&#x110000;</a>`, `<a>&#99999999999999999999;</a>`,
		"<a>\x00</a>", "<a>\x1f</a>", "<a>\xff</a>", "<a>\xc3</a>", "<a>\xed\xa0\x80</a>", "<a>\xef\xbf\xbe</a>", "<a k='\x0b'/>",
		`<a><![CDATA[x]]></a>`, `<!DOCTYPE a><a/>`, `<!-x--><a/>`, `<!-- a -- b --><a/>`, `<!--x`, `<a/><!--->`,
		`<?><a/>`, `<? pi?><a/>`, `<?pi`, `<?x:y z?><a/>`,
		`<?xml?><a/>`, `<?xml version="1.1"?><a/>`, `<?xml encoding="utf-8"?><a/>`, `<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
		`<?xml version="1.0" standalone="yes" encoding="utf-8"?><a/>`, `<?xml version="1.0" standalone="maybe"?><a/>`, `<?xml version = "1.0"?><a/>`,
		strings.Repeat("<d>", maxTreeDepth) + strings.Repeat("</d>", maxTreeDepth),
	} {
		if _, ok := newParser().scanTree([]byte(doc)); ok {
			t.Errorf("scanner accepts %q", doc)
		}
	}
}

// TestScannerMatchesDecoderOnTokenSoup strings markup fragments together at
// random: most of the results are well-formed enough for the scanner, which
// byte-level fuzzing rarely achieves, and all of them must come out of it —
// if they come out at all — as referenceParse builds them, and out of the
// decoder-fed builder too.
func TestScannerMatchesDecoderOnTokenSoup(t *testing.T) {
	open := []string{`<a>`, `<b k="v">`, `<c  x='1' y="&lt;2">`, `<i>`, `<drop>`, `<d>`, "<a\n>", `<b k="">`}
	closeOf := []string{`</a>`, `</b>`, `</c>`, `</i>`, `</drop>`, `</d>`, `</a >`, `</b>`}
	leaf := []string{
		`text`, ` `, "\n  ", `two words`, `&amp;`, `&#x41;`, `&#10;`, `&nbsp;`, "\u00a0", "\u2003", `é`, "\r\n", `]]`, `>`, `]] >`,
		`<e/>`, `<e k="v"/>`, `<!-- c -->`, `<?pi x?>`, `<i/>`, `<drop/>`, `<e k=" a  b "/>`,
		// Rarely: fragments that push a document out of the subset.
		`&bogus;`, `<br>`, `]]>`, `</a>`, `<x:y/>`, "\x01", `<![CDATA[x]]>`,
	}
	rng := rand.New(rand.NewSource(21))
	accepted := 0
	const docs = 4000
	for n := 0; n < docs; n++ {
		var b strings.Builder
		var stack []int
		if rng.Intn(4) == 0 {
			b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
		}
		b.WriteString(open[0])
		stack = append(stack, 0)
		for steps := rng.Intn(30); steps > 0 && len(stack) > 0; steps-- {
			switch r := rng.Intn(10); {
			case r < 2:
				e := rng.Intn(len(open))
				b.WriteString(open[e])
				stack = append(stack, e)
			case r < 4:
				b.WriteString(closeOf[stack[len(stack)-1]])
				stack = stack[:len(stack)-1]
			default:
				// The out-of-subset fragments sit at the end of the list.
				if i := rng.Intn(len(leaf) + 40); i < len(leaf) {
					b.WriteString(leaf[i])
				} else {
					b.WriteString(leaf[i%(len(leaf)-7)])
				}
			}
		}
		for len(stack) > 0 {
			b.WriteString(closeOf[stack[len(stack)-1]])
			stack = stack[:len(stack)-1]
		}
		doc := b.String()
		want, wantErr := referenceParse(strings.NewReader(doc))
		decoded, err := newParser().decodeTree([]byte(doc))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%q: decoder-fed builder says %v, the reference %v", doc, err, wantErr)
		}
		if diff := treeDiff(decoded, want); err == nil && diff != "" {
			t.Fatalf("%q, decoder-fed builder: %s", doc, diff)
		}
		got, ok := newParser().scanTree([]byte(doc))
		if !ok {
			continue
		}
		accepted++
		if wantErr != nil {
			t.Fatalf("scanner accepts %q, the reference says %v", doc, wantErr)
		}
		if diff := treeDiff(got, want); diff != "" {
			t.Fatalf("%q: %s", doc, diff)
		}
	}
	if accepted < docs/2 {
		t.Fatalf("the scanner accepted %d of %d documents: the soup no longer exercises it", accepted, docs)
	}
}

// TestValueIsFieldsJoin holds the one-allocation white-space collapse to
// its definition.
func TestValueIsFieldsJoin(t *testing.T) {
	var b builder
	for _, s := range []string{
		"", " ", "a", " a ", "a  b", "\t\n\v\f\r a\t\tb \r\n", "a\u00a0b", "\u0085a\u1680b\u2000c\u2028d\u2029e\u202ff\u205fg\u3000",
		"a\u200bb", "é è", "\xff \xfe", "a\xc2", "\xc2\xa0", "x\u00a0", "\u00a0x", strings.Repeat(" pad ", 100),
	} {
		if got, want := b.value([]byte(s)), strings.Join(strings.Fields(s), " "); got != want {
			t.Errorf("value(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestParseDeclaredCharsets: real dblp.xml declares ISO-8859-1.
func TestParseDeclaredCharsets(t *testing.T) {
	for _, charset := range []string{"ISO-8859-1", "iso-8859-1", "Latin1", "US-ASCII"} {
		doc := "<?xml version=\"1.0\" encoding=\"" + charset + "\"?>\n<dblp><author>J\xfcrgen M&uuml;ller</author></dblp>"
		tree, err := ParseString(doc)
		if err != nil {
			t.Fatalf("%s: %v", charset, err)
		}
		if got := tree.Answer(ParsePath("dblp.author.S")); len(got) != 1 || got[0] != "Jürgen Müller" {
			t.Errorf("%s: author = %q, want Jürgen Müller", charset, got)
		}
	}
	_, err := ParseString(`<?xml version="1.0" encoding="KOI8-R"?><a/>`)
	if err == nil || !strings.Contains(err.Error(), "KOI8-R") {
		t.Errorf("a KOI8-R document: error %v, want one naming the charset", err)
	}
}

// TestScanAllocations is the allocation guard of the scanner: a warm parser
// reads a DBLP-shaped record with one allocation per leaf (its value) and
// three for the tree — none per element, tag, text run or attribute.
func TestScanAllocations(t *testing.T) {
	doc := []byte(dblpRecord)
	p := newParser()
	tree, ok := p.scanTree(doc)
	if !ok {
		t.Fatal("the scanner declined the record")
	}
	leaves := len(tree.Leaves())
	if leaves != 10 {
		t.Fatalf("record has %d leaves, want 10", leaves)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := p.scanTree(doc); !ok {
			t.Fatal("declined")
		}
	})
	if max := float64(leaves + 3); allocs > max {
		t.Errorf("a warm parse of a record with %d leaves allocates %.0f times, want at most %.0f", leaves, allocs, max)
	}
}
