package textproc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"XML-based   clustering", []string{"xml", "based", "clustering"}},
		{"year 2003", []string{"year", "2003"}},
		{"", nil},
		{"a b c", nil}, // tokens shorter than two bytes dropped
		{"K-means", []string{"means"}},
		{"état Über", []string{"état", "über"}},
		{"foo_bar", []string{"foo", "bar"}},
		{"e1,e2;e3", []string{"e1", "e2", "e3"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !eqStrings(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTokenizeShortTokenRule pins the rule every saved corpus depends on:
// the cut is two BYTES, not two runes, so a lone multi-byte letter or digit
// is a token while a lone ASCII one is noise.
func TestTokenizeShortTokenRule(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"é", []string{"é"}},
		{"É", []string{"é"}},
		{"a é 7 ٣ x", []string{"é", "٣"}}, // ٣ is ARABIC-INDIC DIGIT THREE
		{"à la carte", []string{"à", "la", "carte"}},
		{"İ", nil}, // lower-cases to the one-byte "i"
		{"中 文", []string{"中", "文"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !eqStrings(got, c.want) {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// referenceTokenize is the tokenizer the Scanner replaced — a rune loop
// over a strings.Builder — kept as the oracle for the property test below.
func referenceTokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len(tok) < 2 {
			return
		}
		tokens = append(tokens, tok)
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// TestScannerMatchesReferenceTokenizer compares the two on random strings:
// testing/quick's (runes drawn from all of Unicode, so mostly separators and
// rare scripts) and strings over an alphabet dense in what the scanner
// treats specially — ASCII it lower-cases by hand, multi-byte letters and
// digits, case mappings that change the byte length, combining marks, and
// bytes that are not UTF-8. One Scanner serves all strings, as in ingest.
func TestScannerMatchesReferenceTokenizer(t *testing.T) {
	var sc Scanner
	scan := func(s string) []string {
		var toks []string
		sc.Reset(s)
		for tok, ok := sc.Next(); ok; tok, ok = sc.Next() {
			toks = append(toks, string(tok))
		}
		return toks
	}
	check := func(s string) bool {
		want := referenceTokenize(s)
		return eqStrings(scan(s), want) && eqStrings(Tokenize(s), want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	alphabet := []string{
		"a", "b", "Z", "Q", "0", "7", " ", " ", "-", "_", ".", "'", "\n", "\t",
		"é", "É", "ß", "ẞ", "İ", "ı", "ǅ", "Σ", "ς", "Ж", "ж", "Ⱥ", "ⱥ",
		"中", "文", "٣", "௧", "Ⅷ", "²", "\u0301", "\u200d", "\u00a0", "€",
		"\xff", "\xc3", "\xe2\x82", "\xf0\x9f", "\x00",
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		if s := b.String(); !check(s) {
			t.Fatalf("%q: scanner %q, Tokenize %q, reference %q", s, scan(s), Tokenize(s), referenceTokenize(s))
		}
	}
}

func TestTokenizeLowercases(t *testing.T) {
	for _, tok := range Tokenize("MiXeD CaSe TeXT") {
		if tok != strings.ToLower(tok) {
			t.Errorf("token %q not lowercase", tok)
		}
	}
}

func TestTokenizeProperty(t *testing.T) {
	// Every token has length ≥ 2 and contains only letters/digits.
	prop := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if len(tok) < 2 {
				return false
			}
			for _, r := range tok {
				if !isAlnum(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func isAlnum(r rune) bool {
	return r == '_' || (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') ||
		r >= 0x80 || (r >= 'A' && r <= 'Z')
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "is", "a"} {
		if !IsStopword(w) {
			t.Errorf("expected %q to be a stopword", w)
		}
	}
	for _, w := range []string{"clustering", "xml", "similarity", "peer"} {
		if IsStopword(w) {
			t.Errorf("did not expect %q to be a stopword", w)
		}
	}
}

// Porter reference pairs from the algorithm description and the classic
// test vocabulary.
func TestStemKnownPairs(t *testing.T) {
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
		"clustering":     "cluster",
		"documents":      "document",
		"similarity":     "similar",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndNonASCII(t *testing.T) {
	if got := Stem("at"); got != "at" {
		t.Errorf("Stem(at) = %q", got)
	}
	if got := Stem("über"); got != "über" {
		t.Errorf("non-ASCII word must pass through, got %q", got)
	}
	if got := Stem("x2y"); got != "x2y" {
		t.Errorf("alnum word should survive, got %q", got)
	}
}

func TestStemIdempotentOnVocabulary(t *testing.T) {
	// Stemming a stem may reduce it further in rare Porter cases; the
	// important property for interning stability is determinism.
	words := []string{"clustering", "clustered", "clusters", "collaborative",
		"representatives", "transactions", "structural", "similarities"}
	for _, w := range words {
		a, b := Stem(w), Stem(w)
		if a != b {
			t.Errorf("Stem(%q) nondeterministic: %q vs %q", w, a, b)
		}
	}
}

func TestStemPropertyNoGrowth(t *testing.T) {
	prop := func(s string) bool {
		w := strings.ToLower(s)
		return len(Stem(w)) <= len(w)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStemFamiliesCollapse(t *testing.T) {
	families := [][]string{
		{"cluster", "clusters", "clustered", "clustering"},
		{"connect", "connected", "connecting", "connection", "connections"},
		{"relate", "related", "relating"},
	}
	for _, fam := range families {
		stem := Stem(fam[0])
		for _, w := range fam[1:] {
			if got := Stem(w); got != stem {
				t.Errorf("family %v: Stem(%q)=%q, want %q", fam, w, got, stem)
			}
		}
	}
}

func TestPreprocessPipeline(t *testing.T) {
	got := Preprocess("The Clustering of XML Documents, and their Structures!")
	want := []string{"cluster", "xml", "document", "structur"}
	if !eqStrings(got, want) {
		t.Errorf("Preprocess = %v, want %v", got, want)
	}
}

func TestPreprocessDropsStopwordStems(t *testing.T) {
	// "being" stems to "be" which is a stopword and too short.
	got := Preprocess("being there")
	for _, w := range got {
		if IsStopword(w) || len(w) < 2 {
			t.Errorf("Preprocess leaked %q", w)
		}
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkStem(b *testing.B) {
	words := []string{"clustering", "collaborative", "representatives",
		"transactions", "effectiveness", "traditional", "probabilistic"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

func BenchmarkPreprocess(b *testing.B) {
	text := "Clustering XML documents is extensively used to organize large " +
		"collections of XML documents in groups that are coherent according " +
		"to structure and content features"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Preprocess(text)
	}
}
