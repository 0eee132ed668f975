// Package textproc implements the language-specific text preprocessing the
// paper relies on for textual content units (TCUs): lexical analysis,
// stopword removal and word stemming (Sect. 4.1.2, footnote 1).
//
// The pipeline is deliberately self-contained (stdlib only): a Unicode-aware
// tokenizer, a standard English stopword list and a from-scratch
// implementation of the Porter stemming algorithm.
package textproc

import (
	"unicode"
	"unicode/utf8"
)

// Scanner is the tokenizer: it splits raw text into lowercase word tokens
// without allocating. A token is a maximal run of letters or digits; runs
// consisting only of digits are kept (years such as "2003" are
// content-bearing in bibliographic data), while tokens shorter than two
// BYTES are dropped as noise — a lone ASCII letter or digit goes, a lone
// multi-byte rune such as "é" stays. Every saved corpus depends on that
// rule, so it is pinned by a test rather than tidied.
//
// The zero value is ready: Reset it onto a text, then call Next until it
// reports false. A Scanner is reused across texts to keep its buffer.
type Scanner struct {
	text string
	pos  int
	buf  []byte
}

// Reset points the scanner at the start of text.
func (s *Scanner) Reset(text string) { s.text, s.pos = text, 0 }

// Next returns the next token. The bytes live in the scanner's buffer and
// are overwritten by the following call; copy them (string(tok)) to keep
// them.
func (s *Scanner) Next() (tok []byte, ok bool) {
	buf := s.buf[:0]
	for s.pos < len(s.text) {
		word := true
		if c := s.text[s.pos]; c < utf8.RuneSelf {
			s.pos++
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
				buf = append(buf, c)
			case 'A' <= c && c <= 'Z':
				buf = append(buf, c+('a'-'A'))
			default:
				word = false
			}
		} else {
			// Invalid UTF-8 decodes to U+FFFD, which is no letter.
			r, n := utf8.DecodeRuneInString(s.text[s.pos:])
			s.pos += n
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
			} else {
				word = false
			}
		}
		if !word {
			if len(buf) >= 2 {
				break
			}
			buf = buf[:0]
		}
	}
	s.buf = buf
	return buf, len(buf) >= 2
}

// Tokenize splits raw text into the tokens a Scanner yields.
func Tokenize(text string) []string {
	var tokens []string
	var s Scanner
	s.Reset(text)
	for tok, ok := s.Next(); ok; tok, ok = s.Next() {
		tokens = append(tokens, string(tok))
	}
	return tokens
}

// Term maps one token to its index term — stopword removal and Porter
// stemming. ok is false when the token is dropped: a stopword, or a stem
// that is a stopword or shorter than two bytes.
func Term(tok string) (term string, ok bool) {
	if IsStopword(tok) {
		return "", false
	}
	s := Stem(tok)
	if len(s) < 2 || IsStopword(s) {
		return "", false
	}
	return s, true
}

// Preprocess runs the full pipeline used to turn a TCU's raw text into index
// terms: tokenization, stopword removal and Porter stemming.
func Preprocess(text string) []string {
	var terms []string
	for _, tok := range Tokenize(text) {
		if term, ok := Term(tok); ok {
			terms = append(terms, term)
		}
	}
	return terms
}
