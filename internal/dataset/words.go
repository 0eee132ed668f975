// Package dataset generates the four synthetic XML corpora the experiments
// run on, reproducing the *class geometry* of the paper's real collections
// (Sect. 5.2): DBLP (4 structural × 6 topical → 16 hybrid classes, short
// texts), IEEE (2 structural × 8 topical → 14 hybrid, long sectioned
// articles), Shakespeare (3 structural × 5 topical → 12 hybrid, few long
// plays) and Wikipedia (21 topical classes over a homogeneous structure).
package dataset

import (
	"fmt"
	"math/rand"
	"strings"
)

// vocabulary is a generated word list with Zipf-ish sampling.
type vocabulary struct {
	words []string
}

var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
	"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
	"pa", "pe", "pi", "po", "pu", "ra", "re", "ri", "ro", "ru",
	"sa", "se", "si", "so", "su", "ta", "te", "ti", "to", "tu",
	"va", "ve", "vi", "vo", "vu", "za", "ze", "zi", "zo", "zu",
}

// newVocabulary builds n distinct pseudo-words for vocabulary id tag. The
// first syllable encodes the vocabulary id, so vocabularies are pairwise
// disjoint and survive stemming without cross-vocabulary collisions.
func newVocabulary(tag int, n int, rng *rand.Rand) *vocabulary {
	marker := syllables[tag%len(syllables)]
	seen := map[string]struct{}{}
	words := make([]string, 0, n)
	for len(words) < n {
		var b strings.Builder
		b.WriteString(marker)
		k := 2 + rng.Intn(2)
		for s := 0; s < k; s++ {
			b.WriteString(syllables[rng.Intn(len(syllables))])
		}
		w := b.String()
		if _, dup := seen[w]; dup {
			continue
		}
		seen[w] = struct{}{}
		words = append(words, w)
	}
	return &vocabulary{words: words}
}

// sample draws one word with a power-law rank bias (low ranks frequent).
func (v *vocabulary) sample(rng *rand.Rand) string {
	u := rng.Float64()
	idx := int(u * u * float64(len(v.words)))
	if idx >= len(v.words) {
		idx = len(v.words) - 1
	}
	return v.words[idx]
}

// textGen mixes a topic vocabulary with shared background noise.
type textGen struct {
	topic      *vocabulary
	background *vocabulary
	// topicProb is the probability of drawing from the topic vocabulary.
	topicProb float64
}

// text produces n space-separated words.
func (g *textGen) text(n int, rng *rand.Rand) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		if rng.Float64() < g.topicProb {
			b.WriteString(g.topic.sample(rng))
		} else {
			b.WriteString(g.background.sample(rng))
		}
	}
	return b.String()
}

// nameGen produces person-like names from a dedicated vocabulary.
type nameGen struct{ v *vocabulary }

func newNameGen(rng *rand.Rand) *nameGen {
	return &nameGen{v: newVocabulary(7, 300, rng)}
}

func (ng *nameGen) name(rng *rand.Rand) string {
	return capitalize(ng.v.sample(rng)) + " " + capitalize(ng.v.sample(rng))
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// phrasePool is a small set of fixed multi-word strings reused verbatim —
// the synthetic analogue of the exact-match categorical fields of the real
// corpora (conference names, journal titles, keywords, portal categories)
// that give γ-matching its anchors.
type phrasePool struct {
	phrases []string
}

func newPhrasePool(v *vocabulary, count, wordsEach int, rng *rand.Rand) *phrasePool {
	pp := &phrasePool{}
	seen := map[string]struct{}{}
	for len(pp.phrases) < count {
		var b strings.Builder
		for w := 0; w < wordsEach; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.sample(rng))
		}
		p := b.String()
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		pp.phrases = append(pp.phrases, p)
	}
	return pp
}

func (pp *phrasePool) pick(rng *rand.Rand) string {
	return pp.phrases[rng.Intn(len(pp.phrases))]
}

// namePool draws author-like names from a per-topic pool with occasional
// cross-topic names, mimicking community-correlated authorship.
type namePool struct {
	local  []string
	global *nameGen
}

func newNamePool(size int, global *nameGen, rng *rand.Rand) *namePool {
	np := &namePool{global: global}
	for i := 0; i < size; i++ {
		np.local = append(np.local, global.name(rng))
	}
	return np
}

func (np *namePool) name(rng *rand.Rand) string {
	if rng.Float64() < 0.85 {
		return np.local[rng.Intn(len(np.local))]
	}
	return np.global.name(rng)
}

// topicSet prepares per-topic generators sharing one background vocabulary.
type topicSet struct {
	gens []*textGen
	bg   *vocabulary
}

func newTopicSet(numTopics, topicWords, bgWords int, topicProb float64, rng *rand.Rand) *topicSet {
	bg := newVocabulary(0, bgWords, rng)
	ts := &topicSet{bg: bg}
	for t := 0; t < numTopics; t++ {
		ts.gens = append(ts.gens, &textGen{
			topic:      newVocabulary(t+10, topicWords, rng),
			background: bg,
			topicProb:  topicProb,
		})
	}
	return ts
}

func (ts *topicSet) gen(topic int) *textGen { return ts.gens[topic] }

// docKey produces identifiers such as "conf/kd/Doc42".
func docKey(prefix string, i int) string { return fmt.Sprintf("%s/%04d", prefix, i) }
