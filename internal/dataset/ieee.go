package dataset

import (
	"math/rand"

	"xmlclust/internal/xmltree"
)

// IEEE structural categories: "transactions" vs "non-transactions"
// articles (Sect. 5.2). The two schema variants differ in their wrapper
// structure (front/body/back matter vs flat header+body), reproducing the
// INEX IEEE categorization.
const (
	ieeeTransactions = iota
	ieeeNonTransactions
)

const ieeeNumTopics = 8

// ieeeHybrid lists the 14 observed hybrid classes: transactions articles
// span all eight topics, non-transactions six of them.
var ieeeHybrid = func() [][2]int {
	var combos [][2]int
	for t := 0; t < ieeeNumTopics; t++ {
		combos = append(combos, [2]int{ieeeTransactions, t})
	}
	for t := 0; t < 6; t++ {
		combos = append(combos, [2]int{ieeeNonTransactions, t})
	}
	return combos
}()

// IEEE generates the journal-article corpus: long, sectioned documents with
// a complex schema, the heaviest workload of the four (the real collection
// has 211909 transactions; the synthetic default is scaled down but keeps
// the many-tuples-per-document profile).
func IEEE(spec Spec) *Collection {
	docs := spec.docsOr(90)
	rng := rand.New(rand.NewSource(spec.Seed))
	topics := newTopicSet(ieeeNumTopics, 110, 350, 0.8, rng)
	names := newNameGen(rng)
	journals := make([]*phrasePool, ieeeNumTopics)
	keywords := make([]*phrasePool, ieeeNumTopics)
	authors := make([]*namePool, ieeeNumTopics)
	for t := 0; t < ieeeNumTopics; t++ {
		journals[t] = newPhrasePool(topics.gen(t).topic, 3, 3, rng)
		keywords[t] = newPhrasePool(topics.gen(t).topic, 8, 2, rng)
		authors[t] = newNamePool(25, names, rng)
	}

	c := &Collection{
		Name:       "IEEE",
		NumStruct:  2,
		NumContent: ieeeNumTopics,
		NumHybrid:  len(ieeeHybrid),
	}
	for i := 0; i < docs; i++ {
		combo := ieeeHybrid[i%len(ieeeHybrid)]
		s, t := combo[0], combo[1]
		c.StructLabels = append(c.StructLabels, s)
		c.ContentLabels = append(c.ContentLabels, t)
		c.HybridLabels = append(c.HybridLabels, i%len(ieeeHybrid))
		c.Trees = append(c.Trees, ieeeDoc(rng, topics, journals[t], keywords[t], authors[t], s, t, i))
	}
	return c
}

func ieeeDoc(rng *rand.Rand, topics *topicSet, journal, kwds *phrasePool, authors *namePool, s, t, idx int) *xmltree.Tree {
	g := topics.gen(t)
	tree := xmltree.NewTree("article")
	tree.AddAttribute(tree.Root, "id", docKey("ieee", idx))

	switch s {
	case ieeeTransactions:
		fm := tree.AddElement(tree.Root, "fm")
		jt := tree.AddElement(fm, "jt")
		tree.AddText(jt, "ieee transactions on "+journal.pick(rng))
		ti := tree.AddElement(fm, "ti")
		tree.AddText(ti, g.text(8+rng.Intn(4), rng))
		for a := 0; a < 2+rng.Intn(3); a++ {
			au := tree.AddElement(fm, "au")
			tree.AddText(au, authors.name(rng))
		}
		for kw := 0; kw < 2; kw++ {
			kwd := tree.AddElement(fm, "kwd")
			tree.AddText(kwd, kwds.pick(rng))
		}
		abs := tree.AddElement(fm, "abs")
		absP := tree.AddElement(abs, "p")
		tree.AddText(absP, g.text(18+rng.Intn(10), rng))

		bdy := tree.AddElement(tree.Root, "bdy")
		for sec := 0; sec < 3+rng.Intn(3); sec++ {
			se := tree.AddElement(bdy, "sec")
			st := tree.AddElement(se, "st")
			tree.AddText(st, g.text(3+rng.Intn(3), rng))
			for p := 0; p < 2+rng.Intn(2); p++ {
				par := tree.AddElement(se, "ip1")
				tree.AddText(par, g.text(20+rng.Intn(12), rng))
			}
		}

		bm := tree.AddElement(tree.Root, "bm")
		bib := tree.AddElement(bm, "bib")
		for b := 0; b < 2; b++ {
			bb := tree.AddElement(bib, "bb")
			tree.AddText(bb, authors.name(rng)+" "+g.text(5, rng))
		}
	case ieeeNonTransactions:
		hdr := tree.AddElement(tree.Root, "hdr")
		jn := tree.AddElement(hdr, "jn")
		tree.AddText(jn, "ieee "+journal.pick(rng)+" magazine")
		atl := tree.AddElement(hdr, "atl")
		tree.AddText(atl, g.text(8+rng.Intn(4), rng))
		aug := tree.AddElement(hdr, "aug")
		for a := 0; a < 1+rng.Intn(3); a++ {
			au := tree.AddElement(aug, "au")
			tree.AddText(au, authors.name(rng))
		}
		kwg := tree.AddElement(hdr, "kwd")
		tree.AddText(kwg, kwds.pick(rng))
		bdy := tree.AddElement(tree.Root, "bdy")
		for sec := 0; sec < 2+rng.Intn(3); sec++ {
			se := tree.AddElement(bdy, "sec")
			h := tree.AddElement(se, "h")
			tree.AddText(h, g.text(3+rng.Intn(2), rng))
			for p := 0; p < 1+rng.Intn(3); p++ {
				par := tree.AddElement(se, "para")
				tree.AddText(par, g.text(20+rng.Intn(12), rng))
			}
		}
	}
	return tree
}
