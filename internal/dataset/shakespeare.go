package dataset

import (
	"fmt"
	"math/rand"

	"xmlclust/internal/xmltree"
)

// Shakespeare structural classes, identified in the paper by the presence
// or absence of discriminatory paths: personae.pgroup, act.prologue and
// act.epilogue (Sect. 5.2).
const (
	shakPGroup = iota
	shakPrologue
	shakEpilogue
)

const shakNumTopics = 5

// shakHybrid lists the 12 structure×topic combinations used as hybrid
// classes (the paper groups tree tuples into 12 classes for
// structure/content-driven clustering).
var shakHybrid = func() [][2]int {
	var combos [][2]int
	for t := 0; t < shakNumTopics; t++ {
		combos = append(combos, [2]int{shakPGroup, t})
	}
	for t := 0; t < shakNumTopics; t++ {
		combos = append(combos, [2]int{shakPrologue, t})
	}
	combos = append(combos, [2]int{shakEpilogue, 0}, [2]int{shakEpilogue, 2})
	return combos
}()

// Shakespeare generates the play corpus: very few, very large documents
// whose tuple decomposition yields thousands of transactions each (the
// extraction cap keeps the combinatorial product bounded; see
// tuple.Options). The real archive has 7 plays; the synthetic default uses
// 14 so that all 12 hybrid classes are populated.
func Shakespeare(spec Spec) *Collection {
	docs := spec.docsOr(14)
	rng := rand.New(rand.NewSource(spec.Seed))
	topics := newTopicSet(shakNumTopics, 90, 250, 0.8, rng)
	names := newNameGen(rng)

	c := &Collection{
		Name:       "Shakespeare",
		NumStruct:  3,
		NumContent: shakNumTopics,
		NumHybrid:  len(shakHybrid),
	}
	for i := 0; i < docs; i++ {
		combo := shakHybrid[i%len(shakHybrid)]
		s, t := combo[0], combo[1]
		c.StructLabels = append(c.StructLabels, s)
		c.ContentLabels = append(c.ContentLabels, t)
		c.HybridLabels = append(c.HybridLabels, i%len(shakHybrid))
		c.Trees = append(c.Trees, shakDoc(rng, topics, names, s, t, i))
	}
	return c
}

func shakDoc(rng *rand.Rand, topics *topicSet, names *nameGen, s, t, idx int) *xmltree.Tree {
	g := topics.gen(t)
	tree := xmltree.NewTree("PLAY")
	title := tree.AddElement(tree.Root, "TITLE")
	tree.AddText(title, "the tragedy of "+g.text(3, rng)+fmt.Sprintf(" %d", idx))

	personae := tree.AddElement(tree.Root, "PERSONAE")
	pt := tree.AddElement(personae, "TITLE")
	tree.AddText(pt, "dramatis personae")
	nPersona := 4 + rng.Intn(3)
	cast := make([]string, 0, nPersona+2)
	for p := 0; p < nPersona; p++ {
		nm := names.name(rng)
		cast = append(cast, nm)
		pe := tree.AddElement(personae, "PERSONA")
		tree.AddText(pe, nm+", "+g.text(3, rng))
	}
	if s == shakPGroup {
		pg := tree.AddElement(personae, "PGROUP")
		for p := 0; p < 2; p++ {
			nm := names.name(rng)
			cast = append(cast, nm)
			pe := tree.AddElement(pg, "PERSONA")
			tree.AddText(pe, nm)
		}
		gd := tree.AddElement(pg, "GRPDESCR")
		tree.AddText(gd, g.text(4, rng))
	}

	speech := func(parent *xmltree.Node) {
		sp := tree.AddElement(parent, "SPEECH")
		speaker := tree.AddElement(sp, "SPEAKER")
		tree.AddText(speaker, cast[rng.Intn(len(cast))])
		// Lines of one speech are concatenated into one speech.line element,
		// exactly as the paper preprocesses the archive (Sect. 5.2).
		line := tree.AddElement(sp, "LINE")
		tree.AddText(line, g.text(18+rng.Intn(10), rng))
	}

	for a := 0; a < 3; a++ {
		act := tree.AddElement(tree.Root, "ACT")
		at := tree.AddElement(act, "TITLE")
		tree.AddText(at, fmt.Sprintf("act %d", a+1))
		if s == shakPrologue && a == 0 {
			pro := tree.AddElement(act, "PROLOGUE")
			prt := tree.AddElement(pro, "TITLE")
			tree.AddText(prt, "prologue")
			speech(pro)
		}
		for sc := 0; sc < 2+rng.Intn(2); sc++ {
			scene := tree.AddElement(act, "SCENE")
			sct := tree.AddElement(scene, "TITLE")
			tree.AddText(sct, fmt.Sprintf("scene %d. ", sc+1)+g.text(4, rng))
			for sp := 0; sp < 5+rng.Intn(4); sp++ {
				speech(scene)
			}
		}
		if s == shakEpilogue && a == 2 {
			epi := tree.AddElement(act, "EPILOGUE")
			ept := tree.AddElement(epi, "TITLE")
			tree.AddText(ept, "epilogue")
			speech(epi)
		}
	}
	return tree
}
