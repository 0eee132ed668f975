package dataset

import (
	"math/rand"
	"strings"
	"testing"

	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/xmltree"
)

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) missing", name)
		}
		if _, ok := ByName(strings.ToLower(name)); !ok {
			t.Errorf("ByName(%q) lowercase missing", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name resolved")
	}
}

func checkCollection(t *testing.T, c *Collection, wantStruct, wantContent, wantHybrid int) {
	t.Helper()
	n := len(c.Trees)
	if n == 0 {
		t.Fatal("no documents")
	}
	if len(c.StructLabels) != n || len(c.ContentLabels) != n || len(c.HybridLabels) != n {
		t.Fatalf("label arrays misaligned: %d/%d/%d vs %d docs",
			len(c.StructLabels), len(c.ContentLabels), len(c.HybridLabels), n)
	}
	if c.NumStruct != wantStruct || c.NumContent != wantContent || c.NumHybrid != wantHybrid {
		t.Errorf("class counts = %d/%d/%d, want %d/%d/%d",
			c.NumStruct, c.NumContent, c.NumHybrid, wantStruct, wantContent, wantHybrid)
	}
	for i := 0; i < n; i++ {
		if c.StructLabels[i] < 0 || c.StructLabels[i] >= c.NumStruct {
			t.Fatalf("doc %d struct label %d out of range", i, c.StructLabels[i])
		}
		if c.ContentLabels[i] < 0 || c.ContentLabels[i] >= c.NumContent {
			t.Fatalf("doc %d content label %d out of range", i, c.ContentLabels[i])
		}
		if c.HybridLabels[i] < 0 || c.HybridLabels[i] >= c.NumHybrid {
			t.Fatalf("doc %d hybrid label %d out of range", i, c.HybridLabels[i])
		}
		if c.Trees[i] == nil || c.Trees[i].Root == nil {
			t.Fatalf("doc %d tree empty", i)
		}
	}
	// All classes populated when docs ≥ classes.
	if n >= c.NumHybrid {
		seen := map[int]bool{}
		for _, l := range c.HybridLabels {
			seen[l] = true
		}
		if len(seen) != c.NumHybrid {
			t.Errorf("only %d of %d hybrid classes populated", len(seen), c.NumHybrid)
		}
	}
}

// Class geometries from Sect. 5.2 of the paper.
func TestDBLPGeometry(t *testing.T) {
	checkCollection(t, DBLP(Spec{Docs: 64, Seed: 1}), 4, 6, 16)
}

func TestIEEEGeometry(t *testing.T) {
	checkCollection(t, IEEE(Spec{Docs: 28, Seed: 1}), 2, 8, 14)
}

func TestShakespeareGeometry(t *testing.T) {
	checkCollection(t, Shakespeare(Spec{Docs: 12, Seed: 1}), 3, 5, 12)
}

func TestWikipediaGeometry(t *testing.T) {
	checkCollection(t, Wikipedia(Spec{Docs: 42, Seed: 1}), 1, 21, 21)
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range Names() {
		gen, _ := ByName(name)
		a := gen(Spec{Docs: 10, Seed: 9})
		b := gen(Spec{Docs: 10, Seed: 9})
		if len(a.Trees) != len(b.Trees) {
			t.Fatalf("%s: doc counts differ", name)
		}
		for i := range a.Trees {
			sa, sb := xmltree.RenderString(a.Trees[i]), xmltree.RenderString(b.Trees[i])
			if sa != sb {
				t.Fatalf("%s: doc %d differs across equal seeds", name, i)
			}
		}
		c := gen(Spec{Docs: 10, Seed: 10})
		diff := false
		for i := range a.Trees {
			if xmltree.RenderString(a.Trees[i]) != xmltree.RenderString(c.Trees[i]) {
				diff = true
				break
			}
		}
		if !diff {
			t.Errorf("%s: different seeds produced identical corpora", name)
		}
	}
}

func TestDBLPStructuralSchemas(t *testing.T) {
	c := DBLP(Spec{Docs: 32, Seed: 2})
	for i, tree := range c.Trees {
		rec := tree.Root.Children[0]
		want := dblpStructNames[c.StructLabels[i]]
		if rec.Label != want {
			t.Errorf("doc %d: record label %q, want %q", i, rec.Label, want)
		}
	}
}

func TestShakespeareDiscriminatoryPaths(t *testing.T) {
	c := Shakespeare(Spec{Docs: 12, Seed: 3})
	for i, tree := range c.Trees {
		hasPG := len(tree.Apply(xmltree.ParsePath("PLAY.PERSONAE.PGROUP"))) > 0
		hasPro := len(tree.Apply(xmltree.ParsePath("PLAY.ACT.PROLOGUE"))) > 0
		hasEpi := len(tree.Apply(xmltree.ParsePath("PLAY.ACT.EPILOGUE"))) > 0
		switch c.StructLabels[i] {
		case shakPGroup:
			if !hasPG || hasPro || hasEpi {
				t.Errorf("doc %d: pgroup class has pg=%v pro=%v epi=%v", i, hasPG, hasPro, hasEpi)
			}
		case shakPrologue:
			if hasPG || !hasPro || hasEpi {
				t.Errorf("doc %d: prologue class has pg=%v pro=%v epi=%v", i, hasPG, hasPro, hasEpi)
			}
		case shakEpilogue:
			if hasPG || hasPro || !hasEpi {
				t.Errorf("doc %d: epilogue class has pg=%v pro=%v epi=%v", i, hasPG, hasPro, hasEpi)
			}
		}
	}
}

func TestIEEESchemaVariants(t *testing.T) {
	c := IEEE(Spec{Docs: 14, Seed: 4})
	for i, tree := range c.Trees {
		hasFM := len(tree.Apply(xmltree.ParsePath("article.fm"))) > 0
		hasHdr := len(tree.Apply(xmltree.ParsePath("article.hdr"))) > 0
		if c.StructLabels[i] == ieeeTransactions && (!hasFM || hasHdr) {
			t.Errorf("doc %d: transactions article fm=%v hdr=%v", i, hasFM, hasHdr)
		}
		if c.StructLabels[i] == ieeeNonTransactions && (hasFM || !hasHdr) {
			t.Errorf("doc %d: non-transactions article fm=%v hdr=%v", i, hasFM, hasHdr)
		}
	}
}

func TestDBLPTupleRatio(t *testing.T) {
	// ~2 transactions per document (1–3 authors), as in the real subset.
	c := DBLP(Spec{Docs: 60, Seed: 5})
	tuples := 0
	for _, tree := range c.Trees {
		tuples += len(tuple.Extract(tree, tuple.Options{}).Tuples)
	}
	ratio := float64(tuples) / float64(len(c.Trees))
	if ratio < 1.2 || ratio > 3 {
		t.Errorf("tuples per document = %.2f, want ≈2", ratio)
	}
}

func TestIEEEManyTuplesPerDoc(t *testing.T) {
	c := IEEE(Spec{Docs: 6, Seed: 6})
	for i, tree := range c.Trees {
		if r := tuple.Extract(tree, tuple.Options{MaxTuplesPerTree: 64}); len(r.Tuples) < 5 {
			t.Errorf("doc %d yields only %d tuples", i, len(r.Tuples))
		}
	}
}

func TestBuildCorpusLabelsAndVectors(t *testing.T) {
	c := DBLP(Spec{Docs: 16, Seed: 7})
	corpus := c.BuildCorpus(ByHybrid, 32, 1)
	if len(corpus.Transactions) == 0 {
		t.Fatal("no transactions")
	}
	labels := TransactionLabels(corpus)
	for i, tr := range corpus.Transactions {
		if labels[i] != c.HybridLabels[tr.Doc] {
			t.Errorf("transaction %d label %d != doc label %d", i, labels[i], c.HybridLabels[tr.Doc])
		}
	}
	// Weighting ran: some item has a non-zero vector.
	nonZero := false
	for id := 0; id < corpus.Items.Len() && !nonZero; id++ {
		nonZero = !corpus.Items.Get(txn.ItemID(id)).Vector.IsZero()
	}
	if !nonZero {
		t.Error("no weighted vectors after BuildCorpus")
	}
}

func TestLabelsSelector(t *testing.T) {
	c := DBLP(Spec{Docs: 16, Seed: 8})
	if _, k := c.Labels(ByContent); k != 6 {
		t.Errorf("content k = %d", k)
	}
	if _, k := c.Labels(ByStructure); k != 4 {
		t.Errorf("structure k = %d", k)
	}
	if _, k := c.Labels(ByHybrid); k != 16 {
		t.Errorf("hybrid k = %d", k)
	}
	if c.K(ByContent) != 6 {
		t.Errorf("K() = %d", c.K(ByContent))
	}
}

func TestClassKindString(t *testing.T) {
	if ByContent.String() != "content" || ByStructure.String() != "structure" || ByHybrid.String() != "hybrid" {
		t.Error("ClassKind strings wrong")
	}
	if ClassKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestVocabularyDisjoint(t *testing.T) {
	// Words from different topic vocabularies must not collide (the marker
	// syllable guarantees it).
	rng := rand.New(rand.NewSource(12))
	ts := newTopicSet(6, 80, 120, 0.8, rng)
	seen := map[string]int{}
	for tIdx, g := range ts.gens {
		for _, w := range g.topic.words {
			if prev, ok := seen[w]; ok && prev != tIdx {
				t.Fatalf("word %q in topics %d and %d", w, prev, tIdx)
			}
			seen[w] = tIdx
		}
	}
}

func TestPhrasePoolAndNamePool(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	v := newVocabulary(3, 40, rng)
	pp := newPhrasePool(v, 5, 3, rng)
	if len(pp.phrases) != 5 {
		t.Fatalf("phrases = %d", len(pp.phrases))
	}
	for _, p := range pp.phrases {
		if got := len(strings.Fields(p)); got != 3 {
			t.Errorf("phrase %q has %d words", p, got)
		}
	}
	// pick returns pool members only.
	for i := 0; i < 50; i++ {
		found := false
		p := pp.pick(rng)
		for _, q := range pp.phrases {
			if p == q {
				found = true
			}
		}
		if !found {
			t.Fatalf("pick returned foreign phrase %q", p)
		}
	}
	np := newNamePool(10, newNameGen(rng), rng)
	if len(np.local) != 10 {
		t.Fatalf("name pool = %d", len(np.local))
	}
	if np.name(rng) == "" {
		t.Error("empty name")
	}
}

func TestSampleBiasTowardLowRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	v := newVocabulary(2, 100, rng)
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[v.sample(rng)]++
	}
	firstHalf, secondHalf := 0, 0
	idx := map[string]int{}
	for i, w := range v.words {
		idx[w] = i
	}
	for w, c := range counts {
		if idx[w] < 50 {
			firstHalf += c
		} else {
			secondHalf += c
		}
	}
	if firstHalf <= secondHalf {
		t.Errorf("sampling not rank-biased: %d vs %d", firstHalf, secondHalf)
	}
}

func TestRenderedDocsParse(t *testing.T) {
	for _, name := range Names() {
		gen, _ := ByName(name)
		c := gen(Spec{Docs: 4, Seed: 11})
		for i, tree := range c.Trees {
			out := xmltree.RenderString(tree)
			re, err := xmltree.ParseString(out)
			if err != nil {
				t.Fatalf("%s doc %d roundtrip: %v", name, i, err)
			}
			if re.Root.Label != tree.Root.Label {
				t.Errorf("%s doc %d root changed", name, i)
			}
			if got, want := len(re.Leaves()), len(tree.Leaves()); got != want {
				t.Errorf("%s doc %d leaves %d != %d", name, i, got, want)
			}
		}
	}
}
