package weighting

import (
	"math"
	"testing"

	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

func buildCorpus(t *testing.T, docs ...string) *txn.Corpus {
	t.Helper()
	var trees []*xmltree.Tree
	for _, d := range docs {
		tree, err := xmltree.ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	return txn.Build(trees, txn.BuildOptions{})
}

func TestApplyAssignsVectors(t *testing.T) {
	c := buildCorpus(t,
		`<r><a>clustering structures</a><b>clustering documents</b></r>`,
		`<r><a>network protocols</a><b>routing network</b></r>`,
	)
	stats := Apply(c)
	if stats.Vocabulary == 0 || stats.TotalTCUs == 0 {
		t.Fatalf("stats empty: %+v", stats)
	}
	nonZero := 0
	for id := 0; id < c.Items.Len(); id++ {
		if !c.Items.Get(txn.ItemID(id)).Vector.IsZero() {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no item received a vector")
	}
}

func TestUbiquitousTermGetsZeroWeight(t *testing.T) {
	// "shared" occurs in every TCU → idf = ln(1) = 0 → dropped.
	c := buildCorpus(t,
		`<r><a>shared alpha</a><b>shared beta</b></r>`,
	)
	Apply(c)
	sharedID, ok := c.Terms.Lookup("share") // stemmed
	if !ok {
		t.Fatal("term 'share' not in vocabulary")
	}
	for id := 0; id < c.Items.Len(); id++ {
		v := c.Items.Get(txn.ItemID(id)).Vector
		if v.Weight(sharedID) != 0 {
			t.Errorf("ubiquitous term has weight %v", v.Weight(sharedID))
		}
	}
}

func TestRareTermOutweighsCommonOne(t *testing.T) {
	c := buildCorpus(t,
		`<r><a>common rare</a><b>common alpha</b><c>common beta</c><d>common gamma</d></r>`,
	)
	Apply(c)
	rareID, ok1 := c.Terms.Lookup("rare")
	commonID, ok2 := c.Terms.Lookup("common")
	if !ok1 || !ok2 {
		t.Fatal("terms missing from vocabulary")
	}
	// Find the item containing both terms.
	var v vector.Sparse
	for id := 0; id < c.Items.Len(); id++ {
		it := c.Items.Get(txn.ItemID(id))
		if it.Answer == "common rare" {
			v = it.Vector
		}
	}
	if v.IsZero() {
		t.Fatal("item not found")
	}
	if v.Weight(rareID) <= v.Weight(commonID) {
		t.Errorf("rare %v should outweigh common %v", v.Weight(rareID), v.Weight(commonID))
	}
}

func TestTermFrequencyRaisesWeight(t *testing.T) {
	c := buildCorpus(t,
		`<r><a>echo echo echo noise</a><b>echo other words</b><c>quiet text here</c></r>`,
	)
	Apply(c)
	echoID, ok := c.Terms.Lookup("echo")
	if !ok {
		t.Fatal("echo not in vocabulary")
	}
	var tripple, single float64
	for id := 0; id < c.Items.Len(); id++ {
		it := c.Items.Get(txn.ItemID(id))
		switch it.Answer {
		case "echo echo echo noise":
			tripple = it.Vector.Weight(echoID)
		case "echo other words":
			single = it.Vector.Weight(echoID)
		}
	}
	if tripple <= single {
		t.Errorf("tf=3 weight %v should exceed tf=1 weight %v", tripple, single)
	}
}

func TestEmptyItemsCounted(t *testing.T) {
	// Attribute values that preprocess to nothing (stopwords, numbers of
	// one digit) yield zero vectors and are counted.
	c := buildCorpus(t, `<r><a>the of and</a><b>substantive words</b></r>`)
	stats := Apply(c)
	if stats.EmptyItems == 0 {
		t.Errorf("expected at least one empty item, got %+v", stats)
	}
}

func TestWeightsNonNegativeFinite(t *testing.T) {
	c := buildCorpus(t,
		`<r><a>alpha beta gamma</a><a>beta gamma delta</a><b>epsilon zeta</b></r>`,
		`<r><a>alpha epsilon</a><b>eta theta iota</b></r>`,
	)
	Apply(c)
	for id := 0; id < c.Items.Len(); id++ {
		for _, e := range c.Items.Get(txn.ItemID(id)).Vector.Entries() {
			if e.Weight <= 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
				t.Fatalf("bad weight %v for term %d", e.Weight, e.Term)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() *txn.Corpus {
		c := buildCorpus(t,
			`<r><a>alpha beta</a><b>beta gamma</b></r>`,
			`<r><a>gamma delta</a><b>delta alpha</b></r>`,
		)
		Apply(c)
		return c
	}
	c1, c2 := mk(), mk()
	if c1.Items.Len() != c2.Items.Len() {
		t.Fatal("item counts differ")
	}
	for id := 0; id < c1.Items.Len(); id++ {
		v1 := c1.Items.Get(txn.ItemID(id)).Vector
		v2 := c2.Items.Get(txn.ItemID(id)).Vector
		if !vector.Equal(v1, v2) {
			t.Fatalf("item %d vectors differ: %v vs %v", id, v1, v2)
		}
	}
}

// TestSharedItemAveragesContexts exercises the multi-occurrence averaging:
// an item appearing in two tuples gets the mean of its per-occurrence
// context factors.
func TestSharedItemAveragesContexts(t *testing.T) {
	// 'KDD'-style shared leaf: two same-label records share a booktitle.
	c := buildCorpus(t, `
<dblp>
  <rec><who>first person</who><where>venue shared words</where></rec>
  <rec><who>second human</who><where>venue shared words</where></rec>
</dblp>`)
	stats := Apply(c)
	if stats.TotalTCUs != 4 {
		t.Fatalf("TotalTCUs = %d, want 4 (2 tuples × 2 TCUs)", stats.TotalTCUs)
	}
	// The shared 'where' item must have a well-formed vector.
	found := false
	for id := 0; id < c.Items.Len(); id++ {
		it := c.Items.Get(txn.ItemID(id))
		if it.Answer == "venue shared words" {
			found = true
			if it.Vector.IsZero() {
				t.Error("shared item has zero vector")
			}
		}
	}
	if !found {
		t.Fatal("shared item not interned once")
	}
}

func BenchmarkApply(b *testing.B) {
	var docs []string
	for i := 0; i < 20; i++ {
		docs = append(docs, `<r><a>alpha beta gamma delta epsilon</a><b>zeta eta theta iota kappa</b><c>lambda mu nu xi omicron</c></r>`)
	}
	var trees []*xmltree.Tree
	for _, d := range docs {
		tr, _ := xmltree.ParseString(d)
		trees = append(trees, tr)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := txn.Build(trees, txn.BuildOptions{})
		Apply(c)
	}
}
