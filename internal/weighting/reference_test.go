package weighting_test

import (
	"math"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/textproc"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// refAccumulator is the ttf.itf fold as it stood before the dense rewrite,
// kept literally — a map per item, per tuple and per document — as the
// oracle the production Accumulator must match bit for bit. It is slow and
// obvious on purpose; do not optimize it.
type refAccumulator struct {
	c         *txn.Corpus
	itemTF    []map[int32]int
	itemTerms [][]int32
	nT        int
	njT       map[int32]int
	accCtx    []map[int32]float64
	accN      []int
	weighted  []bool
}

func newRefAccumulator(c *txn.Corpus) *refAccumulator {
	return &refAccumulator{c: c, njT: map[int32]int{}}
}

func (a *refAccumulator) syncItems() {
	n := a.c.Items.Len()
	for id := len(a.itemTF); id < n; id++ {
		it := a.c.Items.Get(txn.ItemID(id))
		tf := map[int32]int{}
		for _, w := range textproc.Preprocess(it.Answer) {
			tf[a.c.Terms.Intern(w)]++
		}
		a.itemTF = append(a.itemTF, tf)
		terms := make([]int32, 0, len(tf))
		for t := range tf {
			terms = append(terms, t)
		}
		a.itemTerms = append(a.itemTerms, terms)
		a.accCtx = append(a.accCtx, nil)
		a.accN = append(a.accN, 0)
		a.weighted = append(a.weighted, false)
	}
}

func (a *refAccumulator) ObserveDoc(doc int, trs []*txn.Transaction) {
	a.syncItems()
	docItems := map[txn.ItemID]struct{}{}
	for _, tr := range trs {
		a.nT += tr.Len()
		for _, id := range tr.Items {
			for _, t := range a.itemTerms[id] {
				a.njT[t]++
			}
			docItems[id] = struct{}{}
		}
	}
	nXT := len(docItems)
	if nXT == 0 {
		return
	}
	njXT := map[int32]int{}
	for id := range docItems {
		for _, t := range a.itemTerms[id] {
			njXT[t]++
		}
	}
	for _, tr := range trs {
		if tr.Len() == 0 {
			continue
		}
		nTau := float64(tr.Len())
		njTau := map[int32]int{}
		for _, id := range tr.Items {
			for _, t := range a.itemTerms[id] {
				njTau[t]++
			}
		}
		for _, id := range tr.Items {
			if a.accCtx[id] == nil {
				a.accCtx[id] = map[int32]float64{}
			}
			a.accN[id]++
			ctx := a.accCtx[id]
			for _, t := range a.itemTerms[id] {
				tupleFactor := math.Exp(float64(njTau[t]) / nTau)
				treeFactor := float64(njXT[t]) / float64(nXT)
				ctx[t] += tupleFactor * treeFactor
			}
		}
	}
}

func (a *refAccumulator) Finalize() weighting.Stats {
	a.syncItems()
	stats := weighting.Stats{TotalTCUs: a.nT}
	for id := range a.itemTF {
		a.weighted[id] = true
		if a.c.Items.Get(txn.ItemID(id)).Synthetic {
			continue
		}
		tf := a.itemTF[id]
		if len(tf) == 0 {
			stats.EmptyItems++
			continue
		}
		a.c.Items.SetVector(txn.ItemID(id), a.weigh(id, tf))
	}
	stats.Vocabulary = a.c.Terms.Len()
	return stats
}

func (a *refAccumulator) weigh(id int, tf map[int32]int) vector.Sparse {
	weights := make(map[int32]float64, len(tf))
	for t, f := range tf {
		nj := a.njT[t]
		if nj < 1 {
			nj = 1
		}
		idf := math.Log(float64(a.nT) / float64(nj))
		avgCtx := 1.0
		if a.accN[id] > 0 {
			avgCtx = a.accCtx[id][t] / float64(a.accN[id])
		}
		w := float64(f) * avgCtx * idf
		if w > 0 {
			weights[t] = w
		}
	}
	return vector.FromMap(weights)
}

func (a *refAccumulator) WeighNew() int {
	a.syncItems()
	n := 0
	for id := range a.itemTF {
		if a.weighted[id] {
			continue
		}
		a.weighted[id] = true
		n++
		if a.c.Items.Get(txn.ItemID(id)).Synthetic {
			continue
		}
		tf := a.itemTF[id]
		if len(tf) == 0 || a.nT == 0 {
			continue
		}
		a.c.Items.SetVector(txn.ItemID(id), a.weigh(id, tf))
	}
	return n
}

// sameCorpusBits requires two corpora to agree on the term table and, to the
// last bit, on every item's vector.
func sameCorpusBits(t *testing.T, stage string, ref, got *txn.Corpus) {
	t.Helper()
	if ref.Terms.Len() != got.Terms.Len() {
		t.Fatalf("%s: vocabulary %d, reference %d", stage, got.Terms.Len(), ref.Terms.Len())
	}
	for i := int32(0); i < int32(ref.Terms.Len()); i++ {
		if ref.Terms.Term(i) != got.Terms.Term(i) {
			t.Fatalf("%s: term %d is %q, reference %q — interning order diverged", stage, i, got.Terms.Term(i), ref.Terms.Term(i))
		}
	}
	if ref.Items.Len() != got.Items.Len() {
		t.Fatalf("%s: %d items, reference %d", stage, got.Items.Len(), ref.Items.Len())
	}
	for id := 0; id < ref.Items.Len(); id++ {
		r, g := ref.Items.Get(txn.ItemID(id)), got.Items.Get(txn.ItemID(id))
		re, ge := r.Vector.Entries(), g.Vector.Entries()
		if len(re) != len(ge) {
			t.Fatalf("%s: item %d (%q): %d entries, reference %d", stage, id, r.Answer, len(ge), len(re))
		}
		for k := range re {
			if re[k].Term != ge[k].Term || math.Float64bits(re[k].Weight) != math.Float64bits(ge[k].Weight) {
				t.Fatalf("%s: item %d (%q) entry %d: %+v, reference %+v", stage, id, r.Answer, k, ge[k], re[k])
			}
		}
		if math.Float64bits(r.Vector.Norm()) != math.Float64bits(g.Vector.Norm()) {
			t.Fatalf("%s: item %d: norm %v, reference %v", stage, id, g.Vector.Norm(), r.Vector.Norm())
		}
	}
}

// foldSides is a reference-weighted and a production-weighted corpus fed
// the same documents.
type foldSides struct {
	refB, gotB *txn.Builder
	ref        *refAccumulator
	got        *weighting.Accumulator
}

func newFoldSides() *foldSides {
	s := &foldSides{refB: txn.NewBuilder(txn.BuildOptions{}), gotB: txn.NewBuilder(txn.BuildOptions{})}
	s.ref, s.got = newRefAccumulator(s.refB.Corpus()), weighting.NewAccumulator(s.gotB.Corpus())
	s.refB.Observe(s.ref)
	s.gotB.Observe(s.got)
	return s
}

// add feeds one tree to both sides; tuple extraction only reads the tree.
func (s *foldSides) add(tree *xmltree.Tree) {
	s.refB.Add(tree)
	s.gotB.Add(tree)
}

func (s *foldSides) finalize(t *testing.T, stage string) {
	t.Helper()
	if rs, gs := s.ref.Finalize(), s.got.Finalize(); rs != gs {
		t.Fatalf("%s: stats %+v, reference %+v", stage, gs, rs)
	}
	sameCorpusBits(t, stage, s.refB.Corpus(), s.gotB.Corpus())
}

// TestAccumulatorMatchesReferenceFold runs the dense accumulator beside the
// map-based reference on the four generated collections — flat bibliographic
// records, long articles, wiki pages and tuple-heavy plays — one stream with
// documents that yield empty transactions or none at all mixed in, then
// carries on down the serving path: conflated representative items, more
// documents through a reopened builder, the frozen-itf WeighNew pass and a
// classify-time transient item.
func TestAccumulatorMatchesReferenceFold(t *testing.T) {
	specs := []struct {
		name string
		docs int
	}{{"DBLP", 300}, {"IEEE", 12}, {"Wikipedia", 60}, {"Shakespeare", 3}}
	var batch, online []*xmltree.Tree
	for _, sp := range specs {
		gen, ok := dataset.ByName(sp.name)
		if !ok {
			t.Fatalf("no generator %q", sp.name)
		}
		trees := gen(dataset.Spec{Docs: sp.docs, Seed: 11}).Trees
		cut := len(trees) - len(trees)/4
		batch = append(batch, trees[:cut]...)
		online = append(online, trees[cut:]...)
		// Between collections: a document of empty elements (transactions
		// without items) and a rootless one (no transactions).
		batch = append(batch, xmltree.MustParseString(`<r><a/><b/></r>`), &xmltree.Tree{})
	}

	s := newFoldSides()
	for _, tree := range batch {
		s.add(tree)
	}
	docs := len(batch)
	refC, gotC := s.refB.Finish(), s.gotB.Finish()
	s.finalize(t, "batch")
	if gotC.Items.Len() < 1000 || gotC.Terms.Len() < 500 {
		t.Fatalf("fixture too small to mean anything: %d items, %d terms", gotC.Items.Len(), gotC.Terms.Len())
	}

	// Clustering interns conflated items between Finalize and the next add;
	// their merged answer keys pass through the tokenizer like any other.
	syn := vector.FromMap(map[int32]float64{0: 0.125, 3: 2})
	key := txn.MergedAnswerKey([]string{refC.Items.Get(0).Answer, refC.Items.Get(1).Answer, "Fresh Wording, never seen"})
	for _, c := range []*txn.Corpus{refC, gotC} {
		c.Items.InternSynthetic(c.Items.Get(0).Path, key, syn, []txn.ItemID{0, 1})
	}

	s.refB, s.gotB = txn.ReopenBuilder(refC, docs, txn.BuildOptions{}), txn.ReopenBuilder(gotC, docs, txn.BuildOptions{})
	s.refB.Observe(s.ref)
	s.gotB.Observe(s.got)
	for i, tree := range online {
		s.add(tree)
		if i%7 == 0 { // the service weighs after every add; every seventh keeps the test quick
			if rn, gn := s.ref.WeighNew(), s.got.WeighNew(); rn != gn {
				t.Fatalf("online document %d: WeighNew weighted %d items, reference %d", i, gn, rn)
			}
		}
	}
	for _, c := range []*txn.Corpus{refC, gotC} {
		c.Items.Intern(c.Items.Get(0).Path, "totally novel classify-time wording 2003")
	}
	if rn, gn := s.ref.WeighNew(), s.got.WeighNew(); rn != gn || gn == 0 {
		t.Fatalf("final WeighNew weighted %d items, reference %d", gn, rn)
	}
	sameCorpusBits(t, "online", refC, gotC)

	// A full re-Finalize over the grown corpus is the exact pass.
	s.finalize(t, "re-finalize")
}
