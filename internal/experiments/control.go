package experiments

import (
	"math"
	"math/rand"
	"slices"

	"xmlclust/internal/eval"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
)

// controlMaxIter caps the iterations of the content control's k-means; a
// run that is still moving documents when it reaches the cap is capped.
const controlMaxIter = 100

// contentControl runs control (a) of the fidelity ledger, content only, on
// spec's corpus with spec.Seed: each document's leaf text, as the TCU
// vectors of its items (textproc terms weighted by ttf.itf, Sect. 4.1.2)
// summed into one vector, is clustered by spherical k-means into the
// reference class count. No structure, no tree tuple in the similarity and
// no peer: it is the text-only baseline — collect each document's leaf
// text, vectorize, k-means — on cosine similarity, with no pairwise matrix.
// Every transaction takes its document's cluster, so the scores are the
// ledger's, on the same transactions and labels; a document without text is
// trash. f is 0, the paper's content-only weighting, and Rounds counts the
// k-means iterations.
func contentControl(spec RunSpec) (LedgerRun, error) {
	pc, err := prepare(spec)
	if err != nil {
		return LedgerRun{}, err
	}
	docs, index := docVectors(pc.corpus)
	docAssign, iters, capped := sphericalKMeans(docs, pc.k, pc.corpus.Terms.Len(), spec.Seed)
	assign := make([]int, len(pc.corpus.Transactions))
	for i, tr := range pc.corpus.Transactions {
		assign[i] = docAssign[index[tr.Doc]]
	}
	cont := eval.NewContingency(pc.labels, assign, pc.k)
	fRandom, fSingle := floors(pc.labels, pc.k, spec.Seed)
	return LedgerRun{
		Seed: spec.Seed, F: cont.FMeasure(), Purity: cont.Purity(), NMI: cont.NMI(),
		Trash: eval.TrashFraction(pc.labels, assign), Rounds: iters, Capped: capped,
		FRandom: fRandom, FSingle: fSingle,
	}, nil
}

// docVectors returns one unit vector per document of c, in the order of its
// first transaction — the sum of the TCU vectors of the distinct items of
// its transactions, or the zero vector when none has text — and the
// position of each document id.
func docVectors(c *txn.Corpus) (vecs []vector.Sparse, index map[int]int) {
	index = map[int]int{}
	var items [][]txn.ItemID
	for _, tr := range c.Transactions {
		i, ok := index[tr.Doc]
		if !ok {
			i = len(items)
			index[tr.Doc] = i
			items = append(items, nil)
		}
		items[i] = append(items[i], tr.Items...)
	}
	vecs = make([]vector.Sparse, len(items))
	for i, ids := range items {
		slices.Sort(ids)
		var parts []vector.Entry
		for _, id := range slices.Compact(ids) {
			parts = append(parts, c.Items.Get(id).Vector.Entries()...)
		}
		v := vector.Collect(parts)
		if n := v.Norm(); n > 0 {
			v = vector.Scale(v, 1/n)
		}
		vecs[i] = v
	}
	return vecs, index
}

// sphericalKMeans clusters unit vectors over dims terms into k clusters by
// cosine similarity. The centroids start at k distinct documents with text,
// drawn with seed; each iteration assigns every such document to its most
// similar centroid (the lowest on a tie), then moves each centroid that has
// members to their mean direction, until an iteration assigns as the one
// before or controlMaxIter is reached, which caps the run. A document
// without text is assigned −1.
func sphericalKMeans(docs []vector.Sparse, k, dims int, seed int64) (assign []int, iters int, capped bool) {
	var withText []int
	assign = make([]int, len(docs))
	for i, v := range docs {
		assign[i] = -1
		if !v.IsZero() {
			withText = append(withText, i)
		}
	}
	cent := make([][]float64, min(k, len(withText)))
	for c, p := range rand.New(rand.NewSource(seed)).Perm(len(withText))[:len(cent)] {
		cent[c] = make([]float64, dims)
		for _, e := range docs[withText[p]].Entries() {
			cent[c][e.Term] = e.Weight
		}
	}
	for moved := len(withText) > 0; moved; {
		if iters == controlMaxIter {
			return assign, iters, true
		}
		iters++
		moved = false
		for _, i := range withText {
			best, bestSim := 0, math.Inf(-1)
			for c := range cent {
				s := 0.0
				for _, e := range docs[i].Entries() {
					s += e.Weight * cent[c][e.Term]
				}
				if s > bestSim {
					best, bestSim = c, s
				}
			}
			if assign[i] != best {
				assign[i], moved = best, true
			}
		}
		for c, sum := range cent {
			members := false
			for _, i := range withText {
				if assign[i] != c {
					continue
				}
				if !members {
					clear(sum)
					members = true
				}
				for _, e := range docs[i].Entries() {
					sum[e.Term] += e.Weight
				}
			}
			norm := 0.0
			for _, w := range sum {
				norm += w * w
			}
			if norm = math.Sqrt(norm); members && norm > 0 {
				for t := range sum {
					sum[t] /= norm
				}
			}
		}
	}
	return assign, iters, false
}
