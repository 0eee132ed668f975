package experiments

import (
	"context"
	"fmt"
	"io"

	"xmlclust/internal/cluster"
	"xmlclust/internal/core"
	"xmlclust/internal/dataset"
	"xmlclust/internal/eval"
	"xmlclust/internal/semantics"
	"xmlclust/internal/sim"
)

// SemanticsPoint is one matcher's score on the heterogeneous corpus.
type SemanticsPoint struct {
	Matcher string
	F       float64
	Trash   float64
}

// SemanticsAblation evaluates the Sect. 6 extension: structure-driven
// clustering of a two-dialect DBLP corpus (half the documents use synonym
// tag names) under three Δ functions — the paper's exact equality, the
// lexical tag-name matcher, and a dictionary+lexical chain. Exact Δ cannot
// match across dialects, so the dialects split each structural class in
// two; the semantic matchers restore the cross-dialect matches.
func SemanticsAblation(scale Scale, seed int64) ([]SemanticsPoint, error) {
	col := dataset.DBLPHeterogeneous(dataset.Spec{Docs: scale.Docs["DBLP"], Seed: DataSeed})
	corpus := col.BuildCorpus(dataset.ByStructure, scale.MaxTuples, scale.Workers)
	labels := dataset.TransactionLabels(corpus)
	k := col.K(dataset.ByStructure)

	dict := semantics.NewDictionary()
	for _, class := range dataset.DBLPSynonymDictionary() {
		dict.AddSynonyms(class...)
	}
	matchers := []struct {
		name string
		m    semantics.TagSimilarity
	}{
		{"exact Δ (paper)", semantics.Exact{}},
		{"lexical tag matching", semantics.NewLexical()},
		{"dictionary + lexical chain", semantics.Chain{dict, semantics.NewLexical()}},
	}

	var out []SemanticsPoint
	for _, mt := range matchers {
		cx := sim.NewContext(corpus, sim.Params{F: 0.85, Gamma: 0.6})
		cx.TagSim = mt.m
		bestF, bestTrash := -1.0, 0.0
		for s := seed; s < seed+3; s++ {
			res, err := core.Run(context.Background(), cx, corpus, core.Options{
				K: k, Params: cx.Params, Peers: 1, Workers: scale.Workers,
				Partition: core.EqualPartition(len(corpus.Transactions), 1, s),
				Seed:      s, Rule: cluster.ReturnBestObjective,
				Fast: false, // the reference engine, as every paper experiment runs
			})
			if err != nil {
				return nil, fmt.Errorf("semantics ablation %s: %w", mt.name, err)
			}
			if f := eval.FMeasure(labels, res.Assign, k); f > bestF {
				bestF = f
				bestTrash = eval.TrashFraction(labels, res.Assign)
			}
		}
		out = append(out, SemanticsPoint{Matcher: mt.name, F: bestF, Trash: bestTrash})
	}
	return out, nil
}

// WriteSemanticsAblation renders the comparison.
func WriteSemanticsAblation(w io.Writer, pts []SemanticsPoint) {
	fmt.Fprintln(w, "Ablation — semantic tag similarity (Sect. 6 extension; two-dialect DBLP, structure-driven)")
	for _, p := range pts {
		fmt.Fprintf(w, "%-28s F=%.3f trash=%.2f\n", p.Matcher, p.F, p.Trash)
	}
}
