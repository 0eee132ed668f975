package corpus_test

import (
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// BenchmarkBuilderMerge times the index-ordered merge of a streaming build
// alone: Builder.AddExtracted with the ttf.itf fold observing it, over
// documents parsed and tuple-extracted before the timer starts. The mix is
// the reference benchmark's ingest load (DBLP, IEEE, Wikipedia, Shakespeare)
// at a tenth of its size, rendered and parsed the way the pipeline sees it;
// the span is the one the traced run reports as txn.build_ms.
func BenchmarkBuilderMerge(b *testing.B) {
	var trees []*xmltree.Tree
	var results []tuple.Result
	for _, part := range []struct {
		name string
		docs int
	}{{"DBLP", 600}, {"IEEE", 8}, {"Wikipedia", 60}, {"Shakespeare", 2}} {
		gen, _ := dataset.ByName(part.name)
		for _, t := range gen(dataset.Spec{Docs: part.docs, Seed: 1}).Trees {
			parsed, err := xmltree.ParseString(xmltree.RenderString(t), xmltree.DefaultParseOptions())
			if err != nil {
				b.Fatal(err)
			}
			trees = append(trees, parsed)
			results = append(results, tuple.Extract(parsed, tuple.Options{}))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := txn.NewBuilder(txn.BuildOptions{})
		bld.Observe(weighting.NewAccumulator(bld.Corpus()))
		for j, t := range trees {
			bld.AddExtracted(t, results[j], -1)
		}
		bld.Finish()
	}
	b.ReportMetric(float64(len(trees)*b.N)/b.Elapsed().Seconds(), "docs/s")
}
