// Command cxkgen emits one of the synthetic evaluation corpora as XML files
// plus a labels.tsv with the three reference classifications, so the
// datasets can be inspected or fed to cxkcluster — and/or streams the
// generated collection through the ingestion pipeline to a preprocessed
// corpus file ready for cxkcluster/cxkpeer, with no XML round-trip.
//
// Usage:
//
//	cxkgen -dataset dblp [-docs 240] [-seed 424242] -out ./corpus
//	cxkgen -dataset ieee -corpus ieee.cxk -kind hybrid -out ""
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"xmlclust/internal/corpus"
	"xmlclust/internal/dataset"
	"xmlclust/internal/tuple"
	"xmlclust/internal/xmltree"
)

func main() {
	var (
		name    = flag.String("dataset", "dblp", "corpus: dblp | ieee | shakespeare | wikipedia")
		docs    = flag.Int("docs", 0, "number of documents (0 = corpus default)")
		seed    = flag.Int64("seed", 424242, "generation seed")
		out     = flag.String("out", "corpus", "output directory for XML + labels.tsv (\"\" = skip XML emission)")
		cxkOut  = flag.String("corpus", "", "also stream the collection through the ingestion pipeline and save the preprocessed corpus file here")
		kind    = flag.String("kind", "hybrid", "reference classification for -corpus labels: structure | content | hybrid")
		maxTup  = flag.Int("maxtuples", 0, "cap on tree tuples per document for -corpus (0 = default)")
		ingestW = flag.Int("ingest-workers", 0, "parse/extract workers for -corpus (0 = one per CPU); the corpus is identical for any value")
	)
	flag.Parse()

	gen, ok := dataset.ByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown dataset %q (have: %v)", *name, dataset.Names()))
	}
	if *out == "" && *cxkOut == "" {
		fatal(fmt.Errorf("nothing to do: pass -out for XML files and/or -corpus for a preprocessed corpus file"))
	}
	col := gen(dataset.Spec{Docs: *docs, Seed: *seed})

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		labels, err := os.Create(filepath.Join(*out, "labels.tsv"))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(labels, "file\tstructure\tcontent\thybrid")
		for i, tree := range col.Trees {
			fn := fmt.Sprintf("%s-%04d.xml", col.Name, i)
			f, err := os.Create(filepath.Join(*out, fn))
			if err != nil {
				fatal(err)
			}
			if err := xmltree.Render(f, tree); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(labels, "%s\t%d\t%d\t%d\n",
				fn, col.StructLabels[i], col.ContentLabels[i], col.HybridLabels[i])
		}
		if err := labels.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d documents (%s: %d structural × %d content → %d hybrid classes) to %s\n",
			len(col.Trees), col.Name, col.NumStruct, col.NumContent, col.NumHybrid, *out)
	}

	if *cxkOut != "" {
		ck, err := classKind(*kind)
		if err != nil {
			fatal(err)
		}
		c, stats, err := corpus.Build(col.Source(ck), corpus.Options{
			Tuple:   tuple.Options{MaxTuplesPerTree: *maxTup},
			Workers: *ingestW,
		})
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*cxkOut)
		if err != nil {
			fatal(err)
		}
		if err := c.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("ingested %s; saved %s-labeled corpus to %s\n", stats.String(), ck, *cxkOut)
	}
}

func classKind(s string) (dataset.ClassKind, error) {
	switch s {
	case "structure":
		return dataset.ByStructure, nil
	case "content":
		return dataset.ByContent, nil
	case "hybrid":
		return dataset.ByHybrid, nil
	}
	return 0, fmt.Errorf("unknown -kind %q (structure | content | hybrid)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxkgen:", err)
	os.Exit(1)
}
