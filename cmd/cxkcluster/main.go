// Command cxkcluster clusters a collection of XML documents with CXK-means
// and prints the per-document cluster assignment.
//
// Usage:
//
//	cxkcluster -k 8 [-f 0.5] [-gamma 0.7] [-peers 4] [-seed 1] sources...
//
// Each argument is an XML file, a directory (walked recursively for *.xml)
// or a tar/tar.gz archive of XML documents. Ingestion is streaming: the
// pipeline holds O(-ingest-workers) parsed trees at any instant, so corpus
// size is bounded by the transactional model, not by the XML.
//
// The run is cancellable: SIGINT/SIGTERM (Ctrl-C) aborts the job at the
// next clean round boundary. -progress streams round-by-round events to
// stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"xmlclust"
)

func main() {
	var (
		k        = flag.Int("k", 4, "number of clusters")
		f        = flag.Float64("f", 0.5, "structure/content balance f ∈ [0,1]")
		gamma    = flag.Float64("gamma", 0.7, "γ-matching threshold ∈ [0,1]")
		peers    = flag.Int("peers", 1, "number of P2P nodes (1 = centralized)")
		workers  = flag.Int("workers", 0, "worker goroutines per peer (0 = one per CPU, 1 = serial); output is identical for any value")
		ingestW  = flag.Int("ingest-workers", 0, "parse/extract workers for ingestion (0 = one per CPU, 1 = serial); the corpus is identical for any value")
		seed     = flag.Int64("seed", 1, "random seed")
		unequal  = flag.Bool("unequal", false, "skewed data distribution (half the peers hold twice the data)")
		maxTup   = flag.Int("maxtuples", 0, "cap on tree tuples per document (0 = default)")
		verbose  = flag.Bool("v", false, "print per-transaction assignments")
		progress = flag.Bool("progress", false, "stream per-round progress events to stderr")
		saveTo   = flag.String("save", "", "write the preprocessed corpus to this file after building")
		loadFm   = flag.String("load", "", "load a preprocessed corpus instead of parsing XML")
	)
	flag.Parse()
	if flag.NArg() == 0 && *loadFm == "" {
		fmt.Fprintln(os.Stderr, "usage: cxkcluster [flags] dir-or-file-or-archive...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *loadFm != "" {
		// A loaded corpus is already preprocessed: silently dropping the
		// preprocessing knobs (or extra XML sources) would run with settings
		// other than the ones the user asked for.
		switch {
		case flag.NArg() > 0:
			fatal(fmt.Errorf("-load is exclusive with XML sources (got %v); preprocess them into the corpus first", flag.Args()))
		case *ingestW != 0:
			fatal(errors.New("-ingest-workers applies to XML ingestion and has no effect with -load"))
		case *maxTup != 0:
			fatal(errors.New("-maxtuples applies to XML ingestion and has no effect with -load; rebuild the corpus to change it"))
		}
	}

	var corpus *xmlclust.Corpus
	var docNames []string
	if *loadFm != "" {
		f, err := os.Open(*loadFm)
		if err != nil {
			fatal(err)
		}
		corpus, err = xmlclust.LoadCorpus(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded corpus: %d transactions, %d items, vocabulary %d\n",
			len(corpus.Transactions), corpus.Items.Len(), corpus.Terms.Len())
	} else {
		srcs := make([]xmlclust.Source, 0, flag.NArg())
		for _, a := range flag.Args() {
			src, err := xmlclust.OpenSource(a)
			if err != nil {
				fatal(err)
			}
			srcs = append(srcs, namedSource{src, &docNames})
		}
		var stats xmlclust.IngestStats
		var err error
		corpus, stats, err = xmlclust.BuildCorpusFromSource(
			xmlclust.MultiSource(srcs...),
			xmlclust.CorpusOptions{MaxTuplesPerTree: *maxTup, IngestWorkers: *ingestW},
		)
		if err != nil {
			fatal(err)
		}
		if stats.Docs == 0 {
			fatal(fmt.Errorf("no XML documents found in %v", flag.Args()))
		}
		fmt.Println(stats.String())
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			fatal(err)
		}
		if err := xmlclust.SaveCorpus(f, corpus); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved corpus to %s\n", *saveTo)
	}

	// Ctrl-C / SIGTERM cancels the clustering job at a clean round
	// boundary. Installed only now: the ingestion above does not watch a
	// context, so hooking signals earlier would swallow Ctrl-C for the
	// whole ingest instead of keeping the default kill behavior there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng, err := xmlclust.NewEngine(corpus, xmlclust.EngineOptions{})
	if err != nil {
		fatal(err)
	}
	var events func(xmlclust.Event)
	if *progress {
		events = progressPrinter()
	}
	res, err := eng.Cluster(ctx, xmlclust.ClusterOptions{
		K: *k, F: *f, Gamma: *gamma, Peers: *peers, Workers: *workers,
		Seed: *seed, UnequalSplit: *unequal,
		Events: events,
	})
	if errors.Is(err, xmlclust.ErrCanceled) {
		fmt.Fprintln(os.Stderr, "cxkcluster: interrupted, run aborted at a round boundary")
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("clustered in %d rounds, wall %v", res.Rounds, res.WallTime.Round(1e6))
	if *peers > 1 {
		fmt.Printf(", traffic %d msgs / %d bytes", res.TrafficMsgs, res.TrafficBytes)
	}
	fmt.Println()

	docCluster := xmlclust.DocumentClusters(corpus, res.Assign)
	byCluster := map[int][]string{}
	for doc, cl := range docCluster {
		name := fmt.Sprintf("document %d", doc)
		if doc < len(docNames) {
			name = docNames[doc]
		}
		byCluster[cl] = append(byCluster[cl], name)
	}
	ids := make([]int, 0, len(byCluster))
	for cl := range byCluster {
		ids = append(ids, cl)
	}
	sort.Ints(ids)
	for _, cl := range ids {
		name := fmt.Sprintf("cluster %d", cl)
		if cl == xmlclust.TrashCluster {
			name = "trash"
		}
		files := byCluster[cl]
		sort.Strings(files)
		fmt.Printf("%s (%d documents):\n", name, len(files))
		for _, p := range files {
			fmt.Printf("  %s\n", p)
		}
	}
	if *verbose {
		fmt.Println("per-transaction assignments:")
		for i, tr := range corpus.Transactions {
			fmt.Printf("  doc %d tuple %d → %d\n", tr.Doc, tr.TupleIndex, res.Assign[i])
		}
	}
}

// progressPrinter renders the engine's event stream as one stderr line per
// completed peer round plus start/termination markers. Events arrive on
// one goroutine, so no locking is needed. The index and memo counters on
// events are run-wide running totals; the printer differences consecutive
// events to report the work done (and saved) since the last line.
func progressPrinter() func(xmlclust.Event) {
	var lastCand, lastSkip, lastReused int64
	return func(ev xmlclust.Event) {
		switch ev.Kind {
		case xmlclust.EventRoundStart:
			if ev.Peer == 0 { // one marker per round, not one per peer
				fmt.Fprintf(os.Stderr, "round %d …\n", ev.Round+1)
			}
		case xmlclust.EventRoundEnd:
			line := fmt.Sprintf("  peer %d round %d: objective %.4f, sent %d msgs / %d B",
				ev.Peer, ev.Round+1, ev.Objective, ev.SentMsgs, ev.SentBytes)
			if dc, ds := ev.IndexCandidates-lastCand, ev.IndexSkipped-lastSkip; dc+ds > 0 {
				line += fmt.Sprintf(", reps scored non-zero %d / untouched %d", dc, ds)
				lastCand, lastSkip = ev.IndexCandidates, ev.IndexSkipped
			}
			if dr := ev.RepsReused - lastReused; dr > 0 {
				line += fmt.Sprintf(", %d reps reused", dr)
				lastReused = ev.RepsReused
			}
			fmt.Fprintf(os.Stderr, "%s, %v elapsed\n", line, ev.Elapsed.Round(time.Millisecond))
		case xmlclust.EventDone:
			if ev.Peer == -1 {
				fmt.Fprintf(os.Stderr, "done: %d rounds in %v (index: %d reps scored non-zero, %d untouched; %d reps reused)\n",
					ev.Round, ev.Elapsed.Round(time.Millisecond),
					ev.IndexCandidates, ev.IndexSkipped, ev.RepsReused)
			}
		}
	}
}

// namedSource records document names as they stream through, so the final
// report can print file names instead of document ids. Names are recorded
// in source order, which is the document-id order of the merge.
type namedSource struct {
	xmlclust.Source
	names *[]string
}

func (s namedSource) Next() (*xmlclust.Document, error) {
	d, err := s.Source.Next()
	if err == nil {
		*s.names = append(*s.names, d.Name)
	}
	return d, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxkcluster:", err)
	os.Exit(1)
}
