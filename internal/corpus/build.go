package corpus

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"xmlclust/internal/parallel"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// Options configures a streaming corpus build.
type Options struct {
	// Tuple bounds tree tuple extraction per document.
	Tuple tuple.Options
	// Parse maps raw XML onto the tree model; nil selects
	// xmltree.DefaultParseOptions(). Ignored for pre-parsed Tree documents.
	Parse *xmltree.ParseOptions
	// Labels optionally assigns ground-truth classes by document index
	// (source order). A label the source itself carries (Document.Label ≥ 0,
	// e.g. from a Trees source) takes precedence; −1 falls back to this
	// slice, then to −1.
	Labels []int
	// Workers is the number of parse/extract workers (0 or negative = one
	// per CPU, 1 = serial). The corpus is byte-identical for any value —
	// workers only parse and extract; interning and weighting are
	// serialized through an index-ordered merge.
	Workers int
}

// batchBytes is the raw XML that closes a batch: workers are handed runs of
// consecutive documents, not single ones, because a small document parses
// in less time than its trip through the pipeline's channels takes. The
// size hardly matters — a build of 6 700 mixed documents takes a tenth
// longer at 4 KiB and at 1 MiB — so it is a constant, not an option.
const batchBytes = 64 << 10

// batchesPerWorker is how many batches per worker may be in flight between
// the source and the merge: two, so that a worker finishing early finds the
// next batch waiting. Raw XML in flight is therefore at most
// batchesPerWorker × workers × (batchBytes + the largest document), whatever
// the size of the corpus.
const batchesPerWorker = 2

// Stats describes one streaming ingestion run.
type Stats struct {
	// Docs is the number of documents ingested.
	Docs int
	// Transactions, Items and Terms are the sizes of the resulting corpus.
	Transactions int
	Items        int
	Terms        int
	// TruncatedDocs counts documents whose tuple enumeration hit the cap.
	TruncatedDocs int
	// PeakQueuedTrees is the high-water mark of parsed documents held
	// between the workers and the merge: those of the batches that were
	// complete while an earlier one was still being parsed or merged. It is
	// bounded by the batches in flight (two per worker of at most 64 KiB of
	// XML plus one document each), never by the corpus size.
	PeakQueuedTrees int
	// Workers echoes the resolved worker count.
	Workers int
	// Duration is the wall time of the ingest.
	Duration time.Duration
}

// DocsPerSec returns the ingestion throughput.
func (s Stats) DocsPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Docs) / s.Duration.Seconds()
}

// String renders a one-line summary for CLI output.
func (s Stats) String() string {
	return fmt.Sprintf("%d documents → %d transactions, %d items, vocabulary %d (%.0f docs/s, %d workers, peak %d parsed documents queued, %d truncated)",
		s.Docs, s.Transactions, s.Items, s.Terms, s.DocsPerSec(), s.Workers, s.PeakQueuedTrees, s.TruncatedDocs)
}

// parsed is one document after the worker stage: the tree plus its
// extracted tuples, ready for the order-sensitive merge.
type parsed struct {
	tree  *xmltree.Tree
	res   tuple.Result
	label int
}

// Build streams every document of src through the full preprocessing
// pipeline — parse, tuple extraction, interning, transaction construction,
// ttf.itf weighting — holding at most O(Workers) batches of documents at
// any instant. Parsing and extraction fan out over Options.Workers
// goroutines, a batch of consecutive documents at a time; an index-ordered
// merge serializes interning and the per-document weighting fold, so the
// resulting corpus is byte-identical to the batch txn.Build +
// weighting.Apply path (and to itself) for any worker count and wherever the
// batches happen to end. The source is drained and closed on return,
// success or not.
func Build(src Source, opts Options) (*txn.Corpus, Stats, error) {
	defer src.Close()
	parseOpts := xmltree.DefaultParseOptions()
	if opts.Parse != nil {
		parseOpts = *opts.Parse
	}
	b := txn.NewBuilder(txn.BuildOptions{Tuple: opts.Tuple})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)

	workers := parallel.Resolve(opts.Workers)
	var queued atomic.Int64 // parsed documents not yet merged
	peak := 0               // its maximum, which it reaches just before some merge
	start := time.Now()
	_, err := parallel.OrderedStream(workers, batchesPerWorker*workers,
		func() ([]*Document, bool, error) { return nextBatch(src) },
		func(_ int, batch []*Document) ([]parsed, error) {
			out := make([]parsed, len(batch))
			for i, d := range batch {
				t, err := d.parse(parseOpts)
				if err != nil {
					return nil, fmt.Errorf("corpus: %s: %w", d.Name, err)
				}
				out[i] = parsed{tree: t, res: tuple.Extract(t, opts.Tuple), label: d.Label}
			}
			queued.Add(int64(len(out)))
			return out, nil
		},
		func(_ int, batch []parsed) error {
			peak = max(peak, int(queued.Load()))
			queued.Add(-int64(len(batch)))
			for _, p := range batch {
				label := p.label
				if i := b.Docs(); label < 0 && i < len(opts.Labels) {
					label = opts.Labels[i]
				}
				b.AddExtracted(p.tree, p.res, label)
			}
			return nil
		},
	)
	if err != nil {
		return nil, Stats{}, err
	}
	c := b.Finish()
	wstats := acc.Finalize()
	stats := Stats{
		Docs:            b.Docs(),
		Transactions:    len(c.Transactions),
		Items:           c.Items.Len(),
		Terms:           wstats.Vocabulary,
		TruncatedDocs:   c.TruncatedDocs,
		PeakQueuedTrees: peak,
		Workers:         workers,
		Duration:        time.Since(start),
	}
	return c, stats, nil
}

// nextBatch pulls the next run of consecutive documents off src: it ends
// once it holds batchBytes of raw XML, or with a document whose size is not
// known before a worker opens it.
func nextBatch(src Source) (batch []*Document, ok bool, err error) {
	for size := 0; size < batchBytes; {
		d, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, err
		}
		if d == nil {
			return nil, false, fmt.Errorf("corpus: source yielded a nil document")
		}
		batch = append(batch, d)
		if d.Data == nil {
			break
		}
		size += len(d.Data)
	}
	return batch, len(batch) > 0, nil
}

// parse returns the document's tree.
func (d *Document) parse(opts xmltree.ParseOptions) (*xmltree.Tree, error) {
	if d.Tree != nil {
		return d.Tree, nil
	}
	raw, err := d.Raw()
	if err != nil {
		return nil, err
	}
	t, err := xmltree.ParseBytes(raw, opts)
	if err != nil {
		return nil, err
	}
	t.Name = d.Name
	return t, nil
}
