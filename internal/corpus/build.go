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
)

// Options configures a streaming corpus build.
type Options struct {
	// Tuple bounds tree tuple extraction per document.
	Tuple tuple.Options
	// Labels optionally assigns ground-truth classes by document index
	// (source order). A label the source itself carries (Document.Label ≥ 0,
	// e.g. from a Trees source) takes precedence; −1 falls back to this
	// slice, then to −1.
	Labels []int
	// Workers is the number of workers that parse and extract, then weigh
	// the items in the weighting finish (0 or negative = one per CPU, 1 =
	// serial). The corpus is byte-identical for any value: interning and the
	// fold run in an index-ordered merge, and one worker weighs each item.
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
// next batch waiting. A tar archive's batches are read into batch buffers of
// batchBytes, no more buffers than batches in flight, which go back on a
// free list once their batch is extracted; an entry larger than a buffer is
// a batch of its own, in bytes of its own. Raw XML held, the idle buffers on
// the free list included, is therefore at most
// batchesPerWorker × workers × (batchBytes + the largest document), whatever
// the size of the corpus.
const batchesPerWorker = 2

// batch is a run of consecutive documents, and the buffer that holds the raw
// XML of those of them read from a tar archive (nil for other sources).
type batch struct {
	docs []*Document
	buf  []byte
}

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
	// PeakQueuedTrees is the high-water mark of extracted documents (tuples;
	// no tree is built) between the workers and the merge: those of the
	// batches complete while an earlier one was still being extracted or
	// merged. It is bounded by the batches in flight (two per worker of at
	// most 64 KiB of XML plus one document each), never by the corpus size.
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
	return fmt.Sprintf("%d documents → %d transactions, %d items, vocabulary %d (%.0f docs/s, %d workers, peak %d extracted documents queued, %d truncated)",
		s.Docs, s.Transactions, s.Items, s.Terms, s.DocsPerSec(), s.Workers, s.PeakQueuedTrees, s.TruncatedDocs)
}

// extracted is one document after the worker stage, ready for the merge.
type extracted struct {
	res   tuple.Result
	label int
}

// Build streams every document of src through the full preprocessing
// pipeline — tuple extraction in the pass that parses, interning,
// transaction construction, ttf.itf weighting — holding at most O(Workers)
// batches of documents at any instant; raw XML never becomes a tree.
// Extraction fans out over Options.Workers goroutines, a batch of
// consecutive documents at a time; an index-ordered
// merge serializes interning and the per-document weighting fold, so the
// resulting corpus is byte-identical to the batch txn.Build +
// weighting.Apply path (and to itself) for any worker count and wherever the
// batches happen to end. The source is drained and closed on return,
// success or not.
func Build(src Source, opts Options) (*txn.Corpus, Stats, error) {
	defer src.Close()
	b := txn.NewBuilder(txn.BuildOptions{Tuple: opts.Tuple})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)

	workers := parallel.Resolve(opts.Workers)
	window := batchesPerWorker * workers
	// free is the list of idle batch buffers. A buffer is made only when the
	// list is empty and put back only once its batch is extracted, so there
	// are never more buffers than batches in flight, and a put never blocks.
	free := make(chan []byte, window)
	var queued atomic.Int64 // extracted documents not yet merged
	peak := 0               // its maximum, which it reaches just before some merge
	start := time.Now()
	_, err := parallel.OrderedStream(workers, window,
		func() (batch, bool, error) { return nextBatch(src, free) },
		func(_ int, in batch) ([]extracted, error) {
			out, err := extractBatch(in, opts.Tuple, free)
			queued.Add(int64(len(out)))
			return out, err
		},
		func(_ int, batch []extracted) error {
			peak = max(peak, int(queued.Load()))
			queued.Add(-int64(len(batch)))
			for _, p := range batch {
				label := p.label
				if i := b.Docs(); label < 0 && i < len(opts.Labels) {
					label = opts.Labels[i]
				}
				b.AddTuples(p.res, label)
			}
			return nil
		},
	)
	if err != nil {
		return nil, Stats{}, err
	}
	c := b.Finish()
	wstats := acc.FinalizeWorkers(workers)
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
// known before a worker opens it. A tar archive's entries are read into a
// batch buffer from free, and the batch ends when the next does not fit.
func nextBatch(src Source, free chan []byte) (b batch, ok bool, err error) {
	ts, _ := src.(*tarSource)
	for size := 0; size < batchBytes; {
		var d *Document
		if ts != nil {
			d, b.buf, err = ts.next(b.buf, free)
		} else {
			d, err = src.Next()
		}
		if err == io.EOF || err == errBatchFull {
			break
		}
		if err != nil {
			return batch{}, false, err
		}
		if d == nil {
			return batch{}, false, fmt.Errorf("corpus: source yielded a nil document")
		}
		b.docs = append(b.docs, d)
		if d.Data == nil {
			break
		}
		size += len(d.Data)
	}
	return b, len(b.docs) > 0, nil
}

// extractBatch extracts the documents of a batch, then puts its buffer back
// on free: the tuples copied what they keep, so the source may fill it
// again. A batch that fails keeps its buffer.
func extractBatch(in batch, opts tuple.Options, free chan<- []byte) ([]extracted, error) {
	out := make([]extracted, len(in.docs))
	for i, d := range in.docs {
		res, err := d.extract(opts)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", d.Name, err)
		}
		out[i] = extracted{res: res, label: d.Label}
	}
	if in.buf != nil {
		free <- in.buf[:0]
	}
	return out, nil
}

// extract returns the tuples of the document: the source's tree walked, or
// the raw XML extracted in the pass that reads it.
func (d *Document) extract(opts tuple.Options) (tuple.Result, error) {
	if d.Tree != nil {
		return tuple.Extract(d.Tree, opts), nil
	}
	raw, err := d.Raw()
	if err != nil {
		return tuple.Result{}, err
	}
	return tuple.ExtractBytes(raw, opts)
}
