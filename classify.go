package xmlclust

import (
	"context"
	"fmt"

	"xmlclust/internal/cluster"
	"xmlclust/internal/sim"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
)

// ClassifyOptions configures a read-only classification job: assigning
// transactions to a fixed representative set without running a clustering
// round. The similarity knobs mirror ClusterOptions.
type ClassifyOptions struct {
	// F ∈ [0,1] balances structural vs content similarity (Eq. 1).
	F float64
	// Gamma ∈ [0,1] is the γ-matching threshold (Eq. 2).
	Gamma float64
	// Workers bounds the goroutines scanning the transactions (0 = one per
	// CPU, 1 = serial; negative values are rejected with an *OptionsError).
	// The assignment is byte-identical for every legal value.
	Workers int
	// MaxTuplesPerTree caps tuple extraction in Engine.Classify
	// (0 = tuple package default). It should match the cap the corpus was
	// built with so documents decompose the same way on both paths.
	MaxTuplesPerTree int
	// IndexReps selects how the scan scores: through the inverted
	// representative index (default RepIndexAuto) or, with RepIndexOff, with
	// the dense reference kernel; the assignment is byte-identical. Without a
	// prebuilt Index the index is built per call, at the cost of one pass
	// over the representatives' vectors.
	IndexReps RepIndexMode
	// Index, when non-nil, is a prebuilt representative index from
	// Engine.BuildRepIndex. It is used only when it matches this call — same
	// engine, same (F, Gamma) and the identical representative slice
	// contents — otherwise the call behaves as if Index were nil. A serving
	// layer that classifies many documents against a frozen representative
	// set should build once and reuse.
	Index *RepIndex
}

// RepIndex is a prebuilt inverted representative index bound to one
// (engine, F, Gamma, representative-set) combination — the amortized form
// of ClassifyOptions.IndexReps for serving layers that classify a stream of
// documents against frozen representatives. Build it with
// Engine.BuildRepIndex and pass it via ClassifyOptions.Index. A RepIndex is
// immutable after construction and safe for concurrent use; items, terms and
// tag paths interned after it was built (online document adds) are handled
// soundly by construction, so it never needs eager rebuilding — rebuild when
// the representative set changes. It holds the representatives' term
// weights: should a weighting pass rewrite the vector of an item a
// representative carries, the index notices, reports itself disabled and
// scans fall back to the flat path until it is rebuilt.
type RepIndex struct {
	ix   *sim.RepIndex
	cx   *sim.Context
	reps []*Transaction
}

// Enabled reports whether the index is active — false for the (F, Gamma) it
// cannot answer (γ = 0 or a semantic tag matcher) and after a rewrite of a
// representative item's vector, in which cases scans fall back to the flat
// path.
func (ri *RepIndex) Enabled() bool { return ri != nil && ri.ix.Enabled() }

// Entries reports the number of inverted-index keys (distinct terms +
// distinct tag paths) the index holds.
func (ri *RepIndex) Entries() int {
	if ri == nil {
		return 0
	}
	return ri.ix.Entries()
}

// Reps reports how many non-empty representatives the index covers.
func (ri *RepIndex) Reps() int {
	if ri == nil {
		return 0
	}
	return ri.ix.Active()
}

// BuildRepIndex builds an inverted representative index over reps for the
// given similarity knobs, sharing the engine's warm caches. The returned
// index matches ClassifyTransactions calls with the same (F, Gamma) and the
// identical representative slice contents.
func (e *Engine) BuildRepIndex(reps []*Transaction, f, gamma float64) (*RepIndex, error) {
	if err := validateKFGamma(1, f, gamma); err != nil {
		return nil, err
	}
	cx := e.simContext(sim.Params{F: f, Gamma: gamma})
	ix := sim.NewRepIndex()
	ix.Build(cx, reps)
	return &RepIndex{ix: ix, cx: cx, reps: reps}, nil
}

// matches reports whether the prebuilt index covers exactly this scan:
// the same similarity context and the same representative pointers in the
// same order.
func (ri *RepIndex) matches(cx *sim.Context, reps []*Transaction) bool {
	if ri == nil || ri.cx != cx || len(ri.reps) != len(reps) {
		return false
	}
	for i := range reps {
		if ri.reps[i] != reps[i] {
			return false
		}
	}
	return true
}

// Classification is the outcome of classifying one document (or an explicit
// transaction set) against a fixed representative set.
type Classification struct {
	// Cluster is the document-level majority vote over Assign (ties to the
	// lower cluster id; TrashCluster when every transaction landed in the
	// trash).
	Cluster int
	// Assign maps input transaction index → cluster in [0,len(reps)) or
	// TrashCluster.
	Assign []int
	// Sims holds the winning similarity per transaction (0 for trash).
	Sims []float64
	// IndexCandidates and IndexSkipped are the representative-index deltas
	// of this call (see Result for their meaning and the concurrency
	// attribution caveat; zero when the scan ran the dense kernel).
	IndexCandidates int64
	IndexSkipped    int64
}

// ClassifyTransactions assigns each transaction to its most similar
// representative — the relocation step of CXK-means under a frozen
// representative set, sharing the engine's warm similarity caches. It is read-only with respect to clustering
// state: no assignment, representative or corpus transaction is touched,
// so it is safe to call concurrently with Cluster jobs on the same engine
// (the serving layer does exactly that). ctx cancels the scan with an
// error wrapping ErrCanceled; a nil ctx never cancels.
func (e *Engine) ClassifyTransactions(ctx context.Context, trs []*Transaction, reps []*Transaction, opts ClassifyOptions) (*Classification, error) {
	if err := validateKFGamma(1, opts.F, opts.Gamma); err != nil {
		return nil, err
	}
	if err := validateRunOptions(0, opts.Workers, 0); err != nil {
		return nil, err
	}
	cx := e.simContext(sim.Params{F: opts.F, Gamma: opts.Gamma})
	before := cx.Counters.Snapshot()

	// A matching prebuilt index wins; otherwise build one for this call
	// unless the mode asks for the reference kernel.
	var ix *sim.RepIndex
	if opts.IndexReps != RepIndexOff {
		if opts.Index.matches(cx, reps) {
			ix = opts.Index.ix
		} else {
			ix = sim.NewRepIndex()
			ix.Build(cx, reps)
		}
	}

	assign := make([]int, len(trs))
	sims := make([]float64, len(trs))
	if err := cluster.RelocateScores(ctx, cx, trs, reps, opts.Workers, ix, assign, sims); err != nil {
		return nil, fmt.Errorf("xmlclust: classify: %w: %w", ErrCanceled, err)
	}
	d := cx.Counters.Snapshot().Sub(before)
	return &Classification{
		Cluster:         MajorityCluster(assign),
		Assign:          assign,
		Sims:            sims,
		IndexCandidates: d.IndexCandidates,
		IndexSkipped:    d.IndexSkipped,
	}, nil
}

// ExtractTransactions decomposes a parsed tree into transactions over the
// engine's item domain WITHOUT adding the document to the corpus: unseen
// paths and items are interned into the shared tables (append-only and
// concurrency-safe — existing ids and similarities are unaffected), but
// nothing is appended to the corpus's transaction set. The returned
// transactions carry document id −1 to mark them transient.
//
// Items first seen here have zero content vectors until a weighting pass
// assigns them, so their content similarity is 0 (structural similarity is
// unaffected); the serving layer weights them with the accumulator's
// frozen-itf online pass before classifying.
func (e *Engine) ExtractTransactions(t *Tree, maxTuples int) []*Transaction {
	res := tuple.Extract(t, tuple.Options{MaxTuplesPerTree: maxTuples})
	var intern txn.LeafInterner // per call: classifies run concurrently
	return intern.Transactions(e.corpus, t, res, -1, -1)
}

// Classify extracts a document's transactions against the engine's item
// domain and classifies them against reps, returning the per-transaction
// assignment and the document-level majority cluster. The document is NOT
// added to the corpus and no clustering state changes (see
// ExtractTransactions for the interning and weighting caveats).
func (e *Engine) Classify(ctx context.Context, t *Tree, reps []*Transaction, opts ClassifyOptions) (*Classification, error) {
	return e.ClassifyTransactions(ctx, e.ExtractTransactions(t, opts.MaxTuplesPerTree), reps, opts)
}
