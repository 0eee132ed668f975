// Package xmlclust is a Go implementation of collaborative distributed
// clustering of XML documents, reproducing S. Greco, F. Gullo, G. Ponti and
// A. Tagarelli, "Collaborative clustering of XML documents" (JCSS 77, 2011;
// abridged version at the ICPP 2009 Distributed XML Processing workshop).
//
// The pipeline turns XML documents into labeled rooted trees, decomposes
// them into tree tuples (maximal subtrees with unambiguous path answers),
// models the tuples as transactions over ⟨path, answer⟩ items, weights
// textual content with the ttf.itf scheme, and clusters the transactions
// with CXK-means: a centroid-based partitional algorithm in which every
// peer of a P2P network clusters its local data and exchanges cluster
// representatives to converge on a global solution collaboratively.
//
// # Engine and jobs
//
// The clustering surface is the Engine: a reusable handle bound to one
// corpus that owns the interning tables and a params-keyed similarity
// cache. Jobs run on it with a context (cancellation aborts at clean round
// boundaries with ErrCanceled) and can stream progress events:
//
//	src, err := xmlclust.OpenSource("corpus/")       // dir, tar[.gz] or file
//	corpus, stats, err := xmlclust.BuildCorpusFromSource(src, xmlclust.CorpusOptions{})
//	eng, err := xmlclust.NewEngine(corpus, xmlclust.EngineOptions{})
//	res, err := eng.Cluster(ctx, xmlclust.ClusterOptions{
//		K: 8, F: 0.5, Gamma: 0.7, Peers: 4,
//		Events: func(ev xmlclust.Event) { ... }, // rounds, objective, traffic
//	})
//	for i, cl := range res.Assign { ... }
//
// Because the structural tag-path similarities of Eq. 3 are independent of
// (f, γ), every job on one Engine shares a single warm structural cache;
// parameter sweeps — the paper's evaluation protocol — fan a whole grid
// over it with Engine.Sweep:
//
//	cells, err := eng.Sweep(ctx, xmlclust.SweepSpec{
//		Base:   xmlclust.ClusterOptions{K: 8, Seed: 1},
//		Fs:     []float64{0.1, 0.3, 0.5, 0.7, 0.9},
//		Gammas: []float64{0.6, 0.7, 0.8},
//	})
//
// # Ingestion
//
// Ingestion is a bounded-memory pipeline: documents stream out of the
// Source through parallel workers, which extract tree tuples as they parse,
// into an index-ordered merge, so only O(IngestWorkers) documents exist at
// any instant, and no tree, and the corpus is byte-identical for any worker
// count. Trees already in memory go through the batch form (ParseFiles +
// BuildCorpus), which yields the identical corpus for the same documents in
// the same order.
//
// The internal packages implement the substrates (tree model, tuple
// extraction, transactional model, similarity, representatives, the P2P
// transports and the PK-means baseline); this package is the stable
// surface.
package xmlclust

import (
	"fmt"
	"io"
	"os"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/corpus"
	"xmlclust/internal/eval"
	"xmlclust/internal/sim"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// Tree is a parsed XML document in the paper's labeled-rooted-tree model.
type Tree = xmltree.Tree

// Corpus is a preprocessed collection: tree tuples modeled as transactions
// with ttf.itf-weighted content vectors.
type Corpus = txn.Corpus

// Transaction is the item set of one tree tuple.
type Transaction = txn.Transaction

// TrashCluster is the assignment value of the (k+1)-th cluster that
// collects transactions with zero similarity to every representative.
const TrashCluster = cluster.TrashCluster

// Parse reads one XML document: elements become nodes, attributes "@name"
// leaves, and the character data under an element its one S leaf.
func Parse(r io.Reader) (*Tree, error) {
	return xmltree.Parse(r)
}

// ParseFile parses one XML file.
func ParseFile(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := xmltree.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("xmlclust: %s: %w", path, err)
	}
	t.Name = path
	return t, nil
}

// ParseFiles parses a list of XML files.
func ParseFiles(paths []string) ([]*Tree, error) {
	trees := make([]*Tree, 0, len(paths))
	for _, p := range paths {
		t, err := ParseFile(p)
		if err != nil {
			return nil, err
		}
		trees = append(trees, t)
	}
	return trees, nil
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Tree, error) {
	return xmltree.ParseString(s)
}

// ParseBytes parses an XML document held in memory. data is only read, and
// the tree keeps no reference to it.
func ParseBytes(data []byte) (*Tree, error) {
	return xmltree.ParseBytes(data)
}

// CorpusOptions controls preprocessing.
type CorpusOptions struct {
	// MaxTuplesPerTree caps tree tuple extraction per document
	// (0 = tuple.DefaultMaxTuplesPerTree). Text-centric documents can have
	// combinatorially many tuples.
	MaxTuplesPerTree int
	// Labels optionally provides per-document ground-truth classes for
	// evaluation; transactions inherit their document's label. Sources that
	// carry their own labels (TreeSource) take precedence on the streaming
	// path.
	Labels []int
	// IngestWorkers is the number of workers the streaming path fans out
	// over (0 or negative = one per CPU, 1 = serial): they parse and
	// extract, and then weigh the items in the weighting finish. The corpus
	// is byte-identical for any value.
	IngestWorkers int
}

// BuildCorpus extracts tree tuples, builds the transactional model and
// computes ttf.itf content vectors — the batch entry point for trees
// already in memory. For collections too large to hold as parsed trees,
// use BuildCorpusFromSource.
func BuildCorpus(trees []*Tree, opts CorpusOptions) *Corpus {
	c := txn.Build(trees, txn.BuildOptions{
		Tuple:  tuple.Options{MaxTuplesPerTree: opts.MaxTuplesPerTree},
		Labels: opts.Labels,
	})
	weighting.Apply(c)
	return c
}

// Source yields the documents of a corpus one at a time (see DirSource,
// FileSource, TarSource, TreeSource, OpenSource, MultiSource).
type Source = corpus.Source

// Document is one unit yielded by a Source: raw XML or a pre-parsed tree.
type Document = corpus.Document

// IngestStats describes one streaming ingestion run: corpus sizes,
// throughput (DocsPerSec), truncation and the peak number of parsed
// documents queued between the workers and the merge (bounded by two
// batches of documents per worker, never by the corpus size).
type IngestStats = corpus.Stats

// DirSource walks root recursively and yields every *.xml file in lexical
// path order. It fails when the walk finds no XML documents.
func DirSource(root string) (Source, error) { return corpus.Dir(root) }

// FileSource yields an explicit list of XML files in the given order.
func FileSource(paths ...string) Source { return corpus.Files(paths...) }

// TarSource yields the *.xml entries of a tar or tar.gz stream in archive
// order; compression is auto-detected. name labels errors.
func TarSource(r io.Reader, name string) (Source, error) { return corpus.Tar(r, name) }

// TreeSource yields already-parsed trees with optional per-document labels
// (nil or short labels yield −1) — the adapter for in-process generators.
func TreeSource(name string, trees []*Tree, labels []int) Source {
	return corpus.Trees(name, trees, labels)
}

// MultiSource concatenates sources in order.
func MultiSource(srcs ...Source) Source { return corpus.Multi(srcs...) }

// OpenSource auto-detects what path holds — a directory (recursive walk),
// a tar/tar.gz archive, or a single XML document — and returns the
// matching source.
func OpenSource(path string) (Source, error) { return corpus.Open(path) }

// BuildCorpusFromSource streams every document of src through the full
// preprocessing pipeline — tuple extraction in the pass that parses,
// transactional model, ttf.itf weighting — holding only O(IngestWorkers)
// batches of documents in memory at any instant, so corpus size is bounded
// by the transactional model and not by the XML. Extraction fans out over
// CorpusOptions.IngestWorkers goroutines behind an index-ordered merge:
// the corpus is byte-identical to BuildCorpus on the same documents in the
// same order, for any worker count.
func BuildCorpusFromSource(src Source, opts CorpusOptions) (*Corpus, IngestStats, error) {
	return corpus.Build(src, corpus.Options{
		Tuple:   tuple.Options{MaxTuplesPerTree: opts.MaxTuplesPerTree},
		Labels:  opts.Labels,
		Workers: opts.IngestWorkers,
	})
}

// OpenCorpus loads a preprocessed corpus file (as written by SaveCorpus /
// `cxkcluster -save`), or — when path holds a directory, tar[.gz] archive
// or XML document instead — builds the corpus on the fly via the streaming
// ingestion pipeline. Deployments can therefore point cxkpeer straight at
// raw data without a separate preprocessing step. The returned stats are
// zero when a saved corpus was loaded.
func OpenCorpus(path string, opts CorpusOptions) (*Corpus, IngestStats, error) {
	kind, err := corpus.Detect(path)
	if err != nil {
		return nil, IngestStats{}, err
	}
	if kind == corpus.KindUnknown {
		f, err := os.Open(path)
		if err != nil {
			return nil, IngestStats{}, err
		}
		defer f.Close()
		c, err := txn.Load(f)
		if err != nil {
			return nil, IngestStats{}, fmt.Errorf("xmlclust: %s is neither XML data nor a saved corpus: %w", path, err)
		}
		return c, IngestStats{}, nil
	}
	src, err := corpus.Open(path)
	if err != nil {
		return nil, IngestStats{}, err
	}
	return BuildCorpusFromSource(src, opts)
}

// Algorithm selects the clustering algorithm.
type Algorithm int

const (
	// CXKMeans is the paper's collaborative distributed algorithm.
	CXKMeans Algorithm = iota
	// PKMeans is the non-collaborative parallel K-means baseline of
	// Sect. 5.5.3, run on the same peer session as CXK-means: every peer owns
	// every cluster, local representatives go all-to-all each round, and the
	// job stops once the objective summed over the peers stops moving. Its
	// round count includes a first round that only broadcasts the initial
	// representatives, so MaxRounds caps it at MaxRounds+1.
	PKMeans
)

// RepIndexMode and DeltaRoundsMode are two names for one switch between the
// two engines a job can run on. The fast engine (the default) scores
// documents through posting lists over the representatives' TCU terms, swept
// once per document, in relocation and in the refinement objective, and
// reuses the memoized local representative of every cluster whose membership
// did not change. The reference engine — selected by RepIndexOff or
// DeltaRoundsOff, either one or both — runs the dense Eq. 4 kernel on every
// (document, representative) pair and recomputes every representative. The
// two produce the same assignments, representatives and wire traffic byte for
// byte; what differs is wall time and the work counters of Result, all of
// which read zero on a reference run. Two fields exist because the benchmark
// sets both by name.
type RepIndexMode int

const (
	// RepIndexAuto (the zero value) selects the fast engine; posting-list
	// scoring steps aside where its premise fails (γ = 0) and those scans
	// run the dense kernel.
	RepIndexAuto RepIndexMode = iota
	// RepIndexOff selects the reference engine.
	RepIndexOff
)

// DeltaRoundsMode: see RepIndexMode.
type DeltaRoundsMode int

const (
	// DeltaRoundsAuto (the zero value) selects the fast engine.
	DeltaRoundsAuto DeltaRoundsMode = iota
	// DeltaRoundsOff selects the reference engine.
	DeltaRoundsOff
)

// fastRun maps the two public mode fields onto the one engine switch.
func fastRun(index RepIndexMode, delta DeltaRoundsMode) bool {
	return index != RepIndexOff && delta != DeltaRoundsOff
}

// ClusterOptions configures a clustering run.
type ClusterOptions struct {
	// K is the number of clusters (required).
	K int
	// F ∈ [0,1] balances structural vs content similarity (Eq. 1):
	// [0,0.3] content-driven, [0.4,0.6] hybrid, [0.7,1] structure-driven.
	F float64
	// Gamma ∈ [0,1] is the γ-matching threshold (Eq. 2).
	Gamma float64
	// Peers is the number of P2P nodes; 1 = centralized (default 1).
	Peers int
	// Workers bounds the goroutines each peer uses for its relocation
	// passes and its representative passes (one cluster per work item).
	// 0 means one worker per CPU; 1 forces the serial path; negative
	// values are rejected with an *OptionsError. For
	// a fixed Seed the clustering output is byte-identical for every legal
	// Workers value — only the wall time changes.
	Workers int
	// UnequalSplit distributes data in the paper's skewed scenario (half
	// the peers hold twice the data).
	UnequalSplit bool
	// Seed makes runs reproducible.
	Seed int64
	// IndexReps and DeltaRounds select the engine: the zero values run the
	// fast one, RepIndexOff or DeltaRoundsOff (either) the reference one.
	// Assignments and representatives are byte-identical; see RepIndexMode.
	IndexReps   RepIndexMode
	DeltaRounds DeltaRoundsMode
	// Algorithm selects CXK-means (default) or the PK-means baseline.
	Algorithm Algorithm
	// MaxRounds bounds the collaborative loop (0 = default; negative values
	// are rejected with an *OptionsError).
	MaxRounds int
	// Events, when non-nil, receives typed progress events while the job
	// runs: per-peer RoundStart/RoundEnd (with the peer's local objective),
	// PhaseChange and RepsExchanged, plus one run-level Done (Peer == -1)
	// with the final round count, total traffic and elapsed time. Events
	// arrive from one goroutine, the one that called Cluster, in an order
	// fixed by the options. The objective is a by-product of relocation, so
	// enabling events costs the callbacks only.
	Events func(Event)
}

// Result is a clustering outcome.
type Result struct {
	// Assign maps transaction index → cluster in [0,K) or TrashCluster.
	Assign []int
	// Reps holds the final global representatives.
	Reps []*Transaction
	// Rounds is the number of collaborative rounds executed.
	Rounds int
	// WallTime is the end-to-end duration.
	WallTime time.Duration
	// SimulatedTime estimates the runtime on the paper's testbed (peers on
	// a GigaBit LAN) from per-peer compute measurements and the traffic
	// model.
	SimulatedTime time.Duration
	// TrafficBytes and TrafficMsgs total the modeled network load.
	TrafficBytes int64
	TrafficMsgs  int64
	// K echoes the cluster count.
	K int
	// CounterSnapshot holds the job's deltas of the similarity context's
	// work counters. IndexCandidates and IndexSkipped count the
	// representatives that relocation through the index scored above zero
	// versus those that score exactly zero and were never touched (both zero
	// where the index stepped aside). RepsReused counts local
	// representatives returned verbatim from the round engine's memo because
	// their cluster's membership had not changed. All three are zero on a
	// reference run (and DocsSkipped, DeltaRepBytes and PrunedRows on every
	// run: nothing writes them any more). Jobs of one Sweep that share a
	// (F, Gamma) context and run concurrently may attribute overlap to one
	// cell, but the totals across cells are exact.
	sim.CounterSnapshot
}

// DefaultRoundTimeout is the per-round receive deadline distributed peer
// processes use when DistributedOptions.RoundTimeout is zero. A real
// deployment must not hang forever on a dead neighbour.
const DefaultRoundTimeout = 60 * time.Second

// DefaultStartupTimeout bounds a distributed peer's wait for the
// coordinator's startup message. Peer processes boot in any order, so this
// is much longer than the per-round deadline.
const DefaultStartupTimeout = 10 * time.Minute

// DistributedOptions configures one peer process of a multi-process
// CXK-means deployment. Every process must be started with the same corpus,
// K, F, Gamma, Seed, MaxRounds and split options — the partition and
// per-peer seeds are derived deterministically from them, so the cluster
// of processes reproduces the in-process run byte-identically.
type DistributedOptions struct {
	// K is the number of clusters (required).
	K int
	// F and Gamma are the similarity knobs (see ClusterOptions).
	F     float64
	Gamma float64
	// ID is this process's peer id in [0, len(PeerAddrs)). Peer 0 is the
	// coordinator: it plays node N0 and collects the final assignment.
	ID int
	// PeerAddrs is the shared peer-id→address table (host:port per peer).
	PeerAddrs []string
	// Listen overrides the local listen address (default PeerAddrs[ID]);
	// useful when peers bind 0.0.0.0 but advertise a routable host.
	Listen string
	// Workers bounds intra-peer parallelism (see ClusterOptions.Workers).
	Workers int
	// UnequalSplit selects the paper's skewed partitioning scenario.
	UnequalSplit bool
	// Seed makes the run reproducible (and must match across processes).
	Seed int64
	// IndexReps and DeltaRounds select this peer's engine (see
	// ClusterOptions): RepIndexOff or DeltaRoundsOff, either one, runs the
	// reference engine. The choice is local: both engines put the same bytes
	// on the wire, so the processes of a deployment need not agree on it.
	// What they must share is the build — no frame carries a protocol
	// version.
	IndexReps   RepIndexMode
	DeltaRounds DeltaRoundsMode
	// MaxRounds bounds the collaborative loop (0 = default; negative values
	// are rejected with an *OptionsError).
	MaxRounds int
	// RoundTimeout bounds every blocking receive (0 = DefaultRoundTimeout,
	// negative = no deadline).
	RoundTimeout time.Duration
	// StartupTimeout bounds the wait for the coordinator's startup
	// message — peers may boot long before peer 0 does
	// (0 = DefaultStartupTimeout, negative = no deadline).
	StartupTimeout time.Duration
	// DialTimeout bounds how long sends wait for a peer's listener to come
	// up (0 = the p2p default, 30 s; negative = an *OptionsError).
	DialTimeout time.Duration
	// Events, when non-nil, receives this peer's progress events (see
	// ClusterOptions.Events; distributed runs emit only peer-level events).
	Events func(Event)

	// CheckpointDir enables the elastic peer fabric: at every
	// CheckpointEvery-th round boundary the peer persists its session state
	// here (and replicates it to the coordinator), so a crashed peer can be
	// replaced mid-session — the coordinator rolls every survivor back to
	// the last common checkpoint and the cluster replays to an outcome
	// byte-identical to an uninterrupted run. Empty disables the fabric
	// (the pre-fabric behavior: any peer failure fails the session).
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in rounds (0 = every round;
	// negative values are rejected with an *OptionsError).
	CheckpointEvery int
	// Join makes this process take over peer ID's slot in a running session:
	// after a crash, a graceful leave, or a restart on the old
	// CheckpointDir. The coordinator admits it at the next rollback barrier
	// and hands it the slot's replicated state; the process's own corpus is
	// never shipped, and a corpus whose content digest differs from the
	// coordinator's keeps the join from being admitted. Invalid on peer 0
	// (coordinator death is not recoverable).
	Join bool
	// RecoveryWindows is how many extra round-timeout windows a stalled
	// peer grants recovery before failing with ErrRecoveryTimeout
	// (0 = default 2: recovery must complete within 2× RoundTimeout;
	// negative values are rejected with an *OptionsError).
	RecoveryWindows int
	// Leave, when non-nil, requests a graceful departure: after it is
	// closed (or receives), the peer replicates its checkpoint to the
	// coordinator at the next checkpoint boundary and the call returns
	// ErrLeft; a replacement then takes the slot with Join. Requires the
	// fabric (CheckpointDir).
	Leave <-chan struct{}
	// DebugAddr, when non-empty, serves the fabric counters over HTTP for
	// the session's lifetime (GET /v1/stats, mirroring cxkserve): rounds,
	// checkpoints written/restored, current epoch, stale frames dropped,
	// suspects raised, last-heartbeat age. Requires the fabric
	// (CheckpointDir).
	DebugAddr string
	// DebugPprof additionally mounts the net/http/pprof handlers on the
	// DebugAddr server (/debug/pprof/...), so a live round loop can be
	// CPU/heap-profiled without redeploying. Requires DebugAddr.
	DebugPprof bool
	// FailpointRound is a chaos-engineering failpoint for recovery drills:
	// when > 0, the process kills itself (SIGKILL, uncatchable — exactly
	// like an external kill) at its first checkpoint at or past this round,
	// before the checkpoint is written. Wall-clock kill schedules race the
	// session (rounds complete in milliseconds); the failpoint makes "die
	// mid-session at round N" deterministic, so the recovery-equivalence
	// e2e can gate on it in CI. Requires the fabric (CheckpointDir); zero
	// in production, negative values are rejected with an *OptionsError.
	FailpointRound int
}

// DistributedResult is the outcome of one peer process.
type DistributedResult struct {
	// ID echoes the peer id.
	ID int
	// LocalAssign maps this peer's local transaction order → cluster.
	LocalAssign []int
	// Assign is the corpus-wide assignment (transaction index → cluster);
	// populated on the coordinator (ID 0) only.
	Assign []int
	// Reps holds the final global representatives as seen by this peer.
	Reps []*Transaction
	// Rounds is the number of collaborative rounds executed.
	Rounds int
	// WallTime is the end-to-end duration of this process's session.
	WallTime time.Duration
	// RepsDigest is a canonical fingerprint of Reps (FNV-1a over sorted
	// flattened raw item ids): equal digests across runs or processes of
	// the same corpus mean identical final representatives. The recovery
	// equivalence gate compares exactly this.
	RepsDigest uint64
}

// DocumentClusters aggregates a per-transaction assignment to per-document
// clusters by majority vote (ties to the lower cluster id; documents whose
// transactions all landed in the trash map to TrashCluster). Every document
// of the corpus appears in the result: transactions beyond a short assign
// slice cast no votes, so a document wholly outside the slice follows the
// all-trash rule and maps to TrashCluster instead of being dropped.
func DocumentClusters(corpus *Corpus, assign []int) map[int]int {
	votes := map[int][]int{}
	for i, tr := range corpus.Transactions {
		if i < len(assign) {
			votes[tr.Doc] = append(votes[tr.Doc], assign[i])
		} else if _, ok := votes[tr.Doc]; !ok {
			votes[tr.Doc] = nil
		}
	}
	out := make(map[int]int, len(votes))
	for doc, v := range votes {
		out[doc] = MajorityCluster(v)
	}
	return out
}

// MajorityCluster reduces the per-transaction assignment of ONE document to
// a document-level cluster by majority vote: ties resolve to the lower
// cluster id, trash votes never outvote a real cluster, and an empty or
// all-trash assignment yields TrashCluster. It is the same vote
// DocumentClusters applies per document, exposed for online classification
// where a single document's transactions are assigned at a time. The votes
// are counted by cluster id, on the stack for the first 64 ids.
func MajorityCluster(assign []int) int {
	top := TrashCluster
	for _, cl := range assign {
		top = max(top, cl)
	}
	var small [64]int
	votes := small[:]
	if top >= len(small) {
		votes = make([]int, top+1)
	}
	for _, cl := range assign {
		if cl >= 0 {
			votes[cl]++
		}
	}
	best := TrashCluster
	for cl, n := range votes[:top+1] {
		if n > 0 && (best == TrashCluster || n > votes[best]) {
			best = cl
		}
	}
	return best
}

// Scores bundles the cluster validity measures of Sect. 5.3.
type Scores struct {
	FMeasure float64
	Purity   float64
	NMI      float64
	Trash    float64 // fraction of labeled transactions left unclustered
}

// Evaluate scores an assignment against per-transaction ground truth.
func Evaluate(labels, assign []int, k int) Scores {
	c := eval.NewContingency(labels, assign, k)
	return Scores{
		FMeasure: c.FMeasure(),
		Purity:   c.Purity(),
		NMI:      c.NMI(),
		Trash:    eval.TrashFraction(labels, assign),
	}
}

// Labels extracts the per-transaction ground truth of a corpus built with
// CorpusOptions.Labels.
func Labels(corpus *Corpus) []int {
	out := make([]int, len(corpus.Transactions))
	for i, tr := range corpus.Transactions {
		out[i] = tr.Label
	}
	return out
}

// SaveCorpus serializes a preprocessed corpus so that parsing, tuple
// extraction and weighting can be done once and reused across runs.
func SaveCorpus(w io.Writer, corpus *Corpus) error { return corpus.Save(w) }

// LoadCorpus restores a corpus written by SaveCorpus. The restored corpus
// carries no source trees; it is ready for Cluster.
func LoadCorpus(r io.Reader) (*Corpus, error) { return txn.Load(r) }
