// Package experiments runs the paper's evaluation (Sect. 5). Its accuracy
// results — Tables 1–2, the γ tuning and the readings of Fig. 6's return
// value — are sections of one record, the fidelity ledger (Fidelity,
// FIDELITY.json); Figs. 7–8, the cost model and the ablations of this
// implementation's own choices print text. Every driver is deterministic
// for a fixed configuration, apart from the times it measures.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/core"
	"xmlclust/internal/dataset"
	"xmlclust/internal/eval"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// Algorithm selects the clustering algorithm under test.
type Algorithm int

const (
	// CXK is the paper's collaborative algorithm.
	CXK Algorithm = iota
	// PK is the non-collaborative parallel K-means baseline.
	PK
)

func (a Algorithm) String() string {
	if a == PK {
		return "PK-means"
	}
	return "CXK-means"
}

// RunSpec describes one clustering run.
type RunSpec struct {
	Dataset string            // "DBLP", "IEEE", "Shakespeare", "Wikipedia"
	Kind    dataset.ClassKind // selects labels and default k
	F       float64
	Gamma   float64
	K       int // 0 → reference class count
	Peers   int
	// Workers bounds each peer's intra-peer parallelism (0/negative = one
	// worker per CPU, 1 = serial; the experiment drivers pass the profile's
	// Workers setting, which defaults to serial for timing fidelity).
	// Results are byte-identical for any value; only timings change.
	Workers int
	Unequal bool // paper's second partitioning scenario
	Seed    int64
	// Docs overrides the corpus size (0 = generator default); the paper's
	// "halved datasets" use Docs = default/2.
	Docs int
	// MaxTuples caps tuple extraction per tree (0 = package default).
	MaxTuples int
	Algorithm Algorithm
	Rule      cluster.ReturnRule
	// DisablePathCache turns off the tag-path similarity cache (ablation).
	DisablePathCache bool
	// maxRounds lets the package's tests force a round cap (0 = default).
	maxRounds int
	// fast runs the fast engine (core.Options.Fast) in place of the
	// reference one; the fidelity ledger is the same either way.
	fast bool
}

// RunResult aggregates the metrics the paper reports.
type RunResult struct {
	F         float64
	Purity    float64
	NMI       float64
	Trash     float64
	Rounds    int
	SimTime   time.Duration // simulated runtime under the network model
	WallTime  time.Duration
	Compute   time.Duration // summed per-peer compute
	Bytes     int64         // modeled traffic
	Msgs      int64
	Txns      int
	Docs      int // distinct source documents in the corpus
	K         int
	ItemSims  int64 // similarity-work counters for the complexity study
	TxnSims   int64
	CacheHits int64
	// PathSims counts Eq. 3 alignments actually computed (not served by
	// the path cache) — the direct measure the cache ablation reports.
	PathSims int64
	// Mallocs is the process-wide heap-allocation delta across the
	// clustering run (runtime.MemStats.Mallocs) — with the zero-allocation
	// kernel it scales with rounds and representatives, not with
	// transaction pairs. Divided by Docs it yields the ablation tables'
	// allocs/doc column. Noisy under concurrent load; treat as indicative.
	Mallocs uint64
	// Capped is 1 for a run core.Result.Capped calls capped (Execute), and
	// Runs the number of runs averaged (1 for Execute).
	Capped, Runs int
	// ChangedTail holds, for a capped run of Execute, what changed in each
	// of its last 5 rounds (nil otherwise).
	ChangedTail []RoundChange
	// FRandom and FSingle are the F of two floors on the run's corpus and
	// labels (Execute): a random assignment over [0, k) seeded by the run's
	// seed, and the single-cluster partition.
	FRandom, FSingle float64
}

// RoundChange is what changed in one round: how many peers sent
// FlagContinue and how many global representatives differ from the
// previous round's (core.Event's PeersChanged and GlobalsChanged).
type RoundChange struct {
	Peers   int `json:"peers"`
	Globals int `json:"globals"`
}

// tailRounds is how many of a capped run's last rounds ChangedTail keeps.
const tailRounds = 5

// corpusKey caches prepared corpora across runs: corpus construction and
// ttf.itf weighting are deterministic in these fields.
type corpusKey struct {
	dataset   string
	kind      dataset.ClassKind
	docs      int
	maxTuples int
	seed      int64
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[corpusKey]*preparedCorpus{}
)

type preparedCorpus struct {
	corpus *txn.Corpus
	labels []int
	k      int
	docs   int
}

// countDocs counts the distinct source documents of a corpus.
func countDocs(c *txn.Corpus) int {
	seen := map[int]struct{}{}
	for _, tr := range c.Transactions {
		if tr.Doc >= 0 {
			seen[tr.Doc] = struct{}{}
		}
	}
	return len(seen)
}

// DataSeed fixes the corpus-generation seed; run seeds only affect
// partitioning and initial representative selection, as in the paper where
// the corpora are fixed and runs vary.
const DataSeed = 424242

func prepare(spec RunSpec) (*preparedCorpus, error) {
	gen, ok := dataset.ByName(spec.Dataset)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", spec.Dataset)
	}
	key := corpusKey{spec.Dataset, spec.Kind, spec.Docs, spec.MaxTuples, DataSeed}
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if pc, ok := corpusCache[key]; ok {
		return pc, nil
	}
	col := gen(dataset.Spec{Docs: spec.Docs, Seed: DataSeed})
	corpus := col.BuildCorpus(spec.Kind, spec.MaxTuples, spec.Workers)
	pc := &preparedCorpus{
		corpus: corpus,
		labels: dataset.TransactionLabels(corpus),
		k:      col.K(spec.Kind),
		docs:   countDocs(corpus),
	}
	corpusCache[key] = pc
	return pc, nil
}

// Execute runs one clustering experiment on a background context.
func Execute(spec RunSpec) (RunResult, error) {
	return ExecuteCtx(context.Background(), spec)
}

// ExecuteCtx runs one clustering experiment; ctx cancels it at the next
// safe boundary of the underlying engines. Every run gets a fresh, COLD
// similarity context on purpose: the drivers calibrate timing curves
// (Fig. 7, the cost model) against measured per-round compute, so warm
// caches carried across runs would make points incomparable. Warm-cache
// reuse across runs belongs to the public Engine, not this harness.
func ExecuteCtx(ctx context.Context, spec RunSpec) (RunResult, error) {
	pc, err := prepare(spec)
	if err != nil {
		return RunResult{}, err
	}
	k := spec.K
	if k <= 0 {
		k = pc.k
	}
	cx := sim.NewContext(pc.corpus, sim.Params{F: spec.F, Gamma: spec.Gamma})
	cx.UseCache = !spec.DisablePathCache

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	n := len(pc.corpus.Transactions)
	var part [][]int
	if spec.Unequal {
		part = core.UnequalPartition(n, spec.Peers, spec.Seed)
	} else {
		part = core.EqualPartition(n, spec.Peers, spec.Seed)
	}

	var changed []RoundChange // peer 0's round ends; every peer reports the same
	res, err := core.Run(ctx, cx, pc.corpus, core.Options{
		K: k, Params: cx.Params, Peers: spec.Peers, Partition: part,
		Seed: spec.Seed, Rule: spec.Rule, Workers: spec.Workers, MaxRounds: spec.maxRounds,
		SerializeCompute: true,
		Fast:             spec.fast, // the reference engine by default: timings follow the paper's cost model
		PKMeans:          spec.Algorithm == PK,
		Observer: func(ev core.Event) {
			if ev.Kind == core.EventRoundEnd && ev.Peer == 0 {
				changed = append(changed, RoundChange{Peers: ev.PeersChanged, Globals: ev.GlobalsChanged})
			}
		},
	})
	if err != nil {
		return RunResult{}, err
	}
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	cont := eval.NewContingency(pc.labels, res.Assign, k)
	msgs, bytes := res.TotalTraffic()
	capped := 0
	if res.Capped {
		capped = 1
	}
	var computeSum time.Duration
	for i := range res.Peers {
		computeSum += res.Peers[i].TotalCompute()
	}
	f, trash := cont.FMeasure(), eval.TrashFraction(pc.labels, res.Assign)
	fRandom, fSingle := floors(pc.labels, k, spec.Seed)
	r := RunResult{
		FRandom:   fRandom,
		FSingle:   fSingle,
		F:         f,
		Purity:    cont.Purity(),
		NMI:       cont.NMI(),
		Trash:     trash,
		Rounds:    res.Rounds,
		Capped:    capped,
		Runs:      1,
		SimTime:   res.SimulatedTime(p2p.DefaultTimeModel()),
		WallTime:  res.WallTime,
		Compute:   computeSum,
		Bytes:     bytes,
		Msgs:      msgs,
		Txns:      n,
		Docs:      pc.docs,
		K:         k,
		ItemSims:  cx.Counters.ItemSims.Load(),
		TxnSims:   cx.Counters.TxnSims.Load(),
		CacheHits: cx.Counters.CacheHits.Load(),
		PathSims:  cx.Counters.PathSims.Load(),
		Mallocs:   memAfter.Mallocs - memBefore.Mallocs,
	}
	if res.Capped {
		r.ChangedTail = changed[max(0, len(changed)-tailRounds):]
	}
	return r, nil
}

// floors scores the random and the single-cluster partition of labels.
func floors(labels []int, k int, seed int64) (random, single float64) {
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, len(labels))
	for i := range assign {
		assign[i] = rng.Intn(k)
	}
	return eval.NewContingency(labels, assign, k).FMeasure(),
		eval.NewContingency(labels, make([]int, len(labels)), k).FMeasure()
}

// AverageF runs the spec for every f value and seed given, averaging the
// F-measure — the tables' "F-measure (avg)" protocol (Sect. 5.5.2 averages
// over multiple runs and over the f sub-range of each clustering setting).
func AverageF(spec RunSpec, fs []float64, seeds []int64) (RunResult, error) {
	if len(fs) == 0 || len(seeds) == 0 {
		return RunResult{}, fmt.Errorf("experiments: need at least one f and one seed")
	}
	var agg RunResult
	for _, f := range fs {
		for _, seed := range seeds {
			s := spec
			s.F = f
			s.Seed = seed
			r, err := Execute(s)
			if err != nil {
				return RunResult{}, err
			}
			agg.F += r.F
			agg.Purity += r.Purity
			agg.NMI += r.NMI
			agg.Trash += r.Trash
			agg.Rounds += r.Rounds
			agg.Runs += r.Runs
			agg.SimTime += r.SimTime
			agg.WallTime += r.WallTime
			agg.Compute += r.Compute
			agg.Bytes += r.Bytes
			agg.Msgs += r.Msgs
			agg.Txns = r.Txns
			agg.K = r.K
		}
	}
	inv := 1.0 / float64(agg.Runs)
	agg.F *= inv
	agg.Purity *= inv
	agg.NMI *= inv
	agg.Trash *= inv
	agg.Rounds = int(float64(agg.Rounds)*inv + 0.5)
	agg.SimTime = time.Duration(float64(agg.SimTime) * inv)
	agg.WallTime = time.Duration(float64(agg.WallTime) * inv)
	agg.Compute = time.Duration(float64(agg.Compute) * inv)
	agg.Bytes = int64(float64(agg.Bytes) * inv)
	agg.Msgs = int64(float64(agg.Msgs) * inv)
	return agg, nil
}
