package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// Options configures a CXK-means run.
type Options struct {
	// K is the desired number of clusters (a (k+1)-th trash cluster is
	// maintained implicitly).
	K int
	// Params are the similarity knobs (f, γ).
	Params sim.Params
	// Peers is the network size m; 1 reproduces the centralized baseline.
	Peers int
	// Partition assigns corpus transaction indices to peers; len must be
	// Peers. Use EqualPartition / UnequalPartition to build one.
	Partition [][]int
	// MaxRounds bounds the collaborative outer loop (paper: < 10).
	MaxRounds int
	// Seed drives initial representative selection (peer i uses Seed+i).
	Seed int64
	// Rule selects the GenerateTreeTuple return reading.
	Rule cluster.ReturnRule
	// Workers bounds the goroutines each peer uses for its relocation
	// passes (refinement is serial). 0/negative = one per CPU, 1 = serial.
	// Peers always run concurrently with each other; Workers adds intra-peer
	// parallelism on top, and the result stays byte-identical to Workers: 1
	// for a fixed Seed.
	Workers int
	// Fast runs every peer on the fast engine: posting-list scoring instead
	// of the dense kernel, local representatives memoized across rounds (see
	// cluster.Rounds). Without it the run is the reference: dense kernel,
	// nothing memoized. Assignments, representatives and every byte on the
	// wire are identical either way, so the choice is each peer's own — RunPeer
	// processes of one session need not agree on it.
	Fast bool
	// PKMeans runs the non-collaborative baseline of Sect. 5.5.3 on the same
	// session instead of CXK-means (see doc.go): every peer owns every
	// cluster, local representatives go all-to-all, and the run stops on the
	// summed objective. Run only: neither the StartMsg nor a SessionState
	// carries it, so RunPeer rejects it.
	PKMeans bool
	// Transport overrides the default in-process channel transport.
	Transport p2p.Transport
	// SerializeCompute runs peers' compute sections under a mutual
	// exclusion token so that measured per-peer compute times are not
	// polluted by scheduler interleaving on machines with fewer cores than
	// peers. Communication still overlaps. Benchmarks enable this; live
	// deployments leave it off.
	SerializeCompute bool
	// RoundTimeout bounds every blocking receive of each peer's session;
	// a peer that waits longer fails with ErrRoundDeadline instead of
	// hanging on a dead neighbour. 0 disables the deadline (the default
	// for trusted in-process runs).
	RoundTimeout time.Duration
	// StartupTimeout bounds the wait for the StartMsg (see
	// PeerConfig.StartupTimeout); distributed peers boot in any order, so
	// it is typically much longer than RoundTimeout. 0 falls back to
	// RoundTimeout; negative disables it.
	StartupTimeout time.Duration
	// Observer, when non-nil, receives progress events from every peer
	// session (see PeerConfig.Observer) plus one run-level Done event with
	// Peer == -1 after all sessions terminate. Must be safe for concurrent
	// calls.
	Observer Observer
	// Epoch, Initial, Rejoin and Hooks attach the elastic peer fabric to a
	// RunPeer session (see the matching PeerConfig fields; ignored by the
	// in-process Run driver, whose peers share one failure domain).
	Epoch   int
	Initial *SessionState
	Rejoin  bool
	Hooks   Hooks
}

// DefaultMaxRounds bounds the collaborative loop.
const DefaultMaxRounds = 30

// PeerReport carries per-peer accounting for one run.
type PeerReport struct {
	// ComputeByRound is the measured local compute time per round.
	ComputeByRound []time.Duration
	// SentBytesByRound / RecvBytesByRound use the modeled Sizer sizes.
	SentBytesByRound []int64
	RecvBytesByRound []int64
	SentMsgsByRound  []int64
	RecvMsgsByRound  []int64
	// LocalTransactions is |S_i|.
	LocalTransactions int
}

// GrowRound extends the per-round slices to cover round and records the
// local set's size. Idempotent: messages can arrive a phase ahead of the
// local round.
func (pr *PeerReport) GrowRound(round, localTxns int) {
	for len(pr.ComputeByRound) <= round {
		pr.ComputeByRound = append(pr.ComputeByRound, 0)
		pr.SentBytesByRound = append(pr.SentBytesByRound, 0)
		pr.RecvBytesByRound = append(pr.RecvBytesByRound, 0)
		pr.SentMsgsByRound = append(pr.SentMsgsByRound, 0)
		pr.RecvMsgsByRound = append(pr.RecvMsgsByRound, 0)
	}
	pr.LocalTransactions = localTxns
}

// Timed runs fn and adds its wall time to round's compute time.
func (pr *PeerReport) Timed(round int, fn func()) {
	t0 := time.Now()
	fn()
	pr.ComputeByRound[round] += time.Since(t0)
}

// TotalCompute sums compute time across rounds.
func (pr *PeerReport) TotalCompute() time.Duration {
	var d time.Duration
	for _, c := range pr.ComputeByRound {
		d += c
	}
	return d
}

// Result is the outcome of a collaborative run.
type Result struct {
	// Assign maps corpus transaction index → cluster in [0,K) or
	// cluster.TrashCluster.
	Assign []int
	// Reps are the final global representatives.
	Reps []*txn.Transaction
	// Rounds is the number of collaborative rounds executed.
	Rounds int
	// Peers holds per-peer accounting.
	Peers []PeerReport
	// WallTime is the end-to-end wall-clock duration of the run.
	WallTime time.Duration
}

// SimulatedTime reproduces the paper's runtime metric on simulated
// hardware: per round, the slowest peer's compute time plus the busiest
// peer's wire time under the given network model (Sect. 4.3.4). For m = 1
// it degenerates to the pure compute time.
func (r *Result) SimulatedTime(tm p2p.TimeModel) time.Duration {
	var total time.Duration
	for round := 0; round < r.Rounds; round++ {
		var maxCompute, maxComm time.Duration
		for i := range r.Peers {
			pr := &r.Peers[i]
			if round < len(pr.ComputeByRound) && pr.ComputeByRound[round] > maxCompute {
				maxCompute = pr.ComputeByRound[round]
			}
			var msgs, bytes int64
			if round < len(pr.SentMsgsByRound) {
				msgs += pr.SentMsgsByRound[round] + pr.RecvMsgsByRound[round]
				bytes += pr.SentBytesByRound[round] + pr.RecvBytesByRound[round]
			}
			if ct := tm.CommTime(msgs, bytes); ct > maxComm {
				maxComm = ct
			}
		}
		total += maxCompute + maxComm
	}
	return total
}

// TotalTraffic sums modeled sent bytes over all peers and rounds.
func (r *Result) TotalTraffic() (msgs, bytes int64) {
	for i := range r.Peers {
		pr := &r.Peers[i]
		for round := range pr.SentMsgsByRound {
			msgs += pr.SentMsgsByRound[round]
			bytes += pr.SentBytesByRound[round]
		}
	}
	return msgs, bytes
}

// EqualPartition splits n transaction indices over m peers as evenly as
// possible after a seeded shuffle (the paper's first scenario:
// |S_i| = |S|/m).
func EqualPartition(n, m int, seed int64) [][]int {
	return weightedPartition(n, uniformWeights(m), seed)
}

// UnequalPartition implements the paper's second scenario: half of the
// peers hold twice the share of the other half (m/2 peers with 4|S|/3m and
// m/2 peers with 2|S|/3m transactions). For odd m the extra peer takes the
// light share.
func UnequalPartition(n, m int, seed int64) [][]int {
	w := make([]float64, m)
	for i := range w {
		if i < m/2 {
			w[i] = 2
		} else {
			w[i] = 1
		}
	}
	return weightedPartition(n, w, seed)
}

func uniformWeights(m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 1
	}
	return w
}

func weightedPartition(n int, weights []float64, seed int64) [][]int {
	m := len(weights)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	out := make([][]int, m)
	start := 0
	var acc float64
	for i := 0; i < m; i++ {
		acc += weights[i]
		end := int(acc/wsum*float64(n) + 0.5)
		if i == m-1 {
			end = n
		}
		if end < start {
			end = start
		}
		out[i] = append([]int(nil), perm[start:end]...)
		sort.Ints(out[i])
		start = end
	}
	return out
}

// ResponsibilityPartition splits the cluster ids {0..k-1} into m contiguous
// subsets Z_1..Z_m (node N0's startup duty in Fig. 5).
func ResponsibilityPartition(k, m int) [][]int {
	zs := make([][]int, m)
	for i := 0; i < m; i++ {
		lo, hi := i*k/m, (i+1)*k/m
		for j := lo; j < hi; j++ {
			zs[i] = append(zs[i], j)
		}
	}
	return zs
}

// Run executes CXK-means (or, with PKMeans, the PK-means baseline) as a thin
// driver over the session engine: it plays
// node N0 (startup), builds one Peer per partition part and runs all m
// sessions concurrently over the shared transport. The corpus supplies the
// transaction set S and interning tables; cx must be a similarity context
// over the same corpus with Params equal to opts.Params.
//
// Cancellation of ctx aborts every session at its next safe boundary and
// Run returns an error wrapping ErrCanceled; a nil ctx never cancels.
func Run(ctx context.Context, cx *sim.Context, corpus *txn.Corpus, opts Options) (*Result, error) {
	if err := opts.check(); err != nil {
		return nil, err
	}
	m := opts.Peers
	transport := opts.Transport
	if transport == nil {
		transport = p2p.NewChanTransport(m, Sizer(corpus.Items))
		defer transport.Close()
	}

	// Node N0 startup (Fig. 5): define Z_1..Z_m and ship parameters. Peer 0
	// plays N0 — the paper notes any peer can perform this trivial duty.
	start := NewStartMsg(cx, corpus, opts)
	for i := 0; i < m; i++ {
		if err := transport.Send(0, i, start); err != nil {
			return nil, err
		}
	}

	var computeToken chan struct{}
	if opts.SerializeCompute {
		computeToken = make(chan struct{}, 1)
		computeToken <- struct{}{}
	}

	peers := make([]*Peer, m)
	for i := 0; i < m; i++ {
		cfg := peerConfig(cx, corpus, opts, &start, i)
		cfg.Transport, cfg.ComputeToken = transport, computeToken
		peers[i] = NewPeer(cfg)
	}

	// The first session to fail cancels the others: they would otherwise wait
	// for its next message until the caller's ctx dies.
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	t0 := time.Now()
	var wg sync.WaitGroup
	var failed sync.Once
	var firstErr error
	results := make([]*SessionResult, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if results[i], err = peers[i].RunSession(ctx); err != nil {
				failed.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	if firstErr != nil {
		return nil, firstErr
	}

	res := &Result{
		Assign:   make([]int, len(corpus.Transactions)),
		Reps:     results[0].Reps,
		WallTime: wall,
		Peers:    make([]PeerReport, m),
	}
	for i := range res.Assign {
		res.Assign[i] = cluster.TrashCluster
	}
	for i, sr := range results {
		res.Peers[i] = sr.Report
		if sr.Rounds > res.Rounds {
			res.Rounds = sr.Rounds
		}
		for localIdx, a := range sr.Assign {
			res.Assign[opts.Partition[i][localIdx]] = a
		}
	}
	if opts.Observer != nil {
		msgs, bytes := res.TotalTraffic()
		opts.Observer(Event{
			Kind: EventDone, Peer: -1, Round: res.Rounds, Phase: PhaseDone,
			SentMsgs: msgs, SentBytes: bytes,
			CounterSnapshot: cx.Counters.Snapshot(),
			Elapsed:         wall,
		})
	}
	return res, nil
}

// check rejects the options neither Run nor RunPeer can run.
func (opts *Options) check() error {
	switch {
	case opts.Peers <= 0:
		return fmt.Errorf("core: need at least one peer, got %d", opts.Peers)
	case opts.K <= 0:
		return fmt.Errorf("core: need k ≥ 1, got %d", opts.K)
	case len(opts.Partition) != opts.Peers:
		return fmt.Errorf("core: partition has %d parts for %d peers", len(opts.Partition), opts.Peers)
	}
	return nil
}

// peerConfig derives peer id's configuration from the run's options, the
// same for Run and RunPeer: S_i is partition part id, the seed is Seed+id,
// and start is the run's StartMsg, which the peer checks N0's against. The
// transport and the fabric fields are the caller's.
func peerConfig(cx *sim.Context, corpus *txn.Corpus, opts Options, start *StartMsg, id int) PeerConfig {
	local := make([]*txn.Transaction, len(opts.Partition[id]))
	for j, idx := range opts.Partition[id] {
		local[j] = corpus.Transactions[idx]
	}
	return PeerConfig{
		ID: id, Ctx: cx, Local: local, Sizer: Sizer(corpus.Items), MaxRounds: opts.MaxRounds,
		Seed: opts.Seed + int64(id), Rule: opts.Rule, Workers: opts.Workers, Fast: opts.Fast, PKMeans: opts.PKMeans,
		RoundTimeout: opts.RoundTimeout, StartupTimeout: opts.StartupTimeout,
		Expect: start, Observer: opts.Observer,
	}
}

// NewStartMsg builds node N0's StartMsg for a run configuration. Every
// process of a run computes it once: it digests the corpus
// (PartitionFingerprint), so it costs one pass over the partition's items.
func NewStartMsg(cx *sim.Context, corpus *txn.Corpus, opts Options) StartMsg {
	return StartMsg{
		Zs:            ResponsibilityPartition(opts.K, opts.Peers),
		K:             opts.K,
		F:             cx.Params.F,
		Gamma:         cx.Params.Gamma,
		Seed:          opts.Seed,
		Txns:          len(corpus.Transactions),
		PartitionHash: PartitionFingerprint(corpus, opts.Partition),
	}
}
