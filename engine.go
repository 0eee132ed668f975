package xmlclust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	// Registers the profiling handlers on http.DefaultServeMux; they are
	// only reachable when DistributedOptions.DebugPprof mounts that mux on
	// the debug listener (cxkpeer -pprof).
	_ "net/http/pprof"
	"os"
	"runtime"
	"sync"
	"time"

	"xmlclust/internal/core"
	"xmlclust/internal/fabric"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
)

// Engine is a reusable clustering handle bound to one corpus. It owns the
// interning tables and a params-keyed similarity-context cache: the
// structural tag-path pair similarities of Eq. 3 depend only on the paths —
// never on (f, γ) — so every job on the same Engine shares one warm
// structural cache, and jobs that repeat a (F, Gamma) pair reuse the same
// similarity context and its counters.
//
// Content vectors live in the corpus and are shared across all runs.
// Sweep-heavy workloads (the paper's Sect. 5 protocol re-clusters one
// corpus across f, γ, k and peer-count grids) therefore pay the similarity
// groundwork once instead of once per cell. A job's synthetic items live in a
// table of its own, which dies with it: the corpus gets only those of the
// representatives the job returns, so that they resolve there, and a
// repeated job adds none.
//
// An Engine is safe for concurrent use: multiple jobs may run on it at the
// same time (Sweep does exactly that).
type Engine struct {
	corpus  *Corpus
	paths   *sim.PathCache
	labeled bool

	mu       sync.Mutex
	contexts map[sim.Params]*sim.Context
}

// EngineOptions configures an Engine. Nothing is configurable today; every
// caller passes the zero value.
type EngineOptions struct{}

// maxCachedContexts bounds the params-keyed similarity-context cache of an
// Engine. The bound only matters for adversarially large parameter grids.
const maxCachedContexts = 256

// NewEngine binds a reusable clustering engine to a corpus. The corpus must
// not be mutated while the engine is in use.
func NewEngine(corpus *Corpus, _ EngineOptions) (*Engine, error) {
	if corpus == nil {
		return nil, fmt.Errorf("xmlclust: NewEngine: nil corpus")
	}
	e := &Engine{
		corpus:   corpus,
		paths:    sim.NewPathCache(),
		contexts: map[sim.Params]*sim.Context{},
	}
	for _, tr := range corpus.Transactions {
		if tr.Label >= 0 {
			e.labeled = true
			break
		}
	}
	return e, nil
}

// Corpus returns the corpus the engine is bound to.
func (e *Engine) Corpus() *Corpus { return e.corpus }

// CachedPathSims reports how many structural tag-path pair similarities the
// engine has accumulated so far — the warmth of the shared Eq. 3 cache.
func (e *Engine) CachedPathSims() int { return e.paths.Len() }

// simContext returns the engine's similarity context for the given params,
// creating and caching it on first use. All contexts share the engine's
// structural path cache.
func (e *Engine) simContext(p sim.Params) *sim.Context {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cx, ok := e.contexts[p]; ok {
		return cx
	}
	if len(e.contexts) >= maxCachedContexts {
		for k := range e.contexts { // evict one arbitrary entry; values are cheap to rebuild
			delete(e.contexts, k)
			break
		}
	}
	cx := sim.NewContextShared(e.corpus, p, e.paths)
	e.contexts[p] = cx
	return cx
}

// ErrCanceled reports that a job's context was canceled (or its deadline
// expired) and the run aborted at the nearest safe boundary. The context's
// own error (context.Canceled / context.DeadlineExceeded) stays in the
// chain, so errors.Is works against either sentinel.
var ErrCanceled = core.ErrCanceled

// Sentinels of the elastic peer fabric (DistributedOptions.CheckpointDir),
// matched with errors.Is.
var (
	// ErrLeft reports that this peer departed gracefully after a Leave
	// request: its state was handed to the coordinator and the session
	// ended on purpose, not by failure.
	ErrLeft = core.ErrLeft
	// ErrCoordinatorLost reports that peer 0 became unreachable.
	// Coordinator death is not recovered from — restart the session.
	ErrCoordinatorLost = core.ErrCoordinatorLost
	// ErrRecoveryTimeout reports that a stalled session exhausted its
	// recovery windows without a replacement peer completing the rollback.
	ErrRecoveryTimeout = core.ErrRecoveryTimeout
	// ErrCheckpointMismatch reports a checkpoint (or join) from a different
	// run configuration: restoring it would diverge silently.
	ErrCheckpointMismatch = fabric.ErrCheckpointMismatch
	// ErrNoCheckpoint reports that a survivor's store lacks the checkpoint
	// of the rollback barrier round.
	ErrNoCheckpoint = fabric.ErrNoCheckpoint
)

// OptionsError reports an option field outside its legal range. It is the
// typed validation failure of every Engine entry point.
type OptionsError struct {
	// Field names the offending option (e.g. "K", "F", "Gamma").
	Field string
	// Value is the rejected value.
	Value float64
	// Reason states the constraint that was violated.
	Reason string
}

// Error implements error.
func (e *OptionsError) Error() string {
	return fmt.Sprintf("xmlclust: invalid option %s = %v: %s", e.Field, e.Value, e.Reason)
}

// validateKFGamma checks the option ranges shared by every entry point:
// K ≥ 1 and F, Gamma ∈ [0,1] (Eq. 1 and Eq. 2 are undefined outside the
// unit interval; NaN is rejected too).
func validateKFGamma(k int, f, gamma float64) error {
	if k < 1 {
		return &OptionsError{Field: "K", Value: float64(k), Reason: "need at least one cluster"}
	}
	if math.IsNaN(f) || f < 0 || f > 1 {
		return &OptionsError{Field: "F", Value: f, Reason: "structure/content balance must lie in [0,1] (Eq. 1)"}
	}
	if math.IsNaN(gamma) || gamma < 0 || gamma > 1 {
		return &OptionsError{Field: "Gamma", Value: gamma, Reason: "γ-matching threshold must lie in [0,1] (Eq. 2)"}
	}
	return nil
}

// validateRunOptions checks the execution-shaping options: MaxRounds and
// Workers must not be negative — zero always selects the documented
// default, and negative values used to be accepted silently while
// misbehaving downstream (a negative MaxRounds fell back to the default
// round bound, a negative Workers aliased "one per CPU").
func validateRunOptions(maxRounds, workers int) error {
	if maxRounds < 0 {
		return &OptionsError{Field: "MaxRounds", Value: float64(maxRounds), Reason: "round bound must not be negative; use 0 for the default"}
	}
	if workers < 0 {
		return &OptionsError{Field: "Workers", Value: float64(workers), Reason: "worker count must not be negative; use 0 for one worker per CPU"}
	}
	return nil
}

// ValidateClusterOptions checks a ClusterOptions value against every
// constraint the entry points enforce (K ≥ 1, F and Gamma in [0,1],
// non-negative MaxRounds / Workers), returning a typed
// *OptionsError naming the offending field. Engine.Cluster and
// Engine.Sweep apply exactly this validation; callers that assemble
// options from external input (flags, HTTP requests) can reject bad
// values up front with the same error surface.
func ValidateClusterOptions(opts ClusterOptions) error {
	if err := validateKFGamma(opts.K, opts.F, opts.Gamma); err != nil {
		return err
	}
	return validateRunOptions(opts.MaxRounds, opts.Workers)
}

// Event is one progress notification of a running job: phase changes,
// round boundaries with the peer's local objective and traffic so far, and
// termination. See ClusterOptions.Events.
type Event = core.Event

// EventKind discriminates events.
type EventKind = core.EventKind

// The event kinds delivered to ClusterOptions.Events, and under the fabric
// to DistributedOptions.Events the last three too.
const (
	EventPhaseChange   = core.EventPhaseChange
	EventRoundStart    = core.EventRoundStart
	EventRepsExchanged = core.EventRepsExchanged
	EventRoundEnd      = core.EventRoundEnd
	EventDone          = core.EventDone
	EventCheckpoint    = core.EventCheckpoint
	EventRestore       = core.EventRestore
	EventSuspect       = core.EventSuspect
)

// Cluster runs one clustering job on the engine's corpus. ctx cancels the
// job at its next safe boundary (round boundaries, compute requests and the
// relocation fork-join all observe it) with an error wrapping ErrCanceled;
// a nil ctx never cancels. Progress is streamed through opts.Events when
// set.
//
// For a fixed seed the result is byte-identical to a run on a fresh engine:
// the caches only memoize pure functions of the corpus.
func (e *Engine) Cluster(ctx context.Context, opts ClusterOptions) (*Result, error) {
	if err := ValidateClusterOptions(opts); err != nil {
		return nil, err
	}
	peers := opts.Peers
	if peers <= 0 {
		peers = 1
	}
	cx := e.simContext(sim.Params{F: opts.F, Gamma: opts.Gamma})
	n := len(e.corpus.Transactions)
	var part [][]int
	if opts.UnequalSplit {
		part = core.UnequalPartition(n, peers, opts.Seed)
	} else {
		part = core.EqualPartition(n, peers, opts.Seed)
	}
	// Kernel-counter snapshot for the per-job delta reported in Result.
	// Jobs at the same (F, Gamma) share one context; when such jobs run
	// concurrently (a sweep with K or Peers axes) the deltas attribute the
	// overlap to whichever cell reads last — totals across cells stay exact.
	before := cx.Counters.Snapshot()
	fast := fastRun(opts.IndexReps, opts.DeltaRounds)

	res, err := core.Run(ctx, cx, e.corpus, core.Options{
		K: opts.K, Params: cx.Params, Peers: peers, Partition: part,
		Seed: opts.Seed, MaxRounds: opts.MaxRounds, Workers: opts.Workers,
		Fast: fast, PKMeans: opts.Algorithm == PKMeans, Observer: opts.Events,
	})
	if err != nil {
		return nil, err
	}
	msgs, bytes := res.TotalTraffic()
	return &Result{
		Assign:          res.Assign,
		Reps:            core.Reconflate(e.corpus.Items, res.Items, res.Reps),
		Rounds:          res.Rounds,
		WallTime:        res.WallTime,
		SimulatedTime:   res.SimulatedTime(p2p.DefaultTimeModel()),
		TrafficBytes:    bytes,
		TrafficMsgs:     msgs,
		K:               opts.K,
		CounterSnapshot: cx.Counters.Snapshot().Sub(before),
	}, nil
}

// ClusterDistributed runs ONE peer of a multi-process CXK-means cluster on
// the engine's corpus: it listens on this peer's address, dials the others
// through the shared address table and executes the session engine over the
// real wire. Launch one process per entry of PeerAddrs (see cmd/cxkpeer);
// the coordinator's result carries the assembled corpus-wide assignment.
// ctx cancels the session at its next safe boundary with an error wrapping
// ErrCanceled — the graceful-shutdown path for daemon deployments.
func (e *Engine) ClusterDistributed(ctx context.Context, opts DistributedOptions) (*DistributedResult, error) {
	if err := validateKFGamma(opts.K, opts.F, opts.Gamma); err != nil {
		return nil, err
	}
	// DistributedOptions documents negative RoundTimeout/StartupTimeout as
	// "no deadline", so only the unambiguous fields are range-checked here.
	if err := validateRunOptions(opts.MaxRounds, opts.Workers); err != nil {
		return nil, err
	}
	for _, f := range []struct {
		name  string
		value int64
	}{{"CheckpointEvery", int64(opts.CheckpointEvery)}, {"RecoveryWindows", int64(opts.RecoveryWindows)}, {"FailpointRound", int64(opts.FailpointRound)}, {"DialTimeout", int64(opts.DialTimeout)}} {
		if f.value < 0 {
			return nil, &OptionsError{Field: f.name, Value: float64(f.value), Reason: "must not be negative; use 0 for the default"}
		}
	}
	m := len(opts.PeerAddrs)
	if m == 0 {
		return nil, fmt.Errorf("xmlclust: need at least one peer address")
	}
	if opts.ID < 0 || opts.ID >= m {
		return nil, fmt.Errorf("xmlclust: peer id %d outside [0,%d)", opts.ID, m)
	}
	if opts.CheckpointDir == "" && (opts.Join || opts.Leave != nil || opts.DebugAddr != "" || opts.FailpointRound > 0) {
		return nil, fmt.Errorf("xmlclust: Join/Leave/DebugAddr/FailpointRound need the fabric — set CheckpointDir")
	}
	if opts.ID == 0 && opts.Join {
		return nil, fmt.Errorf("xmlclust: peer 0 cannot join (%w on coordinator death)", ErrCoordinatorLost)
	}
	listen := opts.Listen
	if listen == "" {
		listen = opts.PeerAddrs[opts.ID]
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("xmlclust: listen %s: %w", listen, err)
	}
	node := p2p.NewNode(opts.ID, ln, opts.PeerAddrs, p2p.NodeOptions{DialTimeout: opts.DialTimeout})
	defer node.Close()

	cx := e.simContext(sim.Params{F: opts.F, Gamma: opts.Gamma})
	n := len(e.corpus.Transactions)
	var part [][]int
	if opts.UnequalSplit {
		part = core.UnequalPartition(n, m, opts.Seed)
	} else {
		part = core.EqualPartition(n, m, opts.Seed)
	}
	rt := opts.RoundTimeout
	switch {
	case rt == 0:
		rt = DefaultRoundTimeout
	case rt < 0:
		rt = 0
	}
	st := opts.StartupTimeout
	if st == 0 {
		st = DefaultStartupTimeout
	}
	copts := core.Options{
		K: opts.K, Params: cx.Params, Peers: m, Partition: part,
		Seed: opts.Seed, MaxRounds: opts.MaxRounds, Transport: node,
		Workers: opts.Workers, RoundTimeout: rt, StartupTimeout: st,
		Fast:     fastRun(opts.IndexReps, opts.DeltaRounds),
		Observer: opts.Events,
	}
	// The one digest of this process's corpus: the startup check and the
	// fabric's fingerprint share it.
	start := core.NewStartMsg(cx, e.corpus, copts)
	if opts.CheckpointDir != "" {
		store, err := fabric.NewStore(opts.CheckpointDir)
		if err != nil {
			return nil, err
		}
		copts.Fabric = &core.Fabric{
			Store: store,
			Fingerprint: fabric.ConfigFingerprint(start.K, m, start.F, start.Gamma,
				start.Seed, start.Txns, start.PartitionHash),
			Every: opts.CheckpointEvery, RecoveryWindows: opts.RecoveryWindows, Leave: opts.Leave,
		}
		if opts.FailpointRound > 0 {
			copts.Fabric.Store = failpointStore{store, opts.FailpointRound}
		}
		copts.Rejoin = opts.Join
		metrics := fabric.NewMetrics(node)
		copts.Observer = func(ev core.Event) {
			metrics.Observe(ev)
			if opts.Events != nil {
				opts.Events(ev)
			}
		}
		if opts.DebugAddr != "" {
			dln, err := net.Listen("tcp", opts.DebugAddr)
			if err != nil {
				return nil, fmt.Errorf("xmlclust: debug listener %s: %w", opts.DebugAddr, err)
			}
			handler := http.Handler(metrics.Handler())
			if opts.DebugPprof {
				dm := http.NewServeMux()
				dm.Handle("/debug/pprof/", http.DefaultServeMux)
				dm.Handle("/", handler)
				handler = dm
			}
			srv := &http.Server{Handler: handler}
			go srv.Serve(dln)
			defer srv.Close()
		}
	}
	pres, err := core.RunPeer(ctx, cx, e.corpus, copts, start, opts.ID)
	if err != nil {
		return nil, err
	}
	return &DistributedResult{
		ID:          pres.ID,
		LocalAssign: pres.Assign,
		Assign:      pres.Global,
		Reps:        core.Reconflate(e.corpus.Items, pres.Items, pres.Reps),
		Rounds:      pres.Rounds,
		WallTime:    pres.WallTime,
		RepsDigest:  core.RepsDigest(pres.Items, pres.Reps),
	}, nil
}

// failpointStore wraps the checkpoint store with the FailpointRound chaos
// drill: the first checkpoint at or past the configured round SIGKILLs the
// process before it is written, so recovery must barrier on the previous
// checkpoint exactly as after a genuine mid-round crash.
type failpointStore struct {
	*fabric.Store
	round int
}

func (f failpointStore) Save(slot int, fp uint64, st *core.SessionState) error {
	if st.Round >= f.round {
		proc, err := os.FindProcess(os.Getpid())
		if err == nil {
			err = proc.Kill()
		}
		if err != nil {
			os.Exit(137)
		}
		select {} // SIGKILL is in flight; never reach the checkpoint write
	}
	return f.Store.Save(slot, fp, st)
}

// RepsDigest returns the canonical fingerprint of a representative set over
// a corpus's item table (FNV-1a over each representative's sorted raw item
// ids): equal digests mean byte-identical representatives. It makes an
// in-process Result comparable with DistributedResult.RepsDigest — the
// recovery-equivalence gate digests the reference run with it.
func RepsDigest(c *Corpus, reps []*Transaction) uint64 {
	return core.RepsDigest(c.Items, reps)
}

// SweepSpec describes a grid of clustering jobs over one corpus — the
// paper's Sect. 5 protocol (re-cluster the same data across f, γ, k and
// peer counts). Base supplies every option the axes do not override; an
// empty axis means "keep Base's value". Cells are enumerated
// deterministically with F outermost, then Gamma, K and Peers innermost.
type SweepSpec struct {
	// Base is the job template. Base.Events is ignored — per-cell event
	// streams from concurrently running cells would interleave without a
	// cell identity; use OnCell for sweep progress instead.
	Base ClusterOptions
	// Fs, Gammas, Ks, Peers are the grid axes (empty = Base's value).
	Fs     []float64
	Gammas []float64
	Ks     []int
	Peers  []int
	// Concurrency bounds how many cells run at once (0 = one per CPU,
	// 1 = sequential). Cells share the engine's warm similarity caches
	// either way; results are independent of the schedule.
	Concurrency int
	// OnCell, when non-nil, is invoked once per finished cell, serialized
	// and in no particular cell order (cells finish as they complete).
	OnCell func(SweepCell)
}

// SweepCell is one grid cell's outcome.
type SweepCell struct {
	// Index is the cell's position in the deterministic grid enumeration.
	Index int
	// Options are the fully resolved options the cell ran with.
	Options ClusterOptions
	// Result is the clustering outcome.
	Result *Result
	// Scores holds the Sect. 5.3 validity measures against the corpus
	// ground truth; valid only when Labeled is true.
	Scores Scores
	// Labeled reports whether the corpus carries ground-truth labels.
	Labeled bool
}

// cells enumerates the grid deterministically.
func (s *SweepSpec) cells() []ClusterOptions {
	fs := s.Fs
	if len(fs) == 0 {
		fs = []float64{s.Base.F}
	}
	gammas := s.Gammas
	if len(gammas) == 0 {
		gammas = []float64{s.Base.Gamma}
	}
	ks := s.Ks
	if len(ks) == 0 {
		ks = []int{s.Base.K}
	}
	peers := s.Peers
	if len(peers) == 0 {
		peers = []int{s.Base.Peers}
	}
	out := make([]ClusterOptions, 0, len(fs)*len(gammas)*len(ks)*len(peers))
	for _, f := range fs {
		for _, g := range gammas {
			for _, k := range ks {
				for _, m := range peers {
					opts := s.Base
					opts.F, opts.Gamma, opts.K, opts.Peers = f, g, k, m
					opts.Events = nil
					out = append(out, opts)
				}
			}
		}
	}
	return out
}

// Sweep fans the grid of jobs over the engine with bounded concurrency and
// returns one cell per grid point, in grid order. Every cell runs against
// the engine's shared similarity caches, so after the first cell of each
// (F, Gamma) pair the structural work is warm. The whole grid is validated
// up front (typed OptionsError, no cells run on a bad grid); the first
// failing cell cancels the remainder; cancellation of ctx returns an error
// wrapping ErrCanceled.
func (e *Engine) Sweep(ctx context.Context, spec SweepSpec) ([]SweepCell, error) {
	cells := spec.cells()
	for i, opts := range cells {
		if err := ValidateClusterOptions(opts); err != nil {
			return nil, fmt.Errorf("xmlclust: sweep cell %d: %w", i, err)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	conc := spec.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	if conc > len(cells) {
		conc = len(cells)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		labels  []int
		results = make([]SweepCell, len(cells))
		errs    = make([]error, len(cells))
		sem     = make(chan struct{}, conc)
		onCell  sync.Mutex
		wg      sync.WaitGroup
	)
	if e.labeled {
		labels = Labels(e.corpus)
	}
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if cctx.Err() != nil && ctx.Err() == nil {
				// A sibling cell failed; record the abort without running.
				errs[i] = fmt.Errorf("%w: sweep aborted by failing cell", ErrCanceled)
				return
			}
			res, err := e.Cluster(cctx, cells[i])
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			cell := SweepCell{Index: i, Options: cells[i], Result: res, Labeled: e.labeled}
			if e.labeled {
				cell.Scores = Evaluate(labels, res.Assign, cells[i].K)
			}
			results[i] = cell
			if spec.OnCell != nil {
				onCell.Lock()
				spec.OnCell(cell)
				onCell.Unlock()
			}
		}(i)
	}
	wg.Wait()
	// The parent context's cancellation outranks per-cell failures; then
	// report the lowest-index cell error for determinism.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrCanceled) {
			return nil, fmt.Errorf("xmlclust: sweep cell %d (f=%g γ=%g k=%d m=%d): %w",
				i, cells[i].F, cells[i].Gamma, cells[i].K, cells[i].Peers, err)
		}
	}
	for _, err := range errs { // every remaining error is a cancellation
		if err != nil {
			return nil, fmt.Errorf("xmlclust: sweep: %w", err)
		}
	}
	return results, nil
}

// SweepDuration sums the wall time of a sweep's cells (the cells run
// concurrently, so this is the aggregate compute, not the elapsed time).
func SweepDuration(cells []SweepCell) time.Duration {
	var d time.Duration
	for i := range cells {
		if cells[i].Result != nil {
			d += cells[i].Result.WallTime
		}
	}
	return d
}
