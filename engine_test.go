package xmlclust

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// assertSameResult compares the byte-identity surface of two results:
// assignments, representatives and round count.
func assertSameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.Rounds != got.Rounds {
		t.Errorf("%s: rounds %d vs %d", label, want.Rounds, got.Rounds)
	}
	if len(want.Assign) != len(got.Assign) {
		t.Fatalf("%s: assign length %d vs %d", label, len(want.Assign), len(got.Assign))
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: assignment %d differs: %d vs %d", label, i, want.Assign[i], got.Assign[i])
		}
	}
	if len(want.Reps) != len(got.Reps) {
		t.Fatalf("%s: reps length %d vs %d", label, len(want.Reps), len(got.Reps))
	}
	for j := range want.Reps {
		switch {
		case want.Reps[j] == nil && got.Reps[j] == nil:
		case want.Reps[j] == nil || got.Reps[j] == nil:
			t.Errorf("%s: rep %d nil-ness differs", label, j)
		case !want.Reps[j].Equal(got.Reps[j]):
			t.Errorf("%s: rep %d differs", label, j)
		}
	}
}

// freshEngine returns a throwaway Engine over corpus: what a test that wants
// one job and no shared caches runs it on.
func freshEngine(t testing.TB, corpus *Corpus) *Engine {
	t.Helper()
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineWarmMatchesFresh is the cache-purity contract: a shared Engine —
// including one whose caches are already warm from prior runs with other
// parameters — produces output byte-identical to a fresh Engine's for the
// same options and seed.
func TestEngineWarmMatchesFresh(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the engine's caches with runs at other params first.
	for _, f := range []float64{0.1, 0.9} {
		if _, err := eng.Cluster(context.Background(), ClusterOptions{K: 2, F: f, Gamma: 0.5, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range []ClusterOptions{
		{K: 2, F: 0.5, Gamma: 0.6, Seed: 4},
		{K: 2, F: 0.5, Gamma: 0.6, Peers: 3, Seed: 4},
		{K: 3, F: 0.2, Gamma: 0.7, Peers: 2, Seed: 11, Algorithm: PKMeans},
	} {
		want, err := freshEngine(t, corpus).Cluster(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Cluster(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, got, "warm engine vs fresh")
		// And once more on the now-warmer engine: cache warmth must never
		// leak into results.
		again, err := eng.Cluster(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, again, "second warm run")
	}
	if eng.CachedPathSims() == 0 {
		t.Error("engine accumulated no structural pair similarities")
	}
}

// TestEngineValidation asserts the typed range validation of every entry
// point, including the deprecated wrappers.
func TestEngineValidation(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		field string
		opts  ClusterOptions
	}{
		{"K", ClusterOptions{K: 0, F: 0.5, Gamma: 0.5}},
		{"K", ClusterOptions{K: -3, F: 0.5, Gamma: 0.5}},
		{"F", ClusterOptions{K: 2, F: -0.1, Gamma: 0.5}},
		{"F", ClusterOptions{K: 2, F: 1.1, Gamma: 0.5}},
		{"Gamma", ClusterOptions{K: 2, F: 0.5, Gamma: -0.5}},
		{"Gamma", ClusterOptions{K: 2, F: 0.5, Gamma: 1.5}},
	}
	for _, c := range bad {
		check := func(err error, label string) {
			t.Helper()
			var oe *OptionsError
			if !errors.As(err, &oe) {
				t.Fatalf("%s %+v: want *OptionsError, got %v", label, c.opts, err)
			}
			if oe.Field != c.field {
				t.Errorf("%s %+v: flagged field %s, want %s", label, c.opts, oe.Field, c.field)
			}
		}
		_, err := eng.Cluster(context.Background(), c.opts)
		check(err, "Engine.Cluster")
		_, err = eng.ClusterDistributed(context.Background(), DistributedOptions{
			K: c.opts.K, F: c.opts.F, Gamma: c.opts.Gamma,
			PeerAddrs: []string{"127.0.0.1:0"},
		})
		check(err, "Engine.ClusterDistributed")
		_, err = eng.Sweep(context.Background(), SweepSpec{Base: c.opts})
		check(err, "Engine.Sweep")
	}
	// Boundary values are legal.
	for _, opts := range []ClusterOptions{
		{K: 1, F: 0, Gamma: 0, Seed: 1},
		{K: 1, F: 1, Gamma: 1, Seed: 1},
	} {
		if _, err := eng.Cluster(context.Background(), opts); err != nil {
			t.Errorf("boundary options %+v rejected: %v", opts, err)
		}
	}
}

// TestRunOptionsValidation pins the execution-shaping option checks:
// negative MaxRounds and Workers used to be accepted silently (falling back
// to defaults); every entry point must now reject them with a typed
// *OptionsError naming the field.
func TestRunOptionsValidation(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, err error, field string) {
		t.Helper()
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Fatalf("want *OptionsError for %s, got %v", field, err)
		}
		if oe.Field != field {
			t.Errorf("flagged field %s, want %s", oe.Field, field)
		}
	}
	cases := []struct {
		field string
		opts  ClusterOptions
	}{
		{"MaxRounds", ClusterOptions{K: 2, F: 0.5, Gamma: 0.5, MaxRounds: -1}},
		{"Workers", ClusterOptions{K: 2, F: 0.5, Gamma: 0.5, Workers: -2}},
	}
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			check(t, ValidateClusterOptions(c.opts), c.field)
			_, err := eng.Cluster(context.Background(), c.opts)
			check(t, err, c.field)
			_, err = eng.Sweep(context.Background(), SweepSpec{Base: c.opts})
			check(t, err, c.field)
			_, err = eng.ClusterDistributed(context.Background(), DistributedOptions{
				K: 2, F: 0.5, Gamma: 0.5, PeerAddrs: []string{"127.0.0.1:0"},
				MaxRounds: c.opts.MaxRounds, Workers: c.opts.Workers,
			})
			check(t, err, c.field)
		})
	}
	t.Run("ClassifyWorkers", func(t *testing.T) {
		_, err := eng.ClassifyTransactions(context.Background(), nil, nil,
			ClassifyOptions{F: 0.5, Gamma: 0.5, Workers: -1})
		check(t, err, "Workers")
	})
	t.Run("ClassifyGamma", func(t *testing.T) {
		_, err := eng.ClassifyTransactions(context.Background(), nil, nil,
			ClassifyOptions{F: 0.5, Gamma: 1.5})
		check(t, err, "Gamma")
	})

	// Zero stays the documented default everywhere, and DistributedOptions'
	// negative timeouts remain legal "no deadline" markers (validated
	// before any listener is bound, so a bad peer table still errors).
	if err := ValidateClusterOptions(ClusterOptions{K: 2, F: 0.5, Gamma: 0.5}); err != nil {
		t.Errorf("zero run options rejected: %v", err)
	}
	_, err = eng.ClusterDistributed(context.Background(), DistributedOptions{
		K: 2, F: 0.5, Gamma: 0.5, RoundTimeout: -1, StartupTimeout: -1,
	})
	if err == nil || errors.As(err, new(*OptionsError)) {
		t.Errorf("negative distributed timeouts must stay legal (failed on the empty peer table only): %v", err)
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime helpers) or the deadline expires.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finished goroutines' stacks into reuse
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after cancellation: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEngineCancellation cancels a running job from inside its own event
// stream and asserts the typed error and the absence of goroutine leaks.
func TestEngineCancellation(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = eng.Cluster(ctx, ClusterOptions{
		K: 2, F: 0.5, Gamma: 0.6, Peers: 3, Seed: 4,
		// MaxRounds is high so only cancellation can end the run early;
		// the first round-start event pulls the trigger.
		MaxRounds: DefaultMaxRoundsForTest,
		Events: func(ev Event) {
			if ev.Kind == EventRoundStart {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context.Canceled should stay in the chain, got %v", err)
	}
	waitForGoroutines(t, baseline)

	// A pre-canceled context aborts before any protocol work, for both
	// algorithms and the distributed surface.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	for _, alg := range []Algorithm{CXKMeans, PKMeans} {
		_, err := eng.Cluster(done, ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Peers: 2, Seed: 4, Algorithm: alg})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("algorithm %v: want ErrCanceled, got %v", alg, err)
		}
	}
	_, err = eng.ClusterDistributed(done, DistributedOptions{
		K: 2, F: 0.5, Gamma: 0.6, Seed: 4, ID: 0, PeerAddrs: []string{"127.0.0.1:0"},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("distributed: want ErrCanceled, got %v", err)
	}
	waitForGoroutines(t, baseline)
}

// DefaultMaxRoundsForTest keeps the cancellation run from terminating by
// convergence before the event callback cancels it.
const DefaultMaxRoundsForTest = 1000

// TestEngineEvents asserts the event-stream contract, for both algorithms:
// round events per peer, exactly one trailing run-level Done, and serialized
// callbacks (the slice below is appended to without locking — the race
// detector guards the serialization guarantee).
func TestEngineEvents(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{CXKMeans, PKMeans} {
		var events []Event
		res, err := eng.Cluster(context.Background(), ClusterOptions{
			K: 2, F: 0.5, Gamma: 0.6, Peers: 2, Seed: 4, Algorithm: alg,
			Events: func(ev Event) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatalf("alg %v: no events emitted", alg)
		}
		last := events[len(events)-1]
		if last.Kind != EventDone || last.Peer != -1 {
			t.Errorf("alg %v: last event should be the run-level Done, got kind=%v peer=%d", alg, last.Kind, last.Peer)
		}
		if last.Round != res.Rounds {
			t.Errorf("alg %v: run Done reports %d rounds, result has %d", alg, last.Round, res.Rounds)
		}
		if last.Elapsed <= 0 {
			t.Errorf("alg %v: run Done carries no elapsed time", alg)
		}
		if last.SentMsgs != res.TrafficMsgs || last.SentBytes != res.TrafficBytes {
			t.Errorf("alg %v: run Done traffic (%d msgs/%d B) != result traffic (%d/%d)",
				alg, last.SentMsgs, last.SentBytes, res.TrafficMsgs, res.TrafficBytes)
		}
		counts := map[EventKind]int{}
		peerDone := 0
		for _, ev := range events {
			counts[ev.Kind]++
			if ev.Kind == EventDone && ev.Peer >= 0 {
				peerDone++
			}
			if ev.Peer < -1 || ev.Peer >= 2 {
				t.Errorf("alg %v: event with out-of-range peer %d", alg, ev.Peer)
			}
		}
		for _, kind := range []EventKind{EventRoundStart, EventRoundEnd, EventRepsExchanged} {
			if got := counts[kind]; got != 2*res.Rounds {
				t.Errorf("alg %v: %v count %d, want peers×rounds = %d", alg, kind, got, 2*res.Rounds)
			}
		}
		if counts[EventPhaseChange] == 0 {
			t.Errorf("alg %v: no PhaseChange events", alg)
		}
		if peerDone != 2 {
			t.Errorf("alg %v: peer-level Done count %d, want 2", alg, peerDone)
		}
		// RoundEnd events carry the local objective (strictly positive on
		// this corpus: no peer clusters its slice perfectly in round 1).
		sawObjective := false
		for _, ev := range events {
			if ev.Kind == EventRoundEnd && ev.Objective > 0 {
				sawObjective = true
			}
		}
		if !sawObjective {
			t.Errorf("alg %v: no RoundEnd event carried a positive objective", alg)
		}
	}
}

// TestEngineSweep asserts grid enumeration order, per-cell equivalence with
// individual Engine.Cluster runs, score computation on labeled corpora and
// the OnCell progress callback.
func TestEngineSweep(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{
		Base:        ClusterOptions{K: 2, Seed: 4, Peers: 2},
		Fs:          []float64{0.2, 0.8},
		Gammas:      []float64{0.5, 0.7},
		Concurrency: 2,
	}
	var onCellCount int
	spec.OnCell = func(SweepCell) { onCellCount++ } // serialized by contract
	cells, err := eng.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cell count %d, want 4", len(cells))
	}
	if onCellCount != 4 {
		t.Errorf("OnCell invoked %d times, want 4", onCellCount)
	}
	wantGrid := []struct{ f, g float64 }{{0.2, 0.5}, {0.2, 0.7}, {0.8, 0.5}, {0.8, 0.7}}
	labels := Labels(corpus)
	for i, cell := range cells {
		if cell.Index != i {
			t.Errorf("cell %d carries index %d", i, cell.Index)
		}
		if cell.Options.F != wantGrid[i].f || cell.Options.Gamma != wantGrid[i].g {
			t.Errorf("cell %d = (f=%g, γ=%g), want (%g, %g)",
				i, cell.Options.F, cell.Options.Gamma, wantGrid[i].f, wantGrid[i].g)
		}
		if !cell.Labeled {
			t.Errorf("cell %d not labeled on a labeled corpus", i)
		}
		want, err := eng.Cluster(context.Background(), cell.Options)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, cell.Result, "sweep cell vs direct run")
		if s := Evaluate(labels, want.Assign, cell.Options.K); s != cell.Scores {
			t.Errorf("cell %d scores %+v, want %+v", i, cell.Scores, s)
		}
	}

	// Cancellation propagates out of the sweep as ErrCanceled.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Sweep(done, spec); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled sweep: want ErrCanceled, got %v", err)
	}

	// An unlabeled corpus yields Labeled == false and zero scores.
	var plainTrees []*Tree
	for _, d := range sampleDocs {
		tr, err := ParseString(d)
		if err != nil {
			t.Fatal(err)
		}
		plainTrees = append(plainTrees, tr)
	}
	plain := BuildCorpus(plainTrees, CorpusOptions{})
	eng2, err := NewEngine(plain, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := eng2.Sweep(context.Background(), SweepSpec{Base: ClusterOptions{K: 2, F: 0.5, Gamma: 0.6, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells2) != 1 {
		t.Fatalf("degenerate grid has %d cells, want 1", len(cells2))
	}
	if cells2[0].Labeled || cells2[0].Scores != (Scores{}) {
		t.Errorf("unlabeled corpus produced scores: %+v", cells2[0])
	}
}

// TestEngineSweepWarmCacheGrows asserts the reuse mechanism the sweep is
// built on: the shared structural cache accumulates across cells instead of
// being rebuilt per cell.
func TestEngineSweepWarmCacheGrows(t *testing.T) {
	corpus := sampleCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.CachedPathSims() != 0 {
		t.Fatalf("fresh engine reports %d cached pair sims", eng.CachedPathSims())
	}
	if _, err := eng.Cluster(context.Background(), ClusterOptions{K: 2, F: 0.7, Gamma: 0.6, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	warm := eng.CachedPathSims()
	if warm == 0 {
		t.Fatal("structure-heavy run cached no pair similarities")
	}
	// A second run at different (f, γ) — new context, same shared cache.
	if _, err := eng.Cluster(context.Background(), ClusterOptions{K: 2, F: 0.9, Gamma: 0.8, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if eng.CachedPathSims() < warm {
		t.Errorf("cache shrank across runs: %d → %d", warm, eng.CachedPathSims())
	}
}

// TestNewEngineNilCorpus pins the constructor's validation.
func TestNewEngineNilCorpus(t *testing.T) {
	if _, err := NewEngine(nil, EngineOptions{}); err == nil {
		t.Fatal("nil corpus should fail")
	}
}
