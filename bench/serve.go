package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"xmlclust"
	"xmlclust/internal/serve"
	"xmlclust/internal/sim"
)

// serveClients is the number of HTTP connections the load generator keeps:
// one per CPU of the box the bounds were measured on.
const serveClients = 2

type opKind int

const (
	opClassify opKind = iota // POST /v1/classify, 60 %
	opAdd                    // POST /v1/documents, 25 %
	opQuery                  // GET /v1/clusters/{id}, 10 %
	opGet                    // GET /v1/documents/{id}, 5 %
)

// op is one prepared HTTP request of the mix.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
}

// serveMixed is the online workload: a service seeded with clustered
// documents answers a mix of reads and writes over loopback HTTP. The
// timed job is a closed loop — serveClients callers that each wait for
// their reply — over a fixed batch of operations; the traced run adds an
// open loop at a fixed rate, where independent clients are the right model
// and latency counts from each operation's due time.
type serveMixed struct {
	sz sizes

	ds        docSet
	ops       []op // the closed-loop batch
	adds      int  // how many of ops add a document
	next      int  // first document of ds no operation has used yet
	rng       *rand.Rand
	refDigest uint64 // the assignment after the seeding refresh

	svc           *serve.Service
	server        *httptest.Server
	client        *http.Client
	refreshRounds atomic.Int64 // rounds of the last refresh, set from its Done event
}

func (w *serveMixed) Setup(seed int64) error { return w.setup(seed, 0) }

// setup seeds a fresh service and prepares the closed-loop batch; spare is
// how many further documents to generate for the traced run's extra phases.
func (w *serveMixed) setup(seed int64, spare int) error {
	w.Close()
	ds, err := generate([]part{{"DBLP", w.sz.serveDocs + w.sz.serveOps + spare}}, seed)
	if err != nil {
		return err
	}
	w.ds, w.next, w.rng = ds, w.sz.serveDocs, rand.New(rand.NewSource(seed))
	w.svc, err = serve.NewService(serve.Config{
		K: 16, F: benchF, Gamma: benchGamma, Seed: seed, MaxRounds: w.sz.serveRounds,
		DriftThreshold: 2, // no refresh but the ones the harness asks for
		Events: func(ev xmlclust.Event) {
			if ev.Kind == xmlclust.EventDone && ev.Peer < 0 {
				w.refreshRounds.Store(int64(ev.Round))
			}
		},
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i := 0; i < w.sz.serveDocs; i++ {
		if _, err := w.svc.AddDocument(ctx, ds.names[i], ds.raws[i], ds.labels[i]); err != nil {
			return fmt.Errorf("seed document %d: %w", i, err)
		}
	}
	if err := w.svc.Refresh(ctx); err != nil {
		return fmt.Errorf("seeding refresh: %w", err)
	}
	w.refDigest = digestInts(w.svc.Assignment())
	w.server = httptest.NewServer(serve.NewHandler(w.svc))
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}}
	w.ops = w.schedule(w.sz.serveOps)
	w.adds = 0
	for _, o := range w.ops {
		if o.kind == opAdd {
			w.adds++
		}
	}
	return nil
}

// schedule draws n operations of the mix. Classify and add each take a
// document no earlier operation has seen; the reads address the seeded
// documents and the k clusters.
func (w *serveMixed) schedule(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		switch r := w.rng.Intn(100); {
		case r < 60:
			body, _ := json.Marshal(map[string]any{"xml": string(w.ds.raws[w.next])})
			ops[i] = op{opClassify, http.MethodPost, "/v1/classify", body}
			w.next++
		case r < 85:
			body, _ := json.Marshal(map[string]any{"name": w.ds.names[w.next], "xml": string(w.ds.raws[w.next]), "label": w.ds.labels[w.next]})
			ops[i] = op{opAdd, http.MethodPost, "/v1/documents", body}
			w.next++
		case r < 95:
			ops[i] = op{opQuery, http.MethodGet, fmt.Sprintf("/v1/clusters/%d", w.rng.Intn(16)), nil}
		default:
			ops[i] = op{opGet, http.MethodGet, fmt.Sprintf("/v1/documents/%d", w.rng.Intn(w.sz.serveDocs)), nil}
		}
	}
	return ops
}

// do sends one operation and reports whether it got a 2xx reply.
func (w *serveMixed) do(o op) bool {
	req, err := http.NewRequest(o.method, w.server.URL+o.path, bytes.NewReader(o.body))
	if err != nil {
		return false
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode/100 == 2
}

// closedLoop runs ops through serveClients callers, each sending its next
// operation when the previous one has been answered.
func (w *serveMixed) closedLoop(ops []op) (failed int) {
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				if !w.do(ops[i]) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}

func (w *serveMixed) Job() (int, int, error) {
	return len(w.ops), w.closedLoop(w.ops), nil
}

func (w *serveMixed) Digest() uint64 { return w.refDigest }

func (w *serveMixed) Check(bool) error {
	if got, want := w.svc.Stats().LiveDocs, w.sz.serveDocs+w.adds; got != want {
		return fmt.Errorf("the service holds %d live documents after the batch, want %d", got, want)
	}
	return nil
}

func (w *serveMixed) Close() {
	if w.server != nil {
		w.server.Close()
		w.client.CloseIdleConnections()
		w.server = nil
	}
}

// openLoop sends ops at rate operations per second over serveClients
// connections regardless of how fast replies come, and times each from the
// moment it was due. Operations due in the first warm are run but not
// recorded. It returns the latencies in ms per kind, how late the latest
// operation started, and how many failed.
func (w *serveMixed) openLoop(ops []op, rate int, warm time.Duration) (lat map[opKind][]float64, lateMaxMS float64, failed int) {
	type sample struct {
		kind     opKind
		ms, late float64
		ok, keep bool
	}
	samples := make([]sample, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(ops); i += serveClients {
				offset := time.Duration(float64(i) / float64(rate) * float64(time.Second))
				due := start.Add(offset)
				time.Sleep(time.Until(due))
				began := time.Now()
				ok := w.do(ops[i])
				samples[i] = sample{
					kind: ops[i].kind, ok: ok, keep: offset >= warm,
					ms:   float64(time.Since(due)) / 1e6,
					late: float64(began.Sub(due)) / 1e6,
				}
			}
		}()
	}
	wg.Wait()
	lat = map[opKind][]float64{}
	for _, s := range samples {
		if !s.ok {
			failed++
		}
		if s.keep {
			lat[s.kind] = append(lat[s.kind], s.ms)
			lateMaxMS = max(lateMaxMS, s.late)
		}
	}
	return lat, lateMaxMS, failed
}

func (w *serveMixed) Layers(tr *tracer, root int, m *metricSet, seed int64) error {
	openOps := int(float64(w.sz.openRate) * (w.sz.openWarmS + w.sz.openMeasureS))
	var err error
	tr.timed(root, "bench", "setup", func() { err = w.setup(seed, openOps+2*w.sz.directCalls) })
	if err != nil {
		return err
	}
	if err := w.onlineProbes(tr, root, m, openOps); err != nil {
		return err
	}
	return w.refreshProbe(tr, root, m, seed)
}

// onlineProbes measures the service between refreshes: direct calls, the
// open loop, the closed loop and one maintenance round.
func (w *serveMixed) onlineProbes(tr *tracer, root int, m *metricSet, openOps int) error {
	ctx := context.Background()

	// Direct Service calls: what a request costs without HTTP.
	direct := func(name string, call func(i int) error) (float64, error) {
		us := make([]float64, w.sz.directCalls)
		var err error
		tr.timed(root, "serve", name, func() {
			for i := range us {
				t0 := time.Now()
				if err = call(w.next); err != nil {
					return
				}
				us[i] = float64(time.Since(t0)) / 1e3
				w.next++
			}
		})
		return median(us), err
	}
	classifyUS, err := direct("classify direct", func(i int) error {
		_, err := w.svc.Classify(ctx, w.ds.raws[i])
		return err
	})
	if err != nil {
		return err
	}
	addUS, err := direct("add direct", func(i int) error {
		_, err := w.svc.AddDocument(ctx, w.ds.names[i], w.ds.raws[i], w.ds.labels[i])
		return err
	})
	if err != nil {
		return err
	}
	m.set("serve.classify_direct_us", classifyUS)
	m.set("serve.add_direct_us", addUS)

	var lat map[opKind][]float64
	var lateMax float64
	failed := 0
	open := w.schedule(openOps)
	tr.timed(root, "serve", "open loop", func() {
		lat, lateMax, failed = w.openLoop(open, w.sz.openRate, time.Duration(w.sz.openWarmS*float64(time.Second)))
	})
	m.set("classify_p50_ms", quantile(lat[opClassify], 0.5))
	m.set("classify_p95_ms", quantile(lat[opClassify], 0.95))
	m.set("serve.classify_p99_ms", quantile(lat[opClassify], 0.99))
	m.set("add_p50_ms", quantile(lat[opAdd], 0.5))
	m.set("add_p95_ms", quantile(lat[opAdd], 0.95))
	m.set("serve.add_p99_ms", quantile(lat[opAdd], 0.99))
	m.set("serve.query_p50_ms", quantile(lat[opQuery], 0.5))
	m.set("serve.get_p50_ms", quantile(lat[opGet], 0.5))
	m.set("serve.open_loop_samples", float64(len(lat[opClassify])+len(lat[opAdd])+len(lat[opQuery])+len(lat[opGet])))
	m.set("serve.gen_late_max_ms", lateMax)
	m.set("serve.http_overhead_us", quantile(lat[opClassify], 0.5)*1e3-classifyUS)

	d := tr.timed(root, "serve", "closed loop", func() { failed += w.closedLoop(w.ops) })
	m.set("serve_ops_per_s", float64(len(w.ops))/d.Seconds())
	if failed > 0 {
		return fmt.Errorf("%d operations did not get a 2xx reply", failed)
	}

	// Re-relocating the documents the writes above left dirty, no refresh.
	m.ms("serve.maintenance_ms", tr.timed(root, "serve", "maintenance", func() { _, err = w.svc.MaintenanceRound(ctx) }))
	return err
}

// refreshProbe times one forced refresh, checks its outcome against a
// from-scratch job, and runs the layer probes on that job's state.
func (w *serveMixed) refreshProbe(tr *tracer, root int, m *metricSet, seed int64) error {
	// One forced refresh: it holds the write lock, so for this long the
	// service answers no one.
	refresh := op{method: http.MethodPost, path: "/v1/refresh"}
	ok := false
	stall := tr.timed(root, "serve", "refresh", func() { ok = w.do(refresh) })
	if !ok {
		return fmt.Errorf("POST /v1/refresh did not get a 2xx reply")
	}
	m.set("refresh_stall_s", stall.Seconds())
	m.set("serve.refresh_rounds", float64(w.refreshRounds.Load()))

	// After the refresh the service must hold exactly what a from-scratch
	// job over the same live documents, in add order, computes.
	at := map[string]int{}
	for i, name := range w.ds.names {
		at[name] = i
	}
	var live docSet
	var trees []*xmlclust.Tree
	for _, info := range w.svc.Documents() {
		i := at[info.Name]
		t, err := xmlclust.ParseString(string(w.ds.raws[i]))
		if err != nil {
			return err
		}
		t.Name = info.Name
		trees = append(trees, t)
		live.names = append(live.names, info.Name)
		live.raws = append(live.raws, w.ds.raws[i])
		live.labels = append(live.labels, info.Label)
	}
	c := xmlclust.BuildCorpus(trees, xmlclust.CorpusOptions{Labels: live.labels})
	eng, err := xmlclust.NewEngine(c, xmlclust.EngineOptions{})
	if err != nil {
		return err
	}
	var res *xmlclust.Result
	tr.timed(root, "engine", "from-scratch reference job", func() {
		res, err = eng.Cluster(context.Background(), xmlclust.ClusterOptions{
			K: 16, F: benchF, Gamma: benchGamma, Seed: seed, MaxRounds: w.sz.serveRounds,
		})
	})
	if err != nil {
		return err
	}
	if i := sameInts(w.svc.Assignment(), res.Assign); i >= 0 {
		return fmt.Errorf("after the refresh the service and a from-scratch job disagree at transaction %d", i)
	}
	if err := checkAssignment(c, res.Assign, 16, res.Rounds, w.sz.serveRounds); err != nil {
		return err
	}
	m.set("f_measure", xmlclust.Evaluate(xmlclust.Labels(c), res.Assign, 16).FMeasure)
	m.set("core.rounds", float64(res.Rounds))
	reportCounters(m, res.DocsSkipped, res.RepsReused, res.IndexSkipped, res.IndexCandidates, res.PrunedRows)
	m.set("sim.pathcache_entries", float64(eng.CachedPathSims()))

	if _, err := ingestStages(tr, root, m, live); err != nil {
		return err
	}
	p := sim.Params{F: benchF, Gamma: benchGamma}
	kernelProbe(tr, root, m, c, p, w.sz.kernelPairs, seed)
	return assignmentProbe(tr, root, m, c, p, res.Reps, res.Assign)
}
