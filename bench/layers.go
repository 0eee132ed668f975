package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/corpus"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// This file holds the layer probes of the traced run: each drives one
// layer's public functions from the harness, on the documents or on state
// captured from the workload's own run, inside spans named after the layer.

// ingestStages drives the ingest path one stage at a time — parse, tuple
// extraction, transaction building with interning, weighting, persistence —
// and returns the corpus it built.
func ingestStages(tr *tracer, parent int, m *metricSet, ds docSet) (*txn.Corpus, error) {
	trees := make([]*xmltree.Tree, len(ds.raws))
	var parseErr error
	d := tr.median(parent, "xmltree", "parse", func() {
		for i, raw := range ds.raws {
			t, err := xmltree.Parse(bytes.NewReader(raw), xmltree.DefaultParseOptions())
			if err != nil {
				parseErr = fmt.Errorf("parse %s: %w", ds.names[i], err)
				return
			}
			t.Name = ds.names[i]
			trees[i] = t
		}
	})
	if parseErr != nil {
		return nil, parseErr
	}
	m.ms("xmltree.parse_ms", d)
	m.set("xmltree.parse_mb_per_s", float64(ds.bytes())/(1<<20)/d.Seconds())
	m.set("xmltree.docs", float64(len(trees)))

	results := make([]tuple.Result, len(trees))
	var tuples, truncated int
	d = tr.median(parent, "tuple", "extract", func() {
		tuples, truncated = 0, 0
		for i, t := range trees {
			results[i] = tuple.Extract(t, tuple.Options{})
			tuples += len(results[i].Tuples)
			if results[i].Truncated {
				truncated++
			}
		}
	})
	m.ms("tuple.extract_ms", d)
	m.set("tuple.tuples", float64(tuples))
	m.set("tuple.truncated", float64(truncated))

	b := txn.NewBuilder(txn.BuildOptions{})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)
	var c *txn.Corpus
	d = tr.timed(parent, "txn", "build", func() {
		for i, t := range trees {
			b.AddExtracted(t, results[i], ds.labels[i])
		}
		c = b.Finish()
	})
	m.ms("txn.build_ms", d)
	m.set("txn.items", float64(c.Items.Len()))
	m.set("txn.transactions", float64(len(c.Transactions)))

	m.ms("weighting.finalize_ms", tr.timed(parent, "weighting", "finalize", func() { acc.Finalize() }))

	var gob bytes.Buffer
	var err error
	save := tr.timed(parent, "txn", "save", func() { err = c.Save(&gob) })
	if err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	m.ms("txn.save_ms", save)
	m.set("txn.gob_bytes", float64(gob.Len()))
	load := tr.timed(parent, "txn", "load", func() { _, err = txn.Load(bytes.NewReader(gob.Bytes())) })
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	m.ms("txn.load_ms", load)
	m.set("persist_roundtrip_s", (save + load).Seconds())
	return c, nil
}

// pipelineProbe runs the streaming ingest pipeline over the archive at one
// worker and at one worker per CPU.
func pipelineProbe(tr *tracer, parent int, m *metricSet, archive []byte, labels []int) error {
	build := func(workers int) (time.Duration, corpus.Stats, error) {
		var stats corpus.Stats
		var err error
		d := tr.timed(parent, "corpus", fmt.Sprintf("build w%d", workers), func() {
			var src corpus.Source
			if src, err = corpus.Tar(bytes.NewReader(archive), "bench.tar"); err != nil {
				return
			}
			_, stats, err = corpus.Build(src, corpus.Options{Labels: labels, Workers: workers})
		})
		return d, stats, err
	}
	d1, _, err := build(1)
	if err != nil {
		return err
	}
	dn, stats, err := build(runtime.NumCPU())
	if err != nil {
		return err
	}
	m.ms("corpus.build_ms_w1", d1)
	m.ms("corpus.build_ms_wN", dn)
	m.set("corpus.parallel_speedup", d1.Seconds()/dn.Seconds())
	m.set("corpus.peak_queued", float64(stats.PeakQueuedTrees))
	m.set("ingest_docs_per_s", float64(stats.Docs)/dn.Seconds())
	return nil
}

// engineContext builds a similarity context the way an Engine does for a
// job: a path cache of its own and the item-pair memo at its default size.
func engineContext(c *txn.Corpus, p sim.Params) *sim.Context {
	cx := sim.NewContext(c, p)
	cx.ItemCache = sim.NewItemSimCache(sim.DefaultItemCachePairs)
	return cx
}

// kernelProbe times the Eq. 4 kernel over a fixed sampled stream of
// transaction pairs: first on cold caches, then warm.
func kernelProbe(tr *tracer, parent int, m *metricSet, c *txn.Corpus, p sim.Params, pairs int, seed int64) {
	trs := c.Transactions
	if len(trs) < 2 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	stream := make([][2]int, pairs)
	for i := range stream {
		stream[i] = [2]int{rng.Intn(len(trs)), rng.Intn(len(trs))}
	}
	cx, sc := engineContext(c, p), sim.NewScratch()
	var sink float64
	pass := func() {
		for _, ab := range stream {
			sink += cx.Transactions(trs[ab[0]], trs[ab[1]], sc)
		}
	}
	m.set("sim.kernel_cold_ns", float64(tr.timed(parent, "sim", "kernel cold", pass).Nanoseconds())/float64(pairs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm := tr.median(parent, "sim", "kernel warm", pass)
	runtime.ReadMemStats(&after)
	m.set("sim.kernel_warm_ns", float64(warm.Nanoseconds())/float64(pairs))
	m.set("sim.kernel_allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(probeRuns*pairs))
	_ = sink
}

// assignmentProbe times the assignment half of a round on the final state
// of a run: building the representative index, one relocation pass of every
// transaction (indexed at one worker and at one per CPU, and flat), and the
// two representative computations over the final clustering.
func assignmentProbe(tr *tracer, parent int, m *metricSet, c *txn.Corpus, p sim.Params, reps []*txn.Transaction, assign []int) error {
	trs := c.Transactions[:len(assign)]
	cx := engineContext(c, p)
	ctx := context.Background()

	ix := sim.NewRepIndex()
	const builds = 20
	d := tr.timed(parent, "sim", "repindex build", func() {
		for i := 0; i < builds; i++ {
			ix.Build(cx, reps)
		}
	})
	m.set("sim.repindex_build_us", float64(d.Microseconds())/builds)
	m.set("sim.repindex_entries", float64(ix.Entries()))
	if ix.Enabled() {
		rq, candidates := sim.NewRepQuery(), 0
		tr.timed(parent, "sim", "repindex candidates", func() {
			for _, t := range trs {
				candidates += ix.Candidates(t, rq)
			}
		})
		m.set("sim.index_candidates_per_doc", float64(candidates)/float64(len(trs)))
	}

	var err error
	relocate := func(name string, workers int, ix *sim.RepIndex) time.Duration {
		return tr.median(parent, "cluster", name, func() {
			if err == nil {
				_, err = cluster.RelocateCtxIndexed(ctx, cx, trs, reps, workers, ix)
			}
		})
	}
	relocate("relocate warm-up", 0, ix) // fills cx's caches: the passes below compare like with like
	w1 := relocate("relocate w1", 1, ix)
	wn := relocate("relocate wN", 0, ix)
	flat := relocate("relocate flat", 0, nil)
	if err != nil {
		return fmt.Errorf("relocate: %w", err)
	}
	m.ms("cluster.relocate_pass_ms_w1", w1)
	m.ms("cluster.relocate_pass_ms_wN", wn)
	m.set("cluster.relocate_parallel_speedup", w1.Seconds()/wn.Seconds())
	m.ms("cluster.relocate_flat_pass_ms", flat)

	members := make([][]*txn.Transaction, len(reps))
	for i, j := range assign {
		if j >= 0 && j < len(members) {
			members[j] = append(members[j], trs[i])
		}
	}
	cfg := cluster.RepConfig{Ctx: cx}
	locals := make([]*txn.Transaction, len(reps))
	m.ms("cluster.local_rep_ms", tr.median(parent, "cluster", "local representatives", func() {
		for j, mem := range members {
			if len(mem) > 0 {
				locals[j] = cluster.ComputeLocalRepresentative(cfg, mem)
			}
		}
	}))
	// The global merge of a cluster takes one weighted local representative
	// per peer; the probe feeds it the local one three times, as three
	// peers that agree would.
	m.ms("cluster.global_rep_ms", tr.median(parent, "cluster", "global representatives", func() {
		for j, l := range locals {
			if l != nil {
				w := cluster.WeightedRep{Rep: l, Weight: len(members[j])}
				cluster.ComputeGlobalRepresentative(cfg, []cluster.WeightedRep{w, w, w})
			}
		}
	}))
	return nil
}

// framePayload is what the p2p probe puts on the wire.
type framePayload struct{ Data []byte }

func init() { p2p.RegisterWireType(framePayload{}) }

// frameProbe bounces frames between two Nodes on loopback: small ones, the
// size of a wire representative, for the round-trip time, and 1 MB ones for
// the throughput.
func frameProbe(tr *tracer, parent int, m *metricSet, roundtrips, bigSends int) error {
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	a := p2p.NewNode(0, lns[0], addrs, p2p.NodeOptions{})
	defer a.Close()
	b := p2p.NewNode(1, lns[1], addrs, p2p.NodeOptions{})
	defer b.Close()

	// b answers every frame with an empty one until the probe is over.
	echoErr := make(chan error, 1)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-b.Recv(1):
				if err := b.Send(1, 0, framePayload{}); err != nil {
					echoErr <- err
					return
				}
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-stopped
	}()
	bounce := func(payload framePayload) error {
		if err := a.Send(0, 1, payload); err != nil {
			return err
		}
		select {
		case <-a.Recv(0):
			return nil
		case err := <-echoErr:
			return fmt.Errorf("p2p probe: echo: %w", err)
		}
	}
	var err error
	run := func(name string, n int, payload framePayload) time.Duration {
		return tr.timed(parent, "p2p", name, func() {
			for i := 0; i < n && err == nil; i++ {
				err = bounce(payload)
			}
		})
	}
	run("dial", 1, framePayload{}) // the first frame pays both dials
	small := run("small frames", roundtrips, framePayload{Data: make([]byte, 2<<10)})
	big := run("1 MB frames", bigSends, framePayload{Data: make([]byte, 1<<20)})
	if err != nil {
		return err
	}
	m.set("p2p.frame_roundtrip_us", float64(small.Microseconds())/float64(roundtrips))
	m.set("p2p.frame_mb_per_s", float64(bigSends)/big.Seconds())
	return nil
}
