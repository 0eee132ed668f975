package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xmlclust"
	"xmlclust/internal/sim"
)

const collabPeers = 3

// collabTCP3 is the multi-process job run inside one process: three peers,
// each loading a private copy of a saved corpus into a private Engine and
// running Engine.ClusterDistributed over loopback TCP — the cxkpeer path.
type collabTCP3 struct {
	sz     sizes
	tmpDir string // checkpoints of the traced run go under here

	ds   docSet
	gob  []byte // the corpus as SaveCorpus wrote it: what every peer loads
	seed int64

	corpora []*xmlclust.Corpus
	results []*xmlclust.DistributedResult
}

func (w *collabTCP3) Setup(seed int64) error {
	ds, err := generate([]part{{"DBLP", w.sz.collabDocs}}, seed)
	if err != nil {
		return err
	}
	archive, err := ds.tar()
	if err != nil {
		return err
	}
	c, err := ingest(archive, ds.labels, 0)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := xmlclust.SaveCorpus(&buf, c); err != nil {
		return err
	}
	w.ds, w.gob, w.seed = ds, buf.Bytes(), seed
	return nil
}

// portCursor walks the ports below the kernel's ephemeral range. The peers'
// outgoing connections draw their source ports from that range, so a
// listen port reserved inside it could be taken before its peer listens.
var portCursor = 20000 + os.Getpid()%1000*10

// reservePorts returns n loopback addresses that nothing listens on.
func reservePorts(n int) ([]string, error) {
	var addrs []string
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 1000 {
			return nil, fmt.Errorf("no free loopback port found")
		}
		addr := fmt.Sprintf("127.0.0.1:%d", portCursor)
		if portCursor++; portCursor >= 32000 {
			portCursor = 20000
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// run executes one three-peer job. events, when non-nil, receives every
// peer's progress events; checkpointDir, when non-empty, turns the fabric
// on with a checkpoint at every round.
func (w *collabTCP3) run(events func(xmlclust.Event), checkpointDir string) ([]*xmlclust.Corpus, []*xmlclust.DistributedResult, error) {
	addrs, err := reservePorts(collabPeers)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	corpora := make([]*xmlclust.Corpus, collabPeers)
	results := make([]*xmlclust.DistributedResult, collabPeers)
	errs := make([]error, collabPeers)
	var wg sync.WaitGroup
	for id := 0; id < collabPeers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = func() error {
				c, err := xmlclust.LoadCorpus(bytes.NewReader(w.gob))
				if err != nil {
					return err
				}
				eng, err := xmlclust.NewEngine(c, xmlclust.EngineOptions{})
				if err != nil {
					return err
				}
				opts := xmlclust.DistributedOptions{
					K: 16, F: benchF, Gamma: benchGamma, ID: id, PeerAddrs: addrs,
					Workers: 1, Seed: w.seed, MaxRounds: w.sz.collabRounds,
					RoundTimeout: 30 * time.Second, Events: events,
				}
				if checkpointDir != "" {
					opts.CheckpointDir = filepath.Join(checkpointDir, fmt.Sprintf("peer%d", id))
					opts.CheckpointEvery = 1
				}
				corpora[id] = c
				results[id], err = eng.ClusterDistributed(ctx, opts)
				return err
			}()
			if errs[id] != nil {
				cancel() // the other peers would wait for this one until their round deadline
			}
		}()
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("peer %d: %w", id, err)
		}
	}
	return corpora, results, nil
}

func (w *collabTCP3) Job() (int, int, error) {
	var err error
	w.corpora, w.results, err = w.run(nil, "")
	return 1, 0, err
}

func (w *collabTCP3) Digest() uint64 {
	return digestInts(w.results[0].Assign) ^ w.results[0].RepsDigest
}

func (w *collabTCP3) Check(full bool) error {
	coord := w.results[0]
	// A run that converged ends with every peer holding the same global
	// representatives; one cut off by MaxRounds ends after a refinement
	// whose results were never broadcast, so only the former can be held
	// to agreement.
	converged := coord.Rounds < w.sz.collabRounds
	for id, r := range w.results {
		if converged && r.RepsDigest != coord.RepsDigest {
			return fmt.Errorf("peer %d ended on representatives %016x, the coordinator on %016x", id, r.RepsDigest, coord.RepsDigest)
		}
	}
	if err := checkAssignment(w.corpora[0], coord.Assign, 16, coord.Rounds, w.sz.collabRounds); err != nil {
		return err
	}
	if !full {
		return nil
	}
	// The wire changes nothing: an in-process run of three peers over the
	// same saved corpus gives the same assignment and representatives.
	c, err := xmlclust.LoadCorpus(bytes.NewReader(w.gob))
	if err != nil {
		return err
	}
	eng, err := xmlclust.NewEngine(c, xmlclust.EngineOptions{})
	if err != nil {
		return err
	}
	ref, err := eng.Cluster(context.Background(), w.inProcess(xmlclust.CXKMeans))
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	if i := sameInts(coord.Assign, ref.Assign); i >= 0 {
		return fmt.Errorf("the coordinator and the in-process run disagree at transaction %d", i)
	}
	if d := xmlclust.RepsDigest(c, ref.Reps); d != coord.RepsDigest {
		return fmt.Errorf("the coordinator and the in-process run disagree on the representatives (%016x vs %016x)", coord.RepsDigest, d)
	}
	return nil
}

// inProcess returns the options of the in-process three-peer run that
// matches the distributed job.
func (w *collabTCP3) inProcess(alg xmlclust.Algorithm) xmlclust.ClusterOptions {
	return xmlclust.ClusterOptions{
		K: 16, F: benchF, Gamma: benchGamma, Peers: collabPeers, Workers: 1,
		Seed: w.seed, MaxRounds: w.sz.collabRounds, Algorithm: alg,
	}
}

func (w *collabTCP3) Close() {}

func (w *collabTCP3) Layers(tr *tracer, root int, m *metricSet, seed int64) error {
	var err error
	tr.timed(root, "bench", "setup", func() { err = w.Setup(seed) })
	if err != nil {
		return err
	}
	// job times probeRuns jobs; with a checkpoint root, each of them
	// checkpoints every round into a directory of its own under it.
	job := func(name, checkpointRoot string) (time.Duration, error) {
		var err error
		d := tr.median(root, "engine", name, func() {
			dir := ""
			if err == nil && checkpointRoot != "" {
				dir, err = os.MkdirTemp(checkpointRoot, "job-")
			}
			if err == nil {
				_, _, err = w.run(nil, dir)
			}
		})
		return d, err
	}
	plain, err := job("job untraced", "")
	if err != nil {
		return err
	}

	// The traced jobs; the last one's phases and state feed what follows.
	pt, traced, err := traceJobs(tr, root, collabPeers, func(events func(xmlclust.Event)) error {
		var err error
		w.corpora, w.results, err = w.run(events, "")
		return err
	})
	if err != nil {
		return err
	}
	if err := w.Check(true); err != nil {
		return err
	}
	coord, c := w.results[0], w.corpora[0]
	m.set("f_measure", xmlclust.Evaluate(xmlclust.Labels(c), coord.Assign, 16).FMeasure)
	reportPhases(m, pt)
	sum := pt.totals()
	m.set("core.traffic_bytes", float64(sum.SentBytes))
	m.set("core.traffic_msgs", float64(sum.SentMsgs))
	m.set("core.delta_rep_bytes_saved", float64(sum.DeltaRepBytes))
	m.set("core.trace_overhead_frac", traced.Seconds()/plain.Seconds()-1)
	reportCounters(m, sum.DocsSkipped, sum.RepsReused, sum.IndexSkipped, sum.IndexCandidates, sum.PrunedRows)

	// The same jobs with a checkpoint at every round, against the plain ones.
	if err := os.MkdirAll(w.tmpDir, 0o755); err != nil {
		return err
	}
	ckpt, err := os.MkdirTemp(w.tmpDir, "checkpoints-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckpt)
	withCkpt, err := job("job with checkpoints", ckpt)
	if err != nil {
		return err
	}
	var ckptBytes int64
	err = filepath.WalkDir(ckpt, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		ckptBytes += info.Size()
		return err
	})
	if err != nil {
		return err
	}
	m.set("fabric.checkpoint_overhead_frac", withCkpt.Seconds()/plain.Seconds()-1)
	m.set("fabric.checkpoint_bytes_per_round", float64(ckptBytes)/float64(probeRuns*coord.Rounds))

	// The PK-means baseline on the same corpus and peers: the third copy
	// of the round loop.
	eng, err := xmlclust.NewEngine(c, xmlclust.EngineOptions{})
	if err != nil {
		return err
	}
	var pk *xmlclust.Result
	d := tr.timed(root, "pkmeans", "job", func() {
		pk, err = eng.Cluster(context.Background(), w.inProcess(xmlclust.PKMeans))
	})
	if err != nil {
		return fmt.Errorf("pkmeans: %w", err)
	}
	m.set("pkmeans.job_s", d.Seconds())
	m.set("pkmeans.rounds", float64(pk.Rounds))

	if err := frameProbe(tr, root, m, w.sz.frameRoundtrips, w.sz.frameBigSends); err != nil {
		return err
	}
	if _, err := ingestStages(tr, root, m, w.ds); err != nil {
		return err
	}
	p := sim.Params{F: benchF, Gamma: benchGamma}
	kernelProbe(tr, root, m, c, p, w.sz.kernelPairs, seed)
	return assignmentProbe(tr, root, m, c, p, coord.Reps, coord.Assign)
}
