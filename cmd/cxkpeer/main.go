// Command cxkpeer runs ONE CXK-means peer as its own OS process, so a
// cluster of m machines (or m processes on one machine) executes the
// collaborative protocol over real TCP.
//
// Usage:
//
//	cxkpeer -id 0 -peers host0:9000,host1:9000,host2:9000 -corpus corpus.cxk -k 8
//
// Every process must be started with the same -peers table, -corpus data
// and clustering flags (-k -f -gamma -seed -maxrounds -unequal): the data
// partition and per-peer seeds are derived deterministically from them, so
// the process cluster reproduces the in-process engine byte-identically.
//
// Peer 0 is the coordinator: it plays node N0 (startup broadcast), collects
// every peer's final assignment and prints the corpus-wide result to stdout
// as "transaction<TAB>cluster" lines (cluster −1 is the trash cluster).
// -corpus accepts either the file produced by `cxkcluster -save` (preprocess
// once, ship the file to every peer) or raw data — a directory walked
// recursively for *.xml, a tar/tar.gz archive, or a single XML file —
// which every peer ingests through the streaming pipeline; identical input
// yields identical corpora on every peer, so no separate preprocessing
// step is required.
//
// Every peer digests its own corpus (transaction items, complete paths and
// answer text) into the startup message; a peer whose corpus differs from
// the coordinator's fails at startup with a configuration mismatch instead
// of clustering other data. Corpora never travel between peers.
//
// -checkpoint-dir enables the elastic peer fabric: round-boundary
// checkpoints (cadence -checkpoint-every) persisted locally and replicated
// to the coordinator, so the session survives peer loss. A lost peer's slot
// is retaken by a process started with -join, on a fresh machine or on the
// old -checkpoint-dir alike: the coordinator hands it the slot's replicated
// state at the rollback barrier. SIGHUP requests a graceful leave: the peer
// replicates its checkpoint at the next boundary and exits 0, and a -join
// replacement takes over. Recovery is bounded by -recovery-windows extra
// round timeouts. -debug-addr serves the fabric counters over HTTP (GET
// /v1/stats), -reps-out writes the final representatives digest (the
// recovery-equivalence artifact), and -failpoint-round is a chaos drill
// that SIGKILLs the process at a given round boundary — the CI recovery
// gate uses it to kill a peer deterministically mid-session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xmlclust"
)

func main() {
	var (
		id      = flag.Int("id", 0, "this peer's id in [0, #peers)")
		peers   = flag.String("peers", "", "comma-separated peer address table, index = peer id (required)")
		listen  = flag.String("listen", "", "local listen address (default: the -peers entry for -id)")
		corpusF = flag.String("corpus", "", "corpus file from `cxkcluster -save`, or a directory / tar[.gz] archive / XML file to ingest (required)")
		maxTup  = flag.Int("maxtuples", 0, "cap on tree tuples per document when ingesting raw XML (0 = default; must match across peers)")
		ingestW = flag.Int("ingest-workers", 0, "ingest workers for raw XML: parse, extract and weigh (0 = one per CPU); the corpus is identical for any value")
		k       = flag.Int("k", 4, "number of clusters")
		f       = flag.Float64("f", 0.5, "structure/content balance f ∈ [0,1]")
		gamma   = flag.Float64("gamma", 0.7, "γ-matching threshold")
		seed    = flag.Int64("seed", 1, "random seed (must match across peers)")
		workers = flag.Int("workers", 0, "worker goroutines (0 = one per CPU, 1 = serial); output is identical for any value")
		rounds  = flag.Int("maxrounds", 0, "bound on collaborative rounds (0 = default)")
		unequal = flag.Bool("unequal", false, "skewed data distribution (half the peers hold twice the data)")
		roundTO = flag.Duration("round-timeout", 0, "per-round receive deadline (0 = default, negative = none)")
		startTO = flag.Duration("startup-timeout", 0, "how long to wait for the coordinator's startup message (0 = default, negative = none)")
		dialTO  = flag.Duration("dial-timeout", 0, "how long a send keeps redialing a peer whose listener is not up yet, from 1ms pauses doubling to 2s (0 = default 30s)")
		quiet   = flag.Bool("q", false, "suppress the per-peer summary on stderr")

		ckptDir   = flag.String("checkpoint-dir", "", "enable the elastic peer fabric: persist round-boundary checkpoints here (crash recovery, -join, graceful leave on SIGHUP)")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint cadence in rounds (0 = every round; requires -checkpoint-dir)")
		join      = flag.Bool("join", false, "take over this peer's slot in a running session, after a crash or a leave: the coordinator hands over the slot's replicated state (not valid on peer 0)")
		recWin    = flag.Int("recovery-windows", 0, "extra round-timeout windows granted to recovery before giving up (0 = default 2)")
		debugAddr = flag.String("debug-addr", "", "serve fabric counters over HTTP at this address (GET /v1/stats; requires -checkpoint-dir)")
		dbgPprof  = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on -debug-addr")
		failRound = flag.Int("failpoint-round", 0, "chaos drill: SIGKILL this process at the given round boundary (0 = off; requires -checkpoint-dir)")
		repsOut   = flag.String("reps-out", "", "write the final representatives digest (and per-peer round count) to this file — the recovery-equivalence comparison artifact")
	)
	flag.Parse()
	if *peers == "" || *corpusF == "" {
		fmt.Fprintln(os.Stderr, "usage: cxkpeer -id N -peers addr,addr,... -corpus file [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	addrs := strings.Split(*peers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	corpus, stats, err := xmlclust.OpenCorpus(*corpusF, xmlclust.CorpusOptions{
		MaxTuplesPerTree: *maxTup, IngestWorkers: *ingestW,
	})
	if err != nil {
		fatal(err)
	}
	if stats.Docs > 0 && !*quiet {
		fmt.Fprintf(os.Stderr, "cxkpeer %d: ingested %s\n", *id, stats.String())
	}

	// SIGINT/SIGTERM shuts the session down gracefully: the peer aborts at
	// its next safe protocol boundary instead of vanishing mid-round and
	// leaving neighbours to hit their round deadlines. Installed after the
	// ingest above, which does not watch a context — hooking signals
	// earlier would make Ctrl-C a no-op for the whole ingest.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP requests a graceful leave: the peer replicates its checkpoint to
	// the coordinator at the next checkpoint boundary and exits cleanly, so a
	// replacement can -join the slot without a rollback storm.
	var leaveCh chan struct{}
	if *ckptDir != "" {
		leaveCh = make(chan struct{})
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			<-hup
			close(leaveCh)
		}()
	}

	eng, err := xmlclust.NewEngine(corpus, xmlclust.EngineOptions{})
	if err != nil {
		fatal(err)
	}
	res, err := eng.ClusterDistributed(ctx, xmlclust.DistributedOptions{
		K: *k, F: *f, Gamma: *gamma,
		ID: *id, PeerAddrs: addrs, Listen: *listen,
		Workers: *workers, UnequalSplit: *unequal,
		Seed: *seed, MaxRounds: *rounds,
		RoundTimeout: *roundTO, StartupTimeout: *startTO, DialTimeout: *dialTO,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery,
		Join: *join, RecoveryWindows: *recWin,
		Leave: leaveCh, DebugAddr: *debugAddr, FailpointRound: *failRound,
		DebugPprof: *dbgPprof,
	})
	if errors.Is(err, xmlclust.ErrCanceled) {
		fmt.Fprintf(os.Stderr, "cxkpeer %d: interrupted, session aborted at a protocol boundary\n", *id)
		os.Exit(130)
	}
	if errors.Is(err, xmlclust.ErrLeft) {
		fmt.Fprintf(os.Stderr, "cxkpeer %d: left the session gracefully, checkpoint replicated to the coordinator\n", *id)
		return
	}
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "cxkpeer %d/%d: %d local transactions, %d rounds, wall %v\n",
			*id, len(addrs), len(res.LocalAssign), res.Rounds, res.WallTime.Round(time.Millisecond))
	}
	if *repsOut != "" {
		artifact := fmt.Sprintf("peer %d rounds %d reps %016x\n", res.ID, res.Rounds, res.RepsDigest)
		if err := os.WriteFile(*repsOut, []byte(artifact), 0o644); err != nil {
			fatal(err)
		}
	}
	if res.Assign != nil { // coordinator: print the corpus-wide assignment
		for i, a := range res.Assign {
			fmt.Printf("%d\t%d\n", i, a)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxkpeer:", err)
	os.Exit(1)
}
