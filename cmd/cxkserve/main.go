// Command cxkserve runs the incremental clustering service as an HTTP
// daemon: it holds a clustered corpus in memory and lets clients add,
// remove, classify and query XML documents while a background maintenance
// loop keeps the clustering fresh (see internal/serve for the model and the
// equivalence guarantee against a from-scratch run).
//
// Usage:
//
//	cxkserve -listen :8080 -k 8 [-corpus seed-dir/]
//
// -corpus optionally seeds the service before the listener comes up: the
// path is walked like cxkcluster's ingest (directory of *.xml, tar[.gz]
// archive, or single file), every document is added, and one initial
// refresh clusters the seed collection. Without it the service starts
// empty and clusters once documents arrive over HTTP.
//
// Endpoints (JSON):
//
//	POST   /v1/documents       {"name","xml","label"?} → add + assign
//	GET    /v1/documents       list all documents (tombstones included)
//	GET    /v1/documents/{id}  one document
//	DELETE /v1/documents/{id}  remove (takes effect fully at next refresh)
//	POST   /v1/classify        {"xml"} → read-only classification
//	GET    /v1/clusters/{id}   members of a cluster ("trash" for the trash)
//	GET    /v1/stats           service statistics
//	POST   /v1/maintenance     run one maintenance round now
//	POST   /v1/refresh         force a full representative refresh now
//	GET    /healthz            liveness probe
//
// SIGINT/SIGTERM drains gracefully: in-flight requests finish, the
// maintenance loop stops, and the process exits 130 on interrupt.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // handlers exposed only behind -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"xmlclust"
	"xmlclust/internal/serve"
)

func main() {
	var (
		listen  = flag.String("listen", ":8080", "HTTP listen address")
		corpusF = flag.String("corpus", "", "optional seed collection: directory / tar[.gz] archive / XML file")
		k       = flag.Int("k", 4, "number of clusters")
		f       = flag.Float64("f", 0.5, "structure/content balance f ∈ [0,1]")
		gamma   = flag.Float64("gamma", 0.7, "γ-matching threshold")
		seed    = flag.Int64("seed", 1, "random seed of every refresh run")
		workers = flag.Int("workers", 0, "worker goroutines (0 = one per CPU, 1 = serial)")
		rounds  = flag.Int("maxrounds", 0, "bound on clustering rounds per refresh (0 = default)")
		maxTup  = flag.Int("maxtuples", 0, "cap on tree tuples per document (0 = default)")
		drift   = flag.Float64("drift", 0, "dirty-transaction fraction that triggers a refresh (0 = default 0.25, negative = refresh on any drift)")
		every   = flag.Duration("maintenance", serve.DefaultMaintenanceInterval, "maintenance loop interval")
		quiet   = flag.Bool("q", false, "suppress the progress log on stderr")
		pprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the service listener")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "cxkserve: "+format+"\n", args...)
		}
	}
	svc, err := serve.NewService(serve.Config{
		K: *k, F: *f, Gamma: *gamma, Seed: *seed,
		Workers: *workers, MaxRounds: *rounds, MaxTuplesPerTree: *maxTup,
		DriftThreshold: *drift,
		OnMaintenance: func(rs serve.RoundStats, err error) {
			switch {
			case err != nil:
				logf("maintenance: %v", err)
			case rs.Refreshed:
				logf("maintenance: %d dirty docs, drift %.3f → refreshed in %d rounds",
					rs.DirtyDocs, rs.Drift, rs.RefreshRounds)
			case rs.DirtyDocs > 0:
				logf("maintenance: re-relocated %d dirty docs (%d reassigned), drift %.3f",
					rs.DirtyDocs, rs.Reassigned, rs.Drift)
			}
		},
	})
	if err != nil {
		fatal(err)
	}

	// Seed ingest runs before signal handling is installed, mirroring
	// cxkpeer: the ingest does not watch a context, so hooking signals
	// earlier would make Ctrl-C a no-op until the listener is up.
	if *corpusF != "" {
		n, err := seedService(svc, *corpusF)
		if err != nil {
			fatal(err)
		}
		if err := svc.Refresh(context.Background()); err != nil {
			fatal(err)
		}
		st := svc.Stats()
		logf("seeded %d documents from %s: %d transactions, cluster sizes %v, %d trash",
			n, *corpusF, st.LiveTxns, st.ClusterSizes, st.Trash)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	handler := http.Handler(serve.NewHandler(svc))
	if *pprof {
		// The blank net/http/pprof import registers its handlers on the
		// default mux; mount that mux under /debug/pprof/ so a live round
		// loop can be CPU/heap-profiled, and keep the service API at /.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
	}
	server := &http.Server{Addr: *listen, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	go svc.Run(ctx, *every)
	logf("listening on %s (k=%d f=%g gamma=%g seed=%d, maintenance every %v)",
		*listen, *k, *f, *gamma, *seed, *every)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second Ctrl-C kills hard
	logf("shutting down, draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "cxkserve: shutdown:", err)
		os.Exit(1)
	}
	os.Exit(130)
}

// seedService streams every document of the source into the service as raw
// XML bytes, so the retained-bytes refresh path sees exactly the on-disk
// input. Returns the number of documents added.
func seedService(svc *serve.Service, path string) (int, error) {
	src, err := xmlclust.OpenSource(path)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	n := 0
	for {
		doc, err := src.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		raw, err := doc.Raw()
		if err != nil {
			return n, fmt.Errorf("seed document %q: %w", doc.Name, err)
		}
		if _, err := svc.AddDocument(context.Background(), doc.Name, raw, doc.Label); err != nil {
			return n, fmt.Errorf("seed document %q: %w", doc.Name, err)
		}
		n++
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxkserve:", err)
	os.Exit(1)
}
