// Package serve implements the incremental clustering service behind
// cmd/cxkserve: a long-lived Service holds a clustered corpus in memory and
// keeps answering while the collection changes.
//
// Writes go through the online path: AddDocument extracts the tree tuples
// of the raw XML as it parses it (no tree, outside the service lock),
// appends them through a reopened txn.Builder (shared interning tables),
// folds the document into the ttf.itf accumulator, weights the unseen items
// with the frozen-itf online pass (weighting.Accumulator.WeighNew) and
// assigns the new transactions to the current representatives with one
// posting-list sweep each. RemoveDocument tombstones a document. Classify
// is the read-only probe: it scores a document against the current
// representatives and leaves the service as it found it: the document's
// unseen items go into a pooled per-request overlay (txn.Overlay) and are
// weighed there read-only (weighting.Accumulator.WeighStaged), so the item
// and term tables, the accumulator and its token memo are as they were.
// Only an unseen complete path is interned, in the path table, which grows
// with the schema, not with traffic.
//
// Both online ingestion and removal are approximations — new items carry
// frozen itf factors and representatives are not recomputed per write — so
// the Service tracks drift: the fraction of live transactions touched
// (added, removed or reassigned) since the representatives were last
// computed. A background maintenance loop (Run, or explicit
// MaintenanceRound calls) re-relocates the dirty documents and, once drift
// crosses Config.DriftThreshold, refreshes: it rebuilds a fresh corpus from
// the retained raw XML of the live documents (in original add order) and
// re-clusters it from scratch with Engine.Cluster under the service seed.
// Refreshing from clean inputs — rather than patching the live tables —
// is what makes the converged incremental state provably equal to a batch
// run on the same documents: identical inputs in identical order intern
// identically, so assignments and representatives match byte for byte
// (pinned by TestIncrementalEquivalence).
//
// Each live document keeps its majority cluster, and each cluster lists its
// live members in id order; both change where the assignment does (an add,
// a removal, a maintenance reassignment, a refresh), so QueryCluster reads
// one list and never walks the documents.
//
// The HTTP handler reads a request body into a pooled buffer and unquotes
// its xml member into another: a request allocates nothing per body byte
// but the copy AddDocument keeps. Neither it nor Classify retains xmlData.
//
// A Service is safe for concurrent use. One RWMutex serializes writes and
// maintenance; reads (Classify, Stats, QueryCluster, Documents) share the
// read lock. Requests therefore block briefly during a refresh; the refresh
// itself honors context cancellation.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlclust"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
)

// DefaultDriftThreshold triggers a representative refresh once a quarter of
// the live transactions are dirty.
const DefaultDriftThreshold = 0.25

// DefaultMaintenanceInterval paces the background maintenance loop.
const DefaultMaintenanceInterval = 30 * time.Second

// Config parameterizes a Service. K, F, Gamma, Seed, Workers and MaxRounds
// are the clustering options every refresh runs with (see
// xmlclust.ClusterOptions); holding them fixed is what makes the converged
// state reproducible.
type Config struct {
	K                int
	F, Gamma         float64
	Seed             int64
	Workers          int
	MaxRounds        int
	MaxTuplesPerTree int
	// DriftThreshold is the dirty fraction of live transactions at which a
	// maintenance round refreshes the representatives
	// (0 = DefaultDriftThreshold; negative = refresh on any drift at all).
	DriftThreshold float64
	// IndexReps selects the engine of everything the service computes —
	// refreshes, online adds, classify probes and maintenance re-relocations:
	// the fast one (default RepIndexAuto; each refresh prebuilds the
	// representative index once against the new representative set) or, with
	// RepIndexOff, the dense reference kernel throughout. Assignments and
	// representatives are byte-identical.
	IndexReps xmlclust.RepIndexMode
	// Events, when non-nil, receives the clustering progress events of every
	// refresh run (see xmlclust.ClusterOptions.Events).
	Events func(xmlclust.Event)
	// OnMaintenance, when non-nil, observes every maintenance round driven
	// by Run (manual MaintenanceRound calls report to the caller instead).
	OnMaintenance func(RoundStats, error)
}

// Typed request failures, surfaced as 4xx by the HTTP layer.
var (
	ErrUnknownDocument = errors.New("serve: unknown document")
	ErrRemovedDocument = errors.New("serve: document already removed")
)

// DocInfo describes one document the service holds.
type DocInfo struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	Label int    `json:"label"`
	// Cluster is the document-level majority cluster under the current
	// assignment (xmlclust.TrashCluster before the first refresh or when
	// every transaction is trash).
	Cluster int `json:"cluster"`
	// Transactions is the number of transactions the document decomposed
	// into.
	Transactions int  `json:"transactions"`
	Removed      bool `json:"removed"`
}

// Stats is a point-in-time snapshot of the service state.
type Stats struct {
	Docs        int `json:"docs"`
	LiveDocs    int `json:"live_docs"`
	RemovedDocs int `json:"removed_docs"`
	LiveTxns    int `json:"live_txns"`
	DirtyDocs   int `json:"dirty_docs"`
	DirtyTxns   int `json:"dirty_txns"`
	// Drift is DirtyTxns / LiveTxns (1 when nothing is live but drift
	// exists).
	Drift float64 `json:"drift"`
	K     int     `json:"k"`
	// ClusterSizes counts live documents per cluster id [0,K); Trash counts
	// live documents whose majority vote is the trash cluster.
	ClusterSizes []int `json:"cluster_sizes"`
	Trash        int   `json:"trash"`
	// Refreshes / MaintenanceRounds / Reassigned are cumulative counters.
	Refreshes         int `json:"refreshes"`
	MaintenanceRounds int `json:"maintenance_rounds"`
	Reassigned        int `json:"reassigned"`
	// IndexEntries / IndexedReps describe the current prebuilt
	// representative index (postings keys and covered representatives; both
	// zero when the index is off or no refresh has run).
	// IndexCandidates / IndexSkipped total the index counters over every
	// request and maintenance round: representatives scored above zero vs
	// representatives scoring exactly zero and never touched.
	IndexEntries    int   `json:"index_entries"`
	IndexedReps     int   `json:"indexed_reps"`
	IndexCandidates int64 `json:"index_candidates"`
	IndexSkipped    int64 `json:"index_skipped"`
	// RepsReused totals, over every refresh run, the local representatives
	// reused verbatim from the round engine's memo.
	RepsReused int64 `json:"reps_reused"`
}

// RoundStats reports one maintenance round.
type RoundStats struct {
	// DirtyDocs is how many documents the round re-relocated; Reassigned
	// counts their transactions that changed cluster.
	DirtyDocs  int `json:"dirty_docs"`
	Reassigned int `json:"reassigned"`
	// Drift is the dirty fraction after re-relocation, the value compared
	// against the threshold.
	Drift float64 `json:"drift"`
	// Refreshed reports that the round rebuilt and re-clustered; in that
	// case RefreshRounds is the clustering round count of the refresh run.
	Refreshed       bool  `json:"refreshed"`
	RefreshRounds   int   `json:"refresh_rounds"`
	IndexCandidates int64 `json:"index_candidates"`
	IndexSkipped    int64 `json:"index_skipped"`
}

// docRecord retains what a refresh needs to rebuild the document exactly:
// its raw XML, name and label, in add order. cluster is a live document's
// majority vote under the current assignment.
type docRecord struct {
	id      int
	name    string
	label   int
	xml     []byte
	removed bool
	cluster int
}

// snapshot is the mutable clustered state: the live corpus plus the engine,
// builder and accumulator bound to it. A refresh swaps the whole snapshot
// atomically under the service lock.
type snapshot struct {
	corpus  *xmlclust.Corpus
	eng     *xmlclust.Engine
	builder *txn.Builder
	acc     *weighting.Accumulator
	// reps / assign mirror xmlclust.Result for the last refresh, extended
	// online as documents arrive; assign is indexed like
	// corpus.Transactions.
	reps   []*xmlclust.Transaction
	assign []int
	// ranges maps service document id → [start,end) into
	// corpus.Transactions (live documents only).
	ranges   map[int][2]int
	liveTxns int
	// idx is the prebuilt representative index over reps (nil when disabled
	// or before the first refresh). Items interned after the build are
	// handled soundly, so the index stays valid until reps change — i.e.
	// until the snapshot itself is replaced.
	idx *xmlclust.RepIndex
	// overlays pools Classify's per-request overlays over corpus.
	overlays sync.Pool
}

// overlay is one classify request's stage and weighing scratch.
type overlay struct {
	stage   *txn.Overlay
	weights weighting.Staged
}

// Service is the incremental clustering service. Create with NewService.
type Service struct {
	cfg Config

	mu   sync.RWMutex
	docs []*docRecord
	snap *snapshot
	// members lists each cluster's live documents (by docRecord.cluster,
	// the trash included) in id order.
	members map[int][]int
	// dirty marks documents whose assignment has not been confirmed against
	// the current representatives; dirtyTxns counts transactions touched
	// since the last refresh (the drift numerator).
	dirty     map[int]struct{}
	dirtyTxns int

	refreshes  int
	rounds     int
	reassigned int
	idxCand    atomic.Int64 // Classify adds under the read lock
	idxSkip    atomic.Int64
	repsReused int64
}

// NewService validates the configuration and returns an empty service
// (no documents, no representatives: everything classifies to the trash
// cluster until documents arrive and a refresh runs).
func NewService(cfg Config) (*Service, error) {
	if err := xmlclust.ValidateClusterOptions(cfg.clusterOptions()); err != nil {
		return nil, err
	}
	snap, err := emptySnapshot(cfg)
	if err != nil {
		return nil, err
	}
	return &Service{cfg: cfg, snap: snap, dirty: map[int]struct{}{}, members: map[int][]int{}}, nil
}

func (cfg Config) clusterOptions() xmlclust.ClusterOptions {
	return xmlclust.ClusterOptions{
		K: cfg.K, F: cfg.F, Gamma: cfg.Gamma,
		Seed: cfg.Seed, Workers: cfg.Workers, MaxRounds: cfg.MaxRounds,
		IndexReps: cfg.IndexReps, Events: cfg.Events,
	}
}

// classifyOptionsLocked resolves the classify options against the current
// snapshot's prebuilt representative index; the caller holds s.mu.
func (s *Service) classifyOptionsLocked() xmlclust.ClassifyOptions {
	return xmlclust.ClassifyOptions{
		F: s.cfg.F, Gamma: s.cfg.Gamma, Workers: s.cfg.Workers,
		MaxTuplesPerTree: s.cfg.MaxTuplesPerTree,
		IndexReps:        s.cfg.IndexReps, Index: s.snap.idx,
	}
}

func (cfg Config) buildOptions() txn.BuildOptions {
	return txn.BuildOptions{Tuple: tuple.Options{MaxTuplesPerTree: cfg.MaxTuplesPerTree}}
}

func emptySnapshot(cfg Config) (*snapshot, error) {
	b := txn.NewBuilder(cfg.buildOptions())
	c := b.Corpus()
	acc := weighting.NewAccumulator(c)
	b.Observe(acc)
	eng, err := xmlclust.NewEngine(c, xmlclust.EngineOptions{})
	if err != nil {
		return nil, err
	}
	return &snapshot{
		corpus: c, eng: eng, builder: b, acc: acc,
		ranges: map[int][2]int{},
	}, nil
}

// AddDocument ingests one raw XML document online: extract its tuples as it
// is parsed (outside the lock), append them through the builder (which
// folds them into the ttf.itf accumulator), weight the
// unseen items with frozen itf factors, and assign its transactions to the
// current representatives. The document is marked dirty so the next
// maintenance round accounts for it in the drift. label is the optional
// ground-truth class (−1 = unknown). The service keeps a copy of xmlData
// and never xmlData itself, so the caller may reuse it on return.
func (s *Service) AddDocument(ctx context.Context, name string, xmlData []byte, label int) (DocInfo, error) {
	tuples, err := tuple.ExtractBytes(xmlData, s.cfg.buildOptions().Tuple)
	if err != nil {
		return DocInfo{}, fmt.Errorf("serve: add %q: %w", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	sn := s.snap
	id := len(s.docs)
	rec := &docRecord{id: id, name: name, label: label, xml: append([]byte(nil), xmlData...)}
	start := len(sn.corpus.Transactions)
	sn.builder.AddTuples(tuples, label)
	end := len(sn.corpus.Transactions)
	sn.acc.WeighNew()

	s.docs = append(s.docs, rec)
	sn.ranges[id] = [2]int{start, end}
	n := end - start
	sn.liveTxns += n
	s.dirty[id] = struct{}{}
	s.dirtyTxns += n

	res, err := sn.eng.ClassifyTransactions(ctx, sn.corpus.Transactions[start:end], sn.reps, s.classifyOptionsLocked())
	if err != nil {
		// The document is ingested either way; park its transactions in the
		// trash so the assignment stays aligned with the corpus, and leave
		// it dirty for the next maintenance round.
		for i := 0; i < n; i++ {
			sn.assign = append(sn.assign, xmlclust.TrashCluster)
		}
		s.file(rec, xmlclust.TrashCluster)
		return s.docInfoLocked(id), err
	}
	sn.assign = append(sn.assign, res.Assign...)
	s.file(rec, xmlclust.MajorityCluster(res.Assign))
	s.idxCand.Add(res.IndexCandidates)
	s.idxSkip.Add(res.IndexSkipped)
	return s.docInfoLocked(id), nil
}

// RemoveDocument tombstones a document: its transactions stop counting as
// live immediately and the next refresh drops them (and their itf
// contributions) entirely.
func (s *Service) RemoveDocument(id int) (DocInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.docs) {
		return DocInfo{}, fmt.Errorf("%w: %d", ErrUnknownDocument, id)
	}
	rec := s.docs[id]
	if rec.removed {
		return DocInfo{}, fmt.Errorf("%w: %d", ErrRemovedDocument, id)
	}
	info := s.docInfoLocked(id) // capture the pre-removal cluster
	rec.removed = true
	if r, ok := s.snap.ranges[id]; ok {
		n := r[1] - r[0]
		s.snap.liveTxns -= n
		s.dirtyTxns += n
		delete(s.snap.ranges, id)
		delete(s.dirty, id)
		s.unfile(rec)
	}
	info.Removed = true
	return info, nil
}

// Classify scores a raw XML document against the current representatives
// and returns the per-transaction assignment plus the document-level
// majority cluster. The document is NOT added, and nothing but the index
// counters and the path table changes: the document resolves through a
// per-request overlay (see the package doc), under the read lock. Its unseen
// items get the weights WeighNew gives an item no document observed. The
// tuples are extracted outside the lock. xmlData is not retained.
func (s *Service) Classify(ctx context.Context, xmlData []byte) (*xmlclust.Classification, error) {
	tuples, err := tuple.ExtractBytes(xmlData, s.cfg.buildOptions().Tuple)
	if err != nil {
		return nil, fmt.Errorf("serve: classify: %w", err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn := s.snap
	ov, ok := sn.overlays.Get().(*overlay)
	if !ok {
		ov = &overlay{stage: txn.NewOverlay(sn.corpus)}
	}
	defer sn.overlays.Put(ov)
	items, trs := ov.stage.Resolve(tuples)
	sn.acc.WeighStaged(items, &ov.weights)
	res, err := sn.eng.ClassifyStaged(ctx, items, trs, sn.reps, s.classifyOptionsLocked())
	if err != nil {
		return nil, err
	}
	s.idxCand.Add(res.IndexCandidates)
	s.idxSkip.Add(res.IndexSkipped)
	return res, nil
}

// Document returns one document's current info.
func (s *Service) Document(id int) (DocInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 0 || id >= len(s.docs) {
		return DocInfo{}, fmt.Errorf("%w: %d", ErrUnknownDocument, id)
	}
	return s.docInfoLocked(id), nil
}

// Documents lists every document the service has seen, in add order.
func (s *Service) Documents() []DocInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DocInfo, len(s.docs))
	for id := range s.docs {
		out[id] = s.docInfoLocked(id)
	}
	return out
}

// QueryCluster lists the live documents whose majority cluster is cl
// (xmlclust.TrashCluster queries the trash) in id order, nil when there
// are none. It reads the cluster's member list alone.
func (s *Service) QueryCluster(cl int) []DocInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.members[cl]
	if len(ids) == 0 {
		return nil
	}
	out := make([]DocInfo, len(ids))
	for i, id := range ids {
		out[i] = s.docInfoLocked(id)
	}
	return out
}

// Representatives returns a copy of the current cluster representatives
// (nil entries for clusters that never formed; empty before the first
// refresh).
func (s *Service) Representatives() []*xmlclust.Transaction {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*xmlclust.Transaction, len(s.snap.reps))
	for i, rep := range s.snap.reps {
		if rep != nil {
			out[i] = rep.Clone()
		}
	}
	return out
}

// Assignment returns a copy of the current per-transaction assignment (the
// equivalence-test surface; indexed like the live corpus's transactions).
func (s *Service) Assignment() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]int(nil), s.snap.assign...)
}

// Stats reports the current service state.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Docs: len(s.docs), K: s.cfg.K,
		LiveTxns: s.snap.liveTxns, DirtyDocs: len(s.dirty), DirtyTxns: s.dirtyTxns,
		Drift:     s.driftLocked(),
		Refreshes: s.refreshes, MaintenanceRounds: s.rounds, Reassigned: s.reassigned,
		IndexEntries: s.snap.idx.Entries(), IndexedReps: s.snap.idx.Reps(),
		IndexCandidates: s.idxCand.Load(), IndexSkipped: s.idxSkip.Load(),
		RepsReused:   s.repsReused,
		ClusterSizes: make([]int, s.cfg.K),
	}
	for id, rec := range s.docs {
		if rec.removed {
			st.RemovedDocs++
			continue
		}
		st.LiveDocs++
		switch cl := s.docInfoLocked(id).Cluster; {
		case cl >= 0 && cl < s.cfg.K:
			st.ClusterSizes[cl]++
		default:
			st.Trash++
		}
	}
	return st
}

// docInfoLocked assembles one document's info; the caller holds s.mu.
func (s *Service) docInfoLocked(id int) DocInfo {
	rec := s.docs[id]
	info := DocInfo{
		ID: rec.id, Name: rec.name, Label: rec.label,
		Cluster: xmlclust.TrashCluster, Removed: rec.removed,
	}
	if r, ok := s.snap.ranges[id]; ok {
		info.Transactions = r[1] - r[0]
		info.Cluster = rec.cluster
	}
	return info
}

// file lists live document rec under cluster cl, its majority vote, and
// unfile takes it off its list; both keep s.members in id order.
func (s *Service) file(rec *docRecord, cl int) {
	rec.cluster = cl
	ids := s.members[cl]
	i, _ := slices.BinarySearch(ids, rec.id)
	s.members[cl] = slices.Insert(ids, i, rec.id)
}

func (s *Service) unfile(rec *docRecord) {
	ids := s.members[rec.cluster]
	if i, ok := slices.BinarySearch(ids, rec.id); ok {
		s.members[rec.cluster] = slices.Delete(ids, i, i+1)
	}
}

func (s *Service) driftLocked() float64 {
	switch {
	case s.snap.liveTxns > 0:
		return float64(s.dirtyTxns) / float64(s.snap.liveTxns)
	case s.dirtyTxns > 0:
		return 1
	}
	return 0
}

// MaintenanceRound runs one maintenance pass: re-relocate every dirty
// document against the current representatives (counting real
// reassignments), then refresh — rebuild and re-cluster from the retained
// raw XML — when the drift fraction has crossed the threshold. On error
// (typically context cancellation mid-refresh) the previous snapshot stays
// in place and the round can simply be retried.
func (s *Service) MaintenanceRound(ctx context.Context) (RoundStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rs RoundStats
	sn := s.snap

	ids := make([]int, 0, len(s.dirty))
	for id := range s.dirty {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r, ok := sn.ranges[id]
		if !ok {
			delete(s.dirty, id)
			continue
		}
		res, err := sn.eng.ClassifyTransactions(ctx, sn.corpus.Transactions[r[0]:r[1]], sn.reps, s.classifyOptionsLocked())
		if err != nil {
			return rs, err
		}
		rs.DirtyDocs++
		for i, a := range res.Assign {
			if sn.assign[r[0]+i] != a {
				sn.assign[r[0]+i] = a
				rs.Reassigned++
			}
		}
		if rec, cl := s.docs[id], xmlclust.MajorityCluster(res.Assign); cl != rec.cluster {
			s.unfile(rec)
			s.file(rec, cl)
		}
		rs.IndexCandidates += res.IndexCandidates
		rs.IndexSkipped += res.IndexSkipped
		delete(s.dirty, id)
	}

	rs.Drift = s.driftLocked()
	thr := s.cfg.DriftThreshold
	if thr == 0 {
		thr = DefaultDriftThreshold
	}
	if thr < 0 {
		thr = 0 // any drift at all triggers
	}
	if s.dirtyTxns > 0 && rs.Drift >= thr {
		rounds, err := s.refreshLocked(ctx)
		if err != nil {
			return rs, err
		}
		rs.Refreshed = true
		rs.RefreshRounds = rounds
	}
	s.rounds++
	s.reassigned += rs.Reassigned
	s.idxCand.Add(rs.IndexCandidates)
	s.idxSkip.Add(rs.IndexSkipped)
	return rs, nil
}

// Refresh forces a representative refresh regardless of drift: rebuild a
// fresh corpus from the retained raw XML of the live documents (original
// add order) and re-cluster it from scratch under the service seed. The
// snapshot swaps atomically; on error the previous state is kept.
func (s *Service) Refresh(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.refreshLocked(ctx)
	return err
}

// refreshLocked is the refresh under the held write lock; it returns the
// clustering round count of the rebuild run.
func (s *Service) refreshLocked(ctx context.Context) (int, error) {
	b := txn.NewBuilder(s.cfg.buildOptions())
	c := b.Corpus()
	acc := weighting.NewAccumulator(c)
	b.Observe(acc)

	live := 0
	ranges := map[int][2]int{}
	for _, rec := range s.docs {
		if rec.removed {
			continue
		}
		tuples, err := tuple.ExtractBytes(rec.xml, s.cfg.buildOptions().Tuple)
		if err != nil {
			return 0, fmt.Errorf("serve: refresh: reparse %q: %w", rec.name, err)
		}
		start := len(c.Transactions)
		b.AddTuples(tuples, rec.label)
		ranges[rec.id] = [2]int{start, len(c.Transactions)}
		live++
	}
	b.Finish()
	acc.FinalizeWorkers(s.cfg.Workers)

	eng, err := xmlclust.NewEngine(c, xmlclust.EngineOptions{})
	if err != nil {
		return 0, err
	}
	var (
		assign []int
		reps   []*xmlclust.Transaction
		rounds int
	)
	if len(c.Transactions) > 0 {
		res, err := eng.Cluster(ctx, s.cfg.clusterOptions())
		if err != nil {
			return 0, err
		}
		assign, reps, rounds = res.Assign, res.Reps, res.Rounds
		s.idxCand.Add(res.IndexCandidates)
		s.idxSkip.Add(res.IndexSkipped)
		s.repsReused += res.RepsReused
	}

	// Prebuild the representative index once per refresh: every classify
	// scan until the next refresh reuses it (items interned online are
	// handled soundly, so it never goes stale before reps change).
	var idx *xmlclust.RepIndex
	if s.cfg.IndexReps != xmlclust.RepIndexOff && len(reps) > 0 {
		idx, err = eng.BuildRepIndex(reps, s.cfg.F, s.cfg.Gamma)
		if err != nil {
			return 0, err
		}
	}

	nb := txn.ReopenBuilder(c, live, s.cfg.buildOptions())
	nb.Observe(acc)
	s.snap = &snapshot{
		corpus: c, eng: eng, builder: nb, acc: acc,
		reps: reps, assign: assign, ranges: ranges, liveTxns: len(c.Transactions),
		idx: idx,
	}
	s.members = map[int][]int{}
	for _, rec := range s.docs {
		if r, ok := ranges[rec.id]; ok {
			rec.cluster = xmlclust.MajorityCluster(assign[r[0]:r[1]])
			s.members[rec.cluster] = append(s.members[rec.cluster], rec.id)
		}
	}
	s.dirty = map[int]struct{}{}
	s.dirtyTxns = 0
	s.refreshes++
	return rounds, nil
}

// Run drives the background maintenance loop until ctx is done, one
// MaintenanceRound per interval tick (interval ≤ 0 =
// DefaultMaintenanceInterval). Round outcomes go to Config.OnMaintenance;
// errors do not stop the loop (a canceled round simply retries next tick
// unless ctx itself is done). Returns ctx.Err().
func (s *Service) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = DefaultMaintenanceInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			rs, err := s.MaintenanceRound(ctx)
			if s.cfg.OnMaintenance != nil {
				s.cfg.OnMaintenance(rs, err)
			}
		}
	}
}
