// Package sim implements the XML similarity measures of Sect. 4.1:
//
//   - structural tag-path similarity simS (Eq. 3) with the positional
//     penalty (1+|a−l|)^-1 on Dirichlet tag matches;
//   - content similarity simC: cosine over ttf.itf TCU vectors;
//   - the combined item similarity sim = f·simS + (1−f)·simC (Eq. 1) and
//     the γ-matching predicate (Eq. 2);
//   - the γ-shared-item transaction similarity simγJ (Eq. 4) built on the
//     enhanced-intersection match sets matchγ.
//
// A Context carries the parameters (f, γ) and the collection tables. Eq. 4 is
// implemented twice, and each implementation has one job:
//
//   - The sweep (repindex.go) serves. RepIndex inverts the TCU terms of a
//     representative set, and one sweep of a document's terms over the
//     posting lists yields its exact Eq. 4 similarity to every
//     representative: only item pairs that share a term, or that structure
//     alone carries to γ, are ever looked at. Every production relocation
//     and classification runs on it, and so does the refinement objective —
//     turned round: MemberIndex (memberindex.go) indexes a cluster's members
//     once and sweeps each new item of the candidate representative through
//     them.
//   - The dense kernel (kernel.go) specifies. It fills the whole n1×n2 item
//     similarity matrix of one transaction pair, row by row, and reads the
//     marks off it: the public Transactions API, the reference the sweep is
//     pinned against bit for bit, and the fallback where the sweep cannot run
//     (γ ≤ 0, a semantic Δ, an index whose weights went stale). It carries no
//     state from call to call and skips no row; SeedTransactions (seed.go) is
//     the frozen pointer-based oracle behind both.
//
// Underneath both sit PathCache — the sharded store of Eq. 3 tag-path pair
// similarities, the precomputation Sect. 4.3.2 identifies as the key
// optimization; values depend only on the paths and Δ, never on (f, γ), so
// one cache serves every parameter combination over a corpus — with a
// direct-mapped per-goroutine probe in front of it (structMemo). Operands
// come from one place for both engines: a transaction is its sorted item ids,
// and side.resolve (kernel.go) copies the tag path and TCU vector header of
// each id out of the item table's two flat columns (ItemTable.ResolveColumns)
// into contiguous per-position slices — a document, a synthetic
// representative and a classify-time transient all take the same path, and
// neither engine ever dereferences a *txn.Item.
//
// Neither engine, nor anything under them, ever changes a result
// (equivalence- and allocation-guarded in kernel_test.go, repindex_test.go,
// internal/cluster's TestRoundsTierMatrix and CI).
package sim

import (
	"sync"
	"sync/atomic"

	"xmlclust/internal/semantics"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// Params are the two knobs of the similarity model.
type Params struct {
	// F ∈ [0,1] tunes the influence of structure vs content (Eq. 1):
	// [0,0.3] content-driven, [0.4,0.6] hybrid, [0.7,1] structure-driven.
	F float64
	// Gamma ∈ [0,1] is the minimum item similarity for γ-matching (Eq. 2).
	Gamma float64
}

// Counters tracks how much similarity work was performed; used by the
// complexity experiments. All fields are updated atomically.
type Counters struct {
	// ItemSims counts the Eq. 1 values looked at: calls to Item, every item
	// pair of a kernel pass, and every item pair a RepIndex sweep touched. It
	// is not the number of cosines evaluated — both skip the content cosine
	// of pairs that provably cannot reach γ. A MemberIndex adds the pairs a
	// new column touched — once per (representative item, distinct cluster
	// item), not once per member row and step — so a refinement counts far
	// fewer than one scored member by member would.
	ItemSims atomic.Int64
	PathSims atomic.Int64 // structural path alignments actually computed
	// TxnSims counts Eq. 4 values produced: calls to Transactions, plus the
	// representatives a RepIndex query scored above zero, plus — per
	// refinement step — the members a MemberIndex scored above zero.
	TxnSims     atomic.Int64
	CacheHits   atomic.Int64 // path-pair cache hits
	CacheMisses atomic.Int64
	// IndexCandidates counts the representatives that relocation through a
	// RepIndex scored above zero; IndexSkipped counts the others — no item
	// pair with the document reaches γ, so they score exactly zero and the
	// sweep never touched them. Their sum per document equals the active
	// representative count, so IndexCandidates/documents is the
	// non-zero-reps/doc metric of the relocate bench.
	IndexCandidates atomic.Int64
	IndexSkipped    atomic.Int64
	// RepsReused counts cluster representatives reused verbatim from the
	// round engine's memo because the cluster's membership (and the context)
	// was unchanged since the representative was last refined — each reuse
	// skips the full rank + generateTreeTuple objective loop.
	RepsReused atomic.Int64
}

// CounterSnapshot is a plain copy of the tier counters a run reports: it is
// embedded in progress events and job results, so a counter added here (and
// to Snapshot and Sub) reaches every surface. See Counters for the meaning
// of each field.
type CounterSnapshot struct {
	IndexCandidates, IndexSkipped, RepsReused int64

	// Deprecated: go with the next benchmark PR. The kernel prunes no rows,
	// no relocation pass is skipped and no representative travels as a digest
	// marker any more; the fields are always zero and only keep the frozen
	// bench/ module compiling.
	PrunedRows, DocsSkipped, DeltaRepBytes int64
}

// Snapshot reads the reported counters. Each load is atomic; the set is not
// read as one transaction, which is fine for running totals.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		IndexCandidates: c.IndexCandidates.Load(),
		IndexSkipped:    c.IndexSkipped.Load(),
		RepsReused:      c.RepsReused.Load(),
	}
}

// Sub returns the per-field difference s − before: the work between two
// snapshots of the same context.
func (s CounterSnapshot) Sub(before CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		IndexCandidates: s.IndexCandidates - before.IndexCandidates,
		IndexSkipped:    s.IndexSkipped - before.IndexSkipped,
		RepsReused:      s.RepsReused - before.RepsReused,
	}
}

// Context evaluates similarities for one corpus under fixed Params.
// It is safe for concurrent use: peers and intra-peer workers share one
// Context, so the tag-path pair cache is sharded to keep concurrent
// TagPathSim calls from contending on a single lock.
type Context struct {
	Params   Params
	Items    *txn.ItemTable
	Paths    *xmltree.PathTable
	Counters Counters

	// UseCache controls the tag-path pair cache (on by default; the
	// ablation benchmark turns it off).
	UseCache bool
	// TagSim generalizes the Dirichlet function Δ of Eq. 3. The default is
	// exact tag equality, as published; semantic matchers (synonym
	// dictionaries, lexical tag-name overlap) implement the extension
	// sketched in Sect. 4.1.1/Sect. 6 of the paper.
	TagSim semantics.TagSimilarity

	// Deprecated: goes with the next benchmark PR. The item-pair memo is
	// gone (recomputing Eq. 1 is cheaper than probing it); nothing reads
	// this field, NewItemSimCache or DefaultItemCachePairs — they only keep
	// the frozen bench/ module compiling.
	ItemCache *struct{}

	cache *PathCache
}

type pathPair struct{ a, b xmltree.PathID }

// cacheShards is the shard count of the tag-path pair cache. Power of two
// so the shard index is a mask; sized well above typical worker×peer
// products so that concurrent lookups rarely collide on a shard lock.
const cacheShards = 64

// cacheShard is one lock-striped slice of the pair cache. Entries are pure
// functions of the key, so racing writers always store the same value and
// the cache contents are schedule-independent.
type cacheShard struct {
	mu sync.RWMutex
	m  map[pathPair]float64
}

// PathCache is the sharded store of Eq. 3 tag-path pair similarities — the
// precomputation Sect. 4.3.2 identifies as the key optimization. The cached
// values depend only on the tag paths and the Δ function, never on (f, γ),
// so one PathCache can be shared by every Context over the same PathTable
// and TagSim: a parameter sweep then pays the structural alignments once
// and every subsequent cell runs against a warm cache.
//
// A PathCache is safe for concurrent use. It must NOT be shared between
// contexts whose TagSim differs (the cached values would disagree).
type PathCache struct {
	shards [cacheShards]cacheShard
}

// NewPathCache creates an empty tag-path pair cache.
func NewPathCache() *PathCache {
	pc := &PathCache{}
	for i := range pc.shards {
		pc.shards[i].m = make(map[pathPair]float64)
	}
	return pc
}

// Len returns the number of cached pair similarities.
func (pc *PathCache) Len() int {
	n := 0
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

func (pc *PathCache) lookup(key pathPair) (float64, bool) {
	sh := &pc.shards[shardOf(key)]
	sh.mu.RLock()
	s, ok := sh.m[key]
	sh.mu.RUnlock()
	return s, ok
}

func (pc *PathCache) store(key pathPair, s float64) {
	sh := &pc.shards[shardOf(key)]
	sh.mu.Lock()
	sh.m[key] = s
	sh.mu.Unlock()
}

// shardOf hashes a pair onto its shard (multiplicative mixing of the two
// interned ids; the pair is already ordered by the caller).
func shardOf(key pathPair) uint32 {
	h := uint32(key.a)*0x9e3779b1 ^ uint32(key.b)*0x85ebca77
	h ^= h >> 16
	return h & (cacheShards - 1)
}

// DefaultItemCachePairs sized the retired item-pair memo.
//
// Deprecated: goes with the next benchmark PR.
const DefaultItemCachePairs = 0

// NewItemSimCache built the retired item-pair memo; it returns nil.
//
// Deprecated: goes with the next benchmark PR.
func NewItemSimCache(int) *struct{} { return nil }

// NewContext builds a similarity context over a corpus with a private
// tag-path pair cache.
func NewContext(c *txn.Corpus, p Params) *Context {
	return NewContextShared(c, p, nil)
}

// NewContextShared builds a similarity context that consults the given
// shared PathCache (nil allocates a private one). Contexts with different
// Params may share a cache — the structural pair similarities are
// independent of (f, γ) — as long as they agree on TagSim.
func NewContextShared(c *txn.Corpus, p Params, cache *PathCache) *Context {
	if cache == nil {
		cache = NewPathCache()
	}
	return &Context{
		Params:   p,
		Items:    c.Items,
		Paths:    c.Paths,
		UseCache: true,
		TagSim:   semantics.Exact{},
		cache:    cache,
	}
}

// Cache exposes the context's tag-path pair cache (shared or private).
func (cx *Context) Cache() *PathCache { return cx.cache }

// CacheLen returns the number of cached tag-path pair similarities.
func (cx *Context) CacheLen() int { return cx.cache.Len() }

// Structural returns simS between two items (Eq. 3), comparing their tag
// paths. The result is symmetric and lies in [0,1].
func (cx *Context) Structural(a, b *txn.Item) float64 {
	return cx.TagPathSim(a.TagPath, b.TagPath)
}

// TagPathSim returns the Eq. 3 similarity of two interned tag paths,
// consulting the pair cache.
func (cx *Context) TagPathSim(pa, pb xmltree.PathID) float64 {
	if pa == pb {
		return 1
	}
	key := pathPair{pa, pb}
	if pb < pa {
		key = pathPair{pb, pa}
	}
	if cx.UseCache {
		if s, ok := cx.cache.lookup(key); ok {
			cx.Counters.CacheHits.Add(1)
			return s
		}
		cx.Counters.CacheMisses.Add(1)
	}
	s := PathSimWith(cx.Paths.Path(pa), cx.Paths.Path(pb), cx.TagSim)
	cx.Counters.PathSims.Add(1)
	if cx.UseCache {
		cx.cache.store(key, s)
	}
	return s
}

// PathSim computes Eq. 3 on two raw tag paths with the paper's exact
// Dirichlet Δ:
//
//	simS = 1/(n+m) · ( Σ_h s(t_ih, p_j, h) + Σ_k s(t_jk, p_i, k) )
//	s(t, p, a) = max_{l=1..L} (1+|a−l|)^-1 · Δ(t, t_l)
//
// The positional factor penalizes tags that match but sit at different
// depths.
func PathSim(pi, pj xmltree.Path) float64 {
	return PathSimWith(pi, pj, semantics.Exact{})
}

// PathSimWith is PathSim with a pluggable tag similarity in place of Δ —
// the semantic-enrichment extension of Sect. 4.1.1.
func PathSimWith(pi, pj xmltree.Path, tagSim semantics.TagSimilarity) float64 {
	n, m := len(pi), len(pj)
	if n == 0 || m == 0 {
		if n == m {
			return 1
		}
		return 0
	}
	total := 0.0
	for h, t := range pi {
		total += bestTagMatch(t, pj, h+1, tagSim)
	}
	for k, t := range pj {
		total += bestTagMatch(t, pi, k+1, tagSim)
	}
	return total / float64(n+m)
}

// bestTagMatch is s(t, p, a) with 1-based position a.
func bestTagMatch(t string, p xmltree.Path, a int, tagSim semantics.TagSimilarity) float64 {
	best := 0.0
	for l1, tl := range p {
		d := tagSim.Sim(t, tl)
		if d == 0 {
			continue
		}
		l := l1 + 1
		dist := a - l
		if dist < 0 {
			dist = -dist
		}
		v := d / float64(1+dist)
		if v > best {
			best = v
		}
	}
	return best
}

// Content returns simC: the cosine similarity of the two items' TCU vectors.
func (cx *Context) Content(a, b *txn.Item) float64 {
	return vector.Cosine(a.Vector, b.Vector)
}

// Item returns sim(ei, ej) = f·simS + (1−f)·simC (Eq. 1).
func (cx *Context) Item(a, b *txn.Item) float64 {
	cx.Counters.ItemSims.Add(1)
	f := cx.Params.F
	s := 0.0
	if f > 0 {
		s += f * cx.Structural(a, b)
	}
	if f < 1 {
		s += (1 - f) * cx.Content(a, b)
	}
	return s
}

// ItemIDs is Item on interned ids.
func (cx *Context) ItemIDs(a, b txn.ItemID) float64 {
	return cx.Item(cx.Items.Get(a), cx.Items.Get(b))
}

// Matched reports γ-matching of two items (Eq. 2).
func (cx *Context) Matched(a, b *txn.Item) bool {
	return cx.Item(a, b) >= cx.Params.Gamma
}

// MatchSet, MatchCount and Transactions — the Eq. 4 surface — live in
// kernel.go with the dense match kernel.
