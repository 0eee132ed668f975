package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// manyPathCorpus builds a corpus whose path table holds a few dozen
// distinct tag paths, enough to spread pairs over many cache shards.
func manyPathCorpus(t testing.TB) *txn.Corpus {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, `<section%d><entry%d><title%d>item %d</title%d><note%d>note %d</note%d></entry%d></section%d>`,
			i%4, i, i, i, i, i, i, i, i, i%4)
	}
	sb.WriteString("</catalog>")
	tree, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	corpus := txn.Build([]*xmltree.Tree{tree}, txn.BuildOptions{})
	weighting.Apply(corpus)
	return corpus
}

// TestShardedCacheConcurrentStress hammers TagPathSim from many goroutines
// and checks that (a) every concurrently computed value equals the serial
// reference, (b) the hit/miss counters reconcile exactly with the call
// count, and (c) the cache converges to one entry per distinct pair.
// Run under `go test -race` this doubles as the cache's race test.
func TestShardedCacheConcurrentStress(t *testing.T) {
	corpus := manyPathCorpus(t)
	nPaths := corpus.Paths.Len()
	if nPaths < 20 {
		t.Fatalf("corpus too small: %d paths", nPaths)
	}

	// Serial reference values on a fresh context.
	ref := NewContext(corpus, Params{F: 1, Gamma: 0.5})
	refVal := make(map[[2]int]float64)
	distinct := 0
	for a := 0; a < nPaths; a++ {
		for b := 0; b < nPaths; b++ {
			refVal[[2]int{a, b}] = ref.TagPathSim(xmltree.PathID(a), xmltree.PathID(b))
			if a < b {
				distinct++
			}
		}
	}

	cx := NewContext(corpus, Params{F: 1, Gamma: 0.5})
	const goroutines = 16
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each goroutine walks the pair space from its own offset so
				// shards see mixed access orders.
				for i := 0; i < nPaths*nPaths; i++ {
					idx := (i + g*37) % (nPaths * nPaths)
					a, b := idx/nPaths, idx%nPaths
					got := cx.TagPathSim(xmltree.PathID(a), xmltree.PathID(b))
					if want := refVal[[2]int{a, b}]; got != want {
						select {
						case errs <- fmt.Sprintf("pair (%d,%d): got %v want %v", a, b, got, want):
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Counter reconciliation: every call with pa != pb is exactly one hit
	// or one miss; every miss computes exactly one path alignment. Racing
	// misses (two goroutines computing the same pair) are legal, so misses
	// may exceed the distinct pair count but never fall below it.
	offDiagonal := int64(goroutines) * rounds * int64(nPaths*nPaths-nPaths)
	hits := cx.Counters.CacheHits.Load()
	misses := cx.Counters.CacheMisses.Load()
	if hits+misses != offDiagonal {
		t.Errorf("hits(%d) + misses(%d) = %d, want %d calls", hits, misses, hits+misses, offDiagonal)
	}
	if got := cx.Counters.PathSims.Load(); got != misses {
		t.Errorf("path alignments %d != misses %d", got, misses)
	}
	if misses < int64(distinct) {
		t.Errorf("misses %d below distinct pair count %d", misses, distinct)
	}
	if got := cx.CacheLen(); got != distinct {
		t.Errorf("cache holds %d entries, want %d distinct pairs", got, distinct)
	}

	// A fully warmed cache serves a second sweep without a single miss.
	before := cx.Counters.CacheMisses.Load()
	for a := 0; a < nPaths; a++ {
		for b := 0; b < nPaths; b++ {
			cx.TagPathSim(xmltree.PathID(a), xmltree.PathID(b))
		}
	}
	if after := cx.Counters.CacheMisses.Load(); after != before {
		t.Errorf("warmed cache missed %d times", after-before)
	}
}

// TestShardOfStaysInRange pins the shard index mask to the shard count.
func TestShardOfStaysInRange(t *testing.T) {
	for a := 0; a < 200; a++ {
		for b := a; b < 200; b++ {
			if s := shardOf(pathPair{xmltree.PathID(a), xmltree.PathID(b)}); s >= cacheShards {
				t.Fatalf("shardOf(%d,%d) = %d out of range", a, b, s)
			}
		}
	}
}
