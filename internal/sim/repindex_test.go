package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// repIndexParamsGrid adds to kernelParamsGrid the points where the two
// channels of posting-list scoring meet: f = γ exactly, and γ just above f.
var repIndexParamsGrid = append([]Params{
	{F: 0.5, Gamma: 0.6},
	{F: 0.4, Gamma: 0.4},
	{F: 0.7, Gamma: 0.75},
}, kernelParamsGrid...)

// assertScoresExact requires the index's answer for tr to be the dense
// kernel's and the seed oracle's, bit for bit and for every representative:
// the candidates are exactly the representatives scoring above 0, each with
// its exact similarity, and Best is the flat scan's lowest-index argmax.
func assertScoresExact(t *testing.T, label string, cx *Context, ix *RepIndex, rq *RepQuery, tr *txn.Transaction, reps []*txn.Transaction) {
	t.Helper()
	n := ix.Candidates(tr, rq)
	got := map[int]float64{}
	for c := 0; c < n; c++ {
		j, v := rq.Candidate(c)
		if _, dup := got[j]; dup {
			t.Fatalf("%s: representative %d listed twice", label, j)
		}
		got[j] = v
	}
	wantJ, want := -1, 0.0
	for j, rep := range reps {
		v := 0.0
		if rep != nil {
			v = cx.Transactions(tr, rep, nil)
			if seed := SeedTransactions(cx, tr, rep); seed != v {
				t.Fatalf("%s rep %d: kernel %v != seed %v", label, j, v, seed)
			}
		}
		if s, ok := got[j]; s != v || ok != (v > 0) {
			t.Fatalf("%s rep %d: index score %v (listed %v), kernel %v", label, j, s, ok, v)
		}
		if v > want {
			wantJ, want = j, v
		}
	}
	if j, v := rq.Best(); j != wantJ || v != want {
		t.Fatalf("%s: Best = (%d, %v), flat argmax (%d, %v)", label, j, v, wantJ, want)
	}
}

// TestRepIndexSoundness is the differential suite of posting-list scoring on
// randomized tie-heavy corpora: over the whole parameter grid — f ≥ γ, f = 0
// and f = 1 included — the sweep's score of every (document, representative)
// pair equals Context.Transactions and SeedTransactions bit for bit. The
// corpus includes empty transactions, items with zero vectors, items whose
// tag path is empty (two empty tag paths score simS = 1), and representative
// sets with nil and empty entries, duplicates, and representatives sharing
// items with the documents (every representative is itself a document).
func TestRepIndexSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	corpus := randomKernelCorpus(rng, 100, 40)
	// Items with EMPTY tag paths: interned at the bare answer-marker path,
	// whose tag path strips to nothing.
	emptyTagPath := corpus.Paths.Intern(xmltree.Path{"S"})
	var extra []txn.ItemID
	for _, answer := range []string{"e1", "e2", "e3"} {
		id := corpus.Items.Intern(emptyTagPath, answer)
		corpus.Items.SetVector(id, vector.FromMap(map[int32]float64{9: 1}))
		extra = append(extra, id)
	}
	// Items with ZERO vectors, at a path the corpus uses and at the empty one.
	for _, p := range []xmltree.PathID{corpus.Items.Get(0).Path, emptyTagPath} {
		extra = append(extra, corpus.Items.Intern(p, "no text"))
	}
	docBase := len(corpus.Transactions)
	for i := 0; i < 8; i++ {
		ids := []txn.ItemID{extra[rng.Intn(len(extra))], extra[rng.Intn(len(extra))]}
		if rng.Intn(2) == 0 {
			ids = append(ids, corpus.Transactions[rng.Intn(docBase)].Items...)
		}
		corpus.Transactions = append(corpus.Transactions, txn.NewTransaction(ids, docBase+i, 0, -1))
	}
	trs := corpus.Transactions

	ix, rq := NewRepIndex(), NewRepQuery()
	for _, p := range repIndexParamsGrid {
		cx := NewContext(corpus, p)
		reps := make([]*txn.Transaction, 12)
		for j := range reps {
			switch rng.Intn(7) {
			case 0:
				// leave nil
			case 1:
				reps[j] = txn.NewTransaction(nil, -1, -1, -1)
			case 2:
				reps[j] = trs[0] // duplicate-prone
			default:
				reps[j] = trs[rng.Intn(len(trs))]
			}
		}
		ix.Build(cx, reps) // one index across the grid: rebuilds must not leak
		if !ix.Enabled() {
			if p.Gamma > 0 {
				t.Fatalf("params %+v: index disabled", p)
			}
			continue
		}
		for di, tr := range trs {
			assertScoresExact(t, fmt.Sprintf("params %+v doc %d", p, di), cx, ix, rq, tr, reps)
		}
	}
}

// TestRepIndexPostBuildInterning pins the staleness contract for growth:
// tag paths, terms and items interned AFTER Build (the serve layer's online
// adds, which weight the new items and so move the table's vector version)
// leave the index enabled and exact — a new term has no posting, and simS
// against a new tag path is computed directly.
func TestRepIndexPostBuildInterning(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	corpus := randomKernelCorpus(rng, 60, 20)
	reps := []*txn.Transaction{corpus.Transactions[0], corpus.Transactions[1], corpus.Transactions[2]}
	for pi, p := range []Params{{F: 0.5, Gamma: 0.5}, {F: 0.6, Gamma: 0.3}, {F: 0, Gamma: 0.5}} {
		cx := NewContext(corpus, p)
		ix := NewRepIndex()
		ix.Build(cx, reps)

		// A new path sharing tags with the corpus, a never-seen term, and a
		// second new item on an old term so that content still matches.
		newPath := corpus.Paths.Intern(xmltree.Path{"root", "a", fmt.Sprintf("new%d", pi), "S"})
		fresh := corpus.Items.Intern(newPath, "fresh")
		corpus.Items.SetVector(fresh, vector.FromMap(map[int32]float64{7770 + int32(pi): 1}))
		known := corpus.Items.Intern(newPath, "known")
		corpus.Items.SetVector(known, vector.FromMap(map[int32]float64{1: 1}))
		if !ix.Enabled() {
			t.Fatalf("params %+v: weighting new items disabled the index", p)
		}
		rq := NewRepQuery()
		for _, base := range corpus.Transactions[3:8] {
			ids := append([]txn.ItemID{fresh, known}, base.Items...)
			doc := txn.NewTransaction(ids, 999, 0, -1)
			assertScoresExact(t, "post-build doc", cx, ix, rq, doc, reps)
		}
	}
}

// TestRepIndexStaleWeights pins the staleness contract for rewrites: the
// postings hold weights, so once a weighting pass rewrites the vector of an
// item a representative carries the index must stop answering (callers fall
// back to the flat scan) until it is rebuilt — and a rebuild is exact again.
func TestRepIndexStaleWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	corpus := randomKernelCorpus(rng, 60, 20)
	cx := NewContext(corpus, Params{F: 0.3, Gamma: 0.5})
	var reps []*txn.Transaction
	for _, tr := range corpus.Transactions {
		if tr.Len() > 0 && len(reps) < 4 {
			reps = append(reps, tr)
		}
	}
	ix, rq := NewRepIndex(), NewRepQuery()
	ix.Build(cx, reps)
	if !ix.Enabled() {
		t.Fatal("index disabled after Build")
	}
	// Rewriting an item no representative carries is not staleness.
	carried := map[txn.ItemID]bool{}
	for _, rep := range reps {
		for _, id := range rep.Items {
			carried[id] = true
		}
	}
	for id := 0; id < corpus.Items.Len(); id++ {
		if !carried[txn.ItemID(id)] {
			corpus.Items.SetVector(txn.ItemID(id), vector.FromMap(map[int32]float64{2: 3}))
			break
		}
	}
	if !ix.Enabled() {
		t.Fatal("rewriting an item outside the representatives disabled the index")
	}
	corpus.Items.SetVector(reps[0].Items[0], vector.FromMap(map[int32]float64{1: 0.25, 3: 2}))
	if ix.Enabled() {
		t.Fatal("index still enabled after a representative item's vector was rewritten")
	}
	ix.Build(cx, reps)
	if !ix.Enabled() {
		t.Fatal("index disabled after the rebuild")
	}
	for _, tr := range corpus.Transactions {
		assertScoresExact(t, "rebuilt", cx, ix, rq, tr, reps)
	}
}

// TestRepIndexDisabled pins the self-disabling condition γ ≤ 0 (every pair
// matches, nothing is sparse).
func TestRepIndexDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	corpus := randomKernelCorpus(rng, 30, 10)
	reps := corpus.Transactions[:3]

	cx := NewContext(corpus, Params{F: 0.5, Gamma: 0})
	ix := NewRepIndex()
	ix.Build(cx, reps)
	if ix.Enabled() {
		t.Error("index enabled at γ = 0")
	}
}

// TestRepQueryZeroAllocWarm: a warm query and a warm rebuild allocate
// nothing, whichever channel carries the pairs.
func TestRepQueryZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	corpus := randomKernelCorpus(rng, 60, 20)
	reps := corpus.Transactions[:8]
	for _, p := range []Params{{F: 0.5, Gamma: 0.8}, {F: 0.6, Gamma: 0.4}, {F: 1, Gamma: 0.6}} {
		cx := NewContext(corpus, p)
		ix, sc := NewRepIndex(), NewScratch()
		ix.Build(cx, reps)
		for _, tr := range corpus.Transactions {
			ix.Candidates(tr, sc.Query())
		}
		if avg := testing.AllocsPerRun(100, func() {
			for _, tr := range corpus.Transactions {
				ix.Candidates(tr, sc.Query())
			}
		}); avg != 0 {
			t.Errorf("params %+v: warm queries allocate %.2f/pass, want 0", p, avg)
		}
		if avg := testing.AllocsPerRun(50, func() { ix.Build(cx, reps) }); avg != 0 {
			t.Errorf("params %+v: warm rebuild allocates %.2f/op, want 0", p, avg)
		}
	}
}

// TestRepIndexConcurrentRevalidation: queries from several goroutines share
// one index (the serving layer's classify path) while online adds keep moving
// the table's vector version; every goroutine revalidates, the index stays
// enabled and exact, and a rewrite of a representative's item disables it for
// all of them.
func TestRepIndexConcurrentRevalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	corpus := randomKernelCorpus(rng, 60, 20)
	cx := NewContext(corpus, Params{F: 0.3, Gamma: 0.5})
	var reps []*txn.Transaction
	for _, tr := range corpus.Transactions {
		if tr.Len() > 0 && len(reps) < 4 {
			reps = append(reps, tr)
		}
	}
	ix := NewRepIndex()
	ix.Build(cx, reps)
	want := make([][2]float64, len(corpus.Transactions))
	for i, tr := range corpus.Transactions {
		rq := NewRepQuery()
		ix.Candidates(tr, rq)
		j, v := rq.Best()
		want[i] = [2]float64{float64(j), v}
	}
	path := corpus.Items.Get(0).Path
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rq := NewRepQuery()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, tr := range corpus.Transactions {
					if !ix.Enabled() {
						t.Error("online adds disabled the index")
						return
					}
					ix.Candidates(tr, rq)
					if j, v := rq.Best(); want[i] != [2]float64{float64(j), v} {
						t.Errorf("doc %d: Best = (%d, %v) under concurrent adds, want %v", i, j, v, want[i])
						return
					}
				}
			}
		}()
	}
	for n := 0; n < 200; n++ {
		id := corpus.Items.Intern(path, fmt.Sprintf("added %d", n))
		corpus.Items.SetVector(id, vector.FromMap(map[int32]float64{int32(n % 7): 1}))
	}
	close(stop)
	wg.Wait()
	corpus.Items.SetVector(reps[0].Items[0], vector.FromMap(map[int32]float64{4: 2}))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ix.Enabled() {
				t.Error("index enabled after a representative item's vector was rewritten")
			}
		}()
	}
	wg.Wait()
}
