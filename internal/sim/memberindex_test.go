package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xmlclust/internal/semantics"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// assertObjectiveExact requires one step of the indexed objective to be the
// dense kernel's sum over the members, bit for bit, and TxnSims to have moved
// by the members that score above zero.
func assertObjectiveExact(t *testing.T, label string, cx *Context, mx *MemberIndex, members []*txn.Transaction, rep *txn.Transaction) {
	t.Helper()
	before := cx.Counters.TxnSims.Load()
	got := mx.Objective(rep)
	scored := cx.Counters.TxnSims.Load() - before
	want, positive := 0.0, int64(0)
	for _, tr := range members {
		v := cx.Transactions(tr, rep, nil)
		if seed := SeedTransactions(cx, tr, rep); seed != v {
			t.Fatalf("%s: kernel %v != seed %v", label, v, seed)
		}
		if v > 0 {
			positive++
		}
		want += v
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: indexed objective %v (%#x), dense %v (%#x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if scored != positive {
		t.Fatalf("%s: TxnSims moved by %d, %d members score above zero", label, scored, positive)
	}
}

// TestMemberIndexObjectiveExact is the differential suite of the member
// index on the randomized tie-heavy corpus: over the whole parameter grid
// (f = 0, f = 1, f ≥ γ for channel (b), f < γ) and for clusters of one to
// forty members — empty transactions and the same transaction twice
// included — a sequence of representatives that grows the way refinement
// grows it (most items kept from the step before, some replaced, some new)
// scores exactly what the dense kernel sums. The items include zero vectors,
// empty tag paths, long vectors of irrational weights over shared terms (so
// the order products are added in shows in the bits), raw items held by both
// a member and the representative (the common-id correction), and — after
// the index was built — an item with a term and a tag path the index has
// never seen. One scratch serves every build, so nothing may leak from one
// cluster's index into the next.
func TestMemberIndexObjectiveExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	corpus := randomKernelCorpus(rng, 100, 60)
	items, paths := corpus.Items, corpus.Paths
	var extra []txn.ItemID
	emptyTagPath := paths.Intern(xmltree.Path{"S"})
	for _, p := range []xmltree.PathID{items.Get(0).Path, emptyTagPath} {
		extra = append(extra, items.Intern(p, "no text")) // zero vectors
	}
	for i := 0; i < 24; i++ {
		m := map[int32]float64{}
		for term := int32(1); term <= 8; term++ {
			if rng.Intn(3) > 0 {
				m[term] = rng.Float64()
			}
		}
		id := items.Intern(items.Get(txn.ItemID(rng.Intn(items.Len()))).Path, fmt.Sprintf("long %d", i))
		items.SetVector(id, vector.FromMap(m))
		extra = append(extra, id)
	}
	for i := 0; i < 20; i++ {
		ids := append([]txn.ItemID{extra[rng.Intn(len(extra))], extra[rng.Intn(len(extra))]},
			corpus.Transactions[rng.Intn(60)].Items...)
		corpus.Transactions = append(corpus.Transactions, txn.NewTransaction(ids, 60+i, 0, -1))
	}
	trs := corpus.Transactions
	allItems := func() txn.ItemID { return txn.ItemID(rng.Intn(items.Len())) }

	sc := NewScratch()
	late := 0
	for pi, p := range repIndexParamsGrid {
		cx := NewContext(corpus, p)
		for trial := 0; trial < 12; trial++ {
			members := make([]*txn.Transaction, []int{1, 2, 3, 7, 20, 40}[trial%6])
			for m := range members {
				members[m] = trs[rng.Intn(len(trs))]
			}
			mx := sc.Members(cx, members)
			if (mx != nil) != (p.Gamma > 0) {
				t.Fatalf("params %+v: index served = %v", p, mx != nil)
			}
			if mx == nil {
				continue
			}
			ids := []txn.ItemID{allItems()}
			for step := 0; step < 10; step++ {
				switch rng.Intn(4) {
				case 0: // a group grew: one item replaced
					ids[rng.Intn(len(ids))] = allItems()
				case 1: // a raw item of a member: held by both sides
					if tr := members[rng.Intn(len(members))]; tr.Len() > 0 {
						ids = append(ids, tr.Items[rng.Intn(tr.Len())])
					}
				default:
					ids = append(ids, allItems(), allItems())
				}
				if step == 6 {
					// Interned after the index was built: a term with no
					// posting, among terms that have one, under a new tag path.
					late++
					tp := paths.Intern(xmltree.Path{"root", "late", fmt.Sprint(late), "S"})
					id := items.Intern(tp, "late")
					items.SetVector(id, vector.FromMap(map[int32]float64{1: 0.3, 2: 0.7, int32(1000 + late): 0.9}))
					ids = append(ids, id)
				}
				rep := txn.NewTransaction(ids, -1, -1, -1)
				assertObjectiveExact(t, fmt.Sprintf("params %d %+v trial %d step %d", pi, p, trial, step), cx, mx, members, rep)
			}
		}
	}
}

// TestMemberIndexDeclines: where posting-list scoring cannot serve — γ ≤ 0,
// a semantic Δ — there is no member index and refinement runs the dense
// kernel, as a disabled RepIndex sends relocation down the flat scan.
func TestMemberIndexDeclines(t *testing.T) {
	corpus := randomKernelCorpus(rand.New(rand.NewSource(3)), 30, 10)
	sc := NewScratch()
	if sc.Members(NewContext(corpus, Params{F: 0.5, Gamma: 0}), corpus.Transactions) != nil {
		t.Error("γ = 0 was indexed")
	}
	cx := NewContext(corpus, Params{F: 0.5, Gamma: 0.6})
	cx.TagSim = semantics.NewLexical()
	if sc.Members(cx, corpus.Transactions) != nil {
		t.Error("a semantic Δ was indexed")
	}
}
