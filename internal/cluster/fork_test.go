package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/txn"
)

// forkTrace is what a run of representative passes leaves behind: every
// representative of every pass, as item ids, and the synthetic rows the run
// added to its item table (Rounds.Items).
type forkTrace struct {
	reps [][]txn.ItemID
	rows []string
}

// forkPasses runs rounds of relocation, one local pass and one global pass
// each, on a corpus of its own, with the passes' work items run serially in
// the order order returns (nil: the fork under workers). A global pass
// merges each cluster's local representative with its neighbour's, as two
// peers would, so global passes conflate committed synthetic items too. The
// corpus's table must not grow. direct runs the oracle instead of the passes:
// the serial loop, every representative computed in index order straight into
// the run's table, with no stage, no commit and no memo.
func forkPasses(t *testing.T, ds string, k, workers int, order func(n int) []int, direct bool) forkTrace {
	t.Helper()
	corpus, _ := synthCorpus(t, ds, 40)
	cx := ctxFor(corpus, 0.5, 0.6)
	s := corpus.Transactions
	base := cx.Items.Len()
	r := NewRounds(RepConfig{Ctx: cx, Workers: workers}, s, true)
	r.order = order
	reps := SelectInitial(s, k, rand.New(rand.NewSource(7)))
	var tr forkTrace
	keep := func(pass []*txn.Transaction) {
		for _, rep := range pass {
			var ids []txn.ItemID
			if rep != nil {
				ids = slices.Clone(rep.Items)
			}
			tr.reps = append(tr.reps, ids)
		}
	}
	for range 4 {
		assign, err := r.Assign(nil, reps)
		if err != nil {
			t.Fatal(err)
		}
		var locals, globals []*txn.Transaction
		var sizes []int
		if direct {
			members := make([][]*txn.Transaction, k)
			for i, a := range assign {
				if a >= 0 {
					members[a] = append(members[a], s[i])
				}
			}
			for _, mem := range members {
				locals, sizes = append(locals, ComputeLocalRepresentative(r.cfg, mem)), append(sizes, len(mem))
			}
		} else {
			locals, sizes = r.LocalReps(assign)
		}
		keep(locals)
		inputs := make([][]WeightedRep, k)
		for j := range inputs {
			n := (j + 1) % k
			inputs[j] = []WeightedRep{{Rep: locals[j], Weight: sizes[j]}, {Rep: locals[n], Weight: sizes[n]}}
		}
		if direct {
			for _, in := range inputs {
				globals = append(globals, ComputeGlobalRepresentative(r.cfg, in))
			}
		} else {
			globals = r.GlobalReps(inputs)
		}
		keep(globals)
		for j, g := range globals {
			if g != nil {
				reps[j] = g
			}
		}
	}
	if cx.Items.Len() != base {
		t.Fatalf("the passes added %d items to the corpus", cx.Items.Len()-base)
	}
	for id := base; id < r.Items().Len(); id++ {
		it := r.Items().Get(txn.ItemID(id))
		tr.rows = append(tr.rows, fmt.Sprintf("%d %d %q %v %v", it.ID, it.Path, it.Answer, it.Constituents, it.Vector.Entries()))
	}
	return tr
}

// TestRepresentativeForkScheduleOrders holds a pass's commit to index order
// under adversarial schedules: work items run in reverse and in seeded random
// orders — so a cluster finds staged items that a later cluster made — must
// leave every representative and the item table's synthetic rows exactly as
// index order leaves them, and so must the fork at several workers and the
// serial loop without a stage, which holds commit to cluster order.
func TestRepresentativeForkScheduleOrders(t *testing.T) {
	reverse := func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		return order
	}
	for _, ds := range []string{"DBLP", "Wikipedia"} {
		for _, k := range []int{4, 16} {
			want := forkPasses(t, ds, k, 1, nil, false)
			if len(want.rows) == 0 {
				t.Fatalf("%s k=%d: no synthetic item was interned", ds, k)
			}
			rng := rand.New(rand.NewSource(int64(k)))
			for name, got := range map[string]forkTrace{
				"reverse":   forkPasses(t, ds, k, 1, reverse, false),
				"random":    forkPasses(t, ds, k, 1, rng.Perm, false),
				"workers 4": forkPasses(t, ds, k, 4, nil, false),
				"serial":    forkPasses(t, ds, k, 1, nil, true),
			} {
				label := fmt.Sprintf("%s k=%d %s", ds, k, name)
				for i := range want.reps {
					if !slices.Equal(got.reps[i], want.reps[i]) {
						t.Fatalf("%s: representative %d of the run\n got  %v\n want %v", label, i, got.reps[i], want.reps[i])
					}
				}
				if !slices.Equal(got.rows, want.rows) {
					t.Fatalf("%s: synthetic rows differ (%d vs %d)", label, len(got.rows), len(want.rows))
				}
			}
		}
	}
}
