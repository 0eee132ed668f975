package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"xmlclust/internal/txn"
)

// content is a representative set by content: each representative as its
// flattened raw ids, ascending (nil for none). Synthetic ids are handles of
// one job's table; this is what two tables can agree on.
func content(tab *txn.ItemTable, reps []*txn.Transaction) [][]txn.ItemID {
	out := make([][]txn.ItemID, len(reps))
	for j, rep := range reps {
		if rep != nil {
			for _, id := range rep.Items {
				out[j] = append(out[j], tab.Get(id).Flatten()...)
			}
			slices.Sort(out[j])
		}
	}
	return out
}

// forkRun is what a run of representative passes gives: every round's
// assignment, every representative of every pass by content, and every
// global ranking as each item's rank bits by content.
type forkRun struct {
	assigns [][]int
	reps    [][][]txn.ItemID
	ranks   []map[string]uint64
}

// forkPasses runs rounds of relocation, one local pass and one global pass
// each, until the assignment repeats (at most 6), on a corpus of its own,
// with the passes' work items run serially in the order order returns (nil:
// the fork under workers). A global pass merges each cluster's local
// representative with its neighbour's, as two peers would, so global passes
// conflate synthetic items too. The corpus's table must not grow.
func forkPasses(t *testing.T, ds string, k, workers int, order func(n int) []int) forkRun {
	t.Helper()
	corpus, _ := synthCorpus(t, ds, 40)
	cx := ctxFor(corpus, 0.5, 0.6)
	s := corpus.Transactions
	base := cx.Items.Len()
	r := NewRounds(RepConfig{Ctx: cx, Workers: workers}, s, true)
	r.order = order
	reps := SelectInitial(s, k, rand.New(rand.NewSource(7)))
	var run forkRun
	for len(run.assigns) < 6 {
		assign, err := r.Assign(nil, reps)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(run.assigns); n > 0 && slices.Equal(assign, run.assigns[n-1]) {
			break
		}
		run.assigns = append(run.assigns, assign)
		locals, sizes := r.LocalReps(assign)
		inputs := make([][]WeightedRep, k)
		for j := range inputs {
			n := (j + 1) % k
			inputs[j] = []WeightedRep{{Rep: locals[j], Weight: sizes[j]}, {Rep: locals[n], Weight: sizes[n]}}
		}
		for _, in := range inputs {
			ranks := map[string]uint64{}
			for _, ri := range viewGlobalRanking(r.cfg.Ctx, in) {
				ranks[fmt.Sprint(r.Items().Get(ri.id).Flatten())] = math.Float64bits(ri.rank)
			}
			run.ranks = append(run.ranks, ranks)
		}
		globals := r.GlobalReps(inputs)
		run.reps = append(run.reps, content(r.Items(), locals), content(r.Items(), globals))
		for j, g := range globals {
			if g != nil {
				reps[j] = g
			}
		}
	}
	if cx.Items.Len() != base {
		t.Fatalf("the passes added %d items to the corpus", cx.Items.Len()-base)
	}
	if r.Items().Len() == base {
		t.Fatalf("%s k=%d: no synthetic item was interned", ds, k)
	}
	return run
}

// TestRepresentativeForkScheduleOrders is the contract fork's comment
// argues: a pass's work items intern into the job's table in whatever order
// they run, so its synthetic ids follow the schedule, and nothing computed
// may. Work items run in index, reversed and shuffled order, and under the
// fork at two workers and one per CPU, must give the same assignments,
// rounds, representatives by content and rank bits by content.
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
			want := forkPasses(t, ds, k, 1, nil)
			rng := rand.New(rand.NewSource(int64(k)))
			for name, got := range map[string]forkRun{
				"reverse":   forkPasses(t, ds, k, 1, reverse),
				"shuffled":  forkPasses(t, ds, k, 1, rng.Perm),
				"workers 2": forkPasses(t, ds, k, 2, nil),
				"workers 0": forkPasses(t, ds, k, 0, nil),
			} {
				label := fmt.Sprintf("%s k=%d %s", ds, k, name)
				switch {
				case !reflect.DeepEqual(got.assigns, want.assigns):
					t.Errorf("%s: assignments differ over %d and %d rounds", label, len(got.assigns), len(want.assigns))
				case !reflect.DeepEqual(got.reps, want.reps):
					t.Errorf("%s: representatives differ by content", label)
				case !reflect.DeepEqual(got.ranks, want.ranks):
					t.Errorf("%s: a global ranking's ranks differ by content", label)
				}
			}
		}
	}
}
