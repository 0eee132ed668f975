package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// tierMatrixSets is a seeded sequence of representative sets exercising
// every way one Assign can differ from the previous one: the same slice
// again, one representative changed, a nil entry, an equal-content copy under
// a new pointer, the representative that won the most documents replaced,
// then random churn.
func tierMatrixSets(cx *sim.Context, s []*txn.Transaction, k int) [][]*txn.Transaction {
	rng := rand.New(rand.NewSource(41))
	refined := xkmeans(cx, s, runCfg{K: k, MaxIter: 4, Seed: 41, Workers: 1}).Reps
	cur := SelectInitial(s, k, rng)
	sets := [][]*txn.Transaction{cur, cur}
	next := func(mutate func(reps []*txn.Transaction)) {
		cur = slices.Clone(cur)
		mutate(cur)
		sets = append(sets, cur)
	}
	next(func(reps []*txn.Transaction) { reps[2] = refined[2] })
	next(func(reps []*txn.Transaction) { reps[4] = nil })
	next(func(reps []*txn.Transaction) { reps[0] = txn.NewTransaction(reps[0].Items, -1, -1, -1) })
	next(func(reps []*txn.Transaction) {
		won := make([]int, k)
		assign, _ := seedRelocate(cx, s, reps)
		for _, a := range assign {
			if a >= 0 {
				won[a]++
			}
		}
		top := 0
		for j := range won {
			if won[j] > won[top] {
				top = j
			}
		}
		reps[top] = s[rng.Intn(len(s))]
	})
	for step := 0; step < 6; step++ {
		next(func(reps []*txn.Transaction) {
			for n := rng.Intn(3); n >= 0; n-- {
				switch j := rng.Intn(k); rng.Intn(4) {
				case 0:
					reps[j] = nil
				case 1:
					reps[j] = refined[rng.Intn(k)]
				default:
					reps[j] = s[rng.Intn(len(s))]
				}
			}
		})
	}
	return append(sets, cur) // converged: nothing changes
}

// TestRoundsTierMatrix is the whole-engine oracle: on the fast and on the
// reference engine, at one and four workers, every Assign must equal the flat
// argmax over the seed similarity (sim.SeedTransactions), every Objective the
// seed objective Σ(1 − SeedTransactions) bit for bit, and every LocalReps the
// reference engine's memo-free representatives.
func TestRoundsTierMatrix(t *testing.T) {
	const k = 6
	corpus := tieHeavyCorpus(t, 60, 29)
	s := corpus.Transactions
	for _, p := range []sim.Params{{F: 0.5, Gamma: 0.6}, {F: 0.5, Gamma: 0.4}, {F: 0.5, Gamma: 0}} {
		cx := sim.NewContext(corpus, p)
		sets := tierMatrixSets(cx, s, k)
		wantAssign := make([][]int, len(sets))
		wantObjective := make([]float64, len(sets))
		wantLocals := make([][]*txn.Transaction, len(sets))
		plain := NewRounds(RepConfig{Ctx: cx, Workers: 1}, s, false)
		for step, reps := range sets {
			wantAssign[step], wantObjective[step] = seedRelocate(cx, s, reps)
			if _, err := plain.Assign(nil, reps); err != nil {
				t.Fatal(err)
			}
			wantLocals[step], _ = plain.LocalReps(wantAssign[step])
		}
		for _, fast := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("params %+v fast %v workers %d", p, fast, workers)
				r := NewRounds(RepConfig{Ctx: cx, Workers: workers}, s, fast)
				for step, reps := range sets {
					got, err := r.Assign(nil, reps)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, wantAssign[step]) {
						t.Fatalf("%s: step %d: assignment differs from the seed argmax\n got %v\nwant %v",
							label, step, got, wantAssign[step])
					}
					if obj := r.Objective(); obj != wantObjective[step] {
						t.Fatalf("%s: step %d: objective %v, seed objective %v", label, step, obj, wantObjective[step])
					}
					if locals, _ := r.LocalReps(got); !RepsEqual(locals, wantLocals[step]) {
						t.Fatalf("%s: step %d: local representatives differ from the memo-free ones", label, step)
					}
				}
			}
		}
	}
}

// TestRoundsAssignCanceled pins cancellation: an Assign under a done ctx
// returns ctx's error, and the engine stays usable — the next Assign against
// the same representatives equals a fresh engine's answer.
func TestRoundsAssignCanceled(t *testing.T) {
	corpus := tieHeavyCorpus(t, 40, 5)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	sets := repTrajectory(cx, s, 5, 3)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fast := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			cfg := RepConfig{Ctx: cx, Workers: workers}
			want, err := NewRounds(cfg, s, fast).Assign(context.Background(), sets[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, primed := range []bool{false, true} {
				r := NewRounds(cfg, s, fast)
				if primed {
					if _, err := r.Assign(context.Background(), sets[0]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := r.Assign(canceled, sets[1]); !errors.Is(err, context.Canceled) {
					t.Fatalf("fast %v workers %d primed %v: canceled Assign returned %v", fast, workers, primed, err)
				}
				got, err := r.Assign(context.Background(), sets[1])
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("fast %v workers %d primed %v: Assign after a canceled pass differs from a fresh engine", fast, workers, primed)
				}
			}
		}
	}
}
