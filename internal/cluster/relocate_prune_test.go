package cluster

import (
	"math/rand"
	"testing"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// unprunedRelocate is the pre-kernel relocation semantics: every
// (transaction, representative) pair evaluated to completion with the full
// Eq. 4 similarity, argmax with ties to the lowest representative index.
// It is the oracle for the pruning equivalence test.
func unprunedRelocate(cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction) []int {
	assign := make([]int, len(s))
	for i, tr := range s {
		best, bestJ := 0.0, TrashCluster
		for j, rep := range reps {
			if rep == nil || rep.Len() == 0 {
				continue
			}
			v := cx.Transactions(tr, rep, nil)
			if v > best {
				best, bestJ = v, j
			}
		}
		assign[i] = bestJ
	}
	return assign
}

// TestRelocatePruningEquivalence pins the branch-and-bound assignment path
// byte-identical to the unpruned full evaluation, across parameter settings
// (including the tie-heavy γ = 0 and structure-only cases), with both raw
// initial representatives and synthetic (conflated) refined ones, for
// workers ∈ {1, 4}.
func TestRelocatePruningEquivalence(t *testing.T) {
	corpus := twoTopicDocs(t, 10)
	s := corpus.Transactions
	for _, p := range []sim.Params{
		{F: 0, Gamma: 0},
		{F: 0.5, Gamma: 0.6},
		{F: 0.5, Gamma: 0.9},
		{F: 1, Gamma: 0.7},
	} {
		cx := sim.NewContext(corpus, p)
		rng := rand.New(rand.NewSource(31))
		initial := SelectInitial(s, 4, rng)
		// Refined representatives contain conflated synthetic items — the
		// shape Relocate sees from round two onwards.
		cl := XKMeans(cx, s, Config{K: 4, MaxIter: 3, Seed: 31, Workers: 1})
		for _, reps := range [][]*txn.Transaction{initial, cl.Reps} {
			want := unprunedRelocate(cx, s, reps)
			for _, workers := range []int{1, 4} {
				got := flatRelocate(t, cx, s, reps, workers)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("params %+v workers %d: pruned assignment diverges at %d: %d != %d",
							p, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSSEWorkersEquivalence pins the scratch-reusing parallel SSE to the
// serial objective bit for bit.
func TestSSEWorkersEquivalence(t *testing.T) {
	corpus := twoTopicDocs(t, 8)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	cl := XKMeans(cx, s, Config{K: 3, MaxIter: 4, Seed: 5, Workers: 1})
	want := SSE(cx, s, cl.Assign, cl.Reps)
	for _, workers := range []int{2, 4, 8} {
		if got := SSEWorkers(cx, s, cl.Assign, cl.Reps, workers); got != want {
			t.Fatalf("SSEWorkers(%d) = %v, serial %v", workers, got, want)
		}
	}
}
