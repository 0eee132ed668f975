package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/xmltree"
)

// objectiveParamsGrid is internal/sim's repIndexParamsGrid: the points where
// the two channels of posting-list scoring meet, then f ∈ {0, 0.3, 0.5, 1} ×
// γ ∈ {0, 0.5, 0.8, 1} (f = 0, f = 1, f ≥ γ for channel (b), f < γ, and the
// γ = 0 column where refinement runs the dense kernel) and a few off-grid
// points.
var objectiveParamsGrid = func() []sim.Params {
	grid := []sim.Params{
		{F: 0.5, Gamma: 0.6}, {F: 0.4, Gamma: 0.4}, {F: 0.7, Gamma: 0.75},
		{F: 0, Gamma: 0.9}, {F: 0.5, Gamma: 0.4}, {F: 1, Gamma: 0.6}, {F: 1, Gamma: 0.999},
	}
	for _, f := range []float64{0, 0.3, 0.5, 1} {
		for _, gamma := range []float64{0, 0.5, 0.8, 1} {
			grid = append(grid, sim.Params{F: f, Gamma: gamma})
		}
	}
	return grid
}()

// stepAudit checks every greedy step of one representative computation
// against the dense kernel and notes which of the shapes the suite must have
// seen did occur.
type stepAudit struct {
	t     *testing.T
	cx    *sim.Context
	label string

	members  []*txn.Transaction
	oneByOne bool // items join one at a time unless their ranks tie
	steps    int
	mark     int64                         // TxnSims after the previous step's audit
	raws     int                           // raw constituents of the previous step's candidate
	changes  map[xmltree.PathID]int        // how often a path group's item changed
	last     map[xmltree.PathID]txn.ItemID // the item a path group conflated to last
	held     map[txn.ItemID]bool           // raw items of the members
	seen     map[string]bool               // shapes that occurred, suite-wide
}

func (a *stepAudit) begin(label string, members []*txn.Transaction, oneByOne bool) {
	a.label, a.members, a.oneByOne, a.steps, a.raws = label, members, oneByOne, 0, 0
	a.changes, a.last = map[xmltree.PathID]int{}, map[xmltree.PathID]txn.ItemID{}
	a.held = map[txn.ItemID]bool{}
	for _, tr := range members {
		for _, id := range tr.Items {
			a.held[id] = true
			if a.cx.Items.Get(id).Vector.IsZero() {
				a.seen["zero vector"] = true
			}
		}
	}
	if len(members) == 1 {
		a.seen["cluster of one"] = true
	}
	a.mark = a.cx.Counters.TxnSims.Load()
}

// observe is RepConfig.observe: rep is the step's candidate and got the
// objective the engine computed for it.
func (a *stepAudit) observe(rep *txn.Transaction, got float64) {
	a.t.Helper()
	cx := a.cx
	moved := cx.Counters.TxnSims.Load() - a.mark
	want, positive := 0.0, int64(0)
	for _, tr := range a.members {
		v := cx.Transactions(tr, rep, nil)
		if v > 0 {
			positive++
		}
		want += v
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		a.t.Fatalf("%s step %d: objective %v (%#x), Σ Transactions %v (%#x)",
			a.label, a.steps, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	// The member index counts the members it scored above zero; the dense
	// kernel, where it runs instead (γ ≤ 0), one per member.
	if cx.Params.Gamma <= 0 {
		positive = int64(len(a.members))
	}
	if moved != positive {
		a.t.Fatalf("%s step %d: TxnSims moved by %d, want %d", a.label, a.steps, moved, positive)
	}

	raws := 0
	for _, id := range rep.Items {
		it := cx.Items.Get(id)
		raws += len(it.Flatten())
		if a.held[id] {
			a.seen["item held by a member and rep′"] = true
		}
		if prev, ok := a.last[it.Path]; ok && prev != id {
			if a.changes[it.Path]++; a.changes[it.Path] >= 2 {
				a.seen["group grew twice"] = true
			}
		}
		a.last[it.Path] = id
	}
	if a.oneByOne && raws-a.raws > 1 {
		a.seen["rank ties that batch"] = true
	}
	a.raws = raws
	a.steps++
	a.mark = cx.Counters.TxnSims.Load()
}

// TestRefinementObjectiveStepByStep audits the refinement objective at every
// greedy step of ComputeLocalRepresentative and ComputeGlobalRepresentative —
// the value the member index returns, not just the representative that comes
// out — on generated DBLP, IEEE and Wikipedia and on the tie-heavy corpus,
// over the parameter grid of the posting-list suites and all three return
// rules: it equals Σ cx.Transactions(member, rep′) by math.Float64bits, and
// TxnSims moves by the members scored above zero. Clusters are what a
// relocation against random initial representatives yields, plus the whole
// collection and a cluster of one.
func TestRefinementObjectiveStepByStep(t *testing.T) {
	type named struct {
		name   string
		corpus *txn.Corpus
	}
	var corpora []named
	for _, ds := range []struct {
		name string
		docs int
	}{{"DBLP", 40}, {"IEEE", 6}, {"Wikipedia", 12}} {
		c, _ := synthCorpus(t, ds.name, ds.docs)
		corpora = append(corpora, named{ds.name, c})
	}
	corpora = append(corpora, named{"tie-heavy", tieHeavyCorpus(t, 60, 31)})

	seen := map[string]bool{}
	steps := 0
	for _, nc := range corpora {
		s := nc.corpus.Transactions
		if len(s) > 48 {
			s = s[:48] // every step is checked densely against every member
		}
		for pi, p := range objectiveParamsGrid {
			cx := sim.NewContext(nc.corpus, p)
			// Clusters of a relocation: real memberships, sizes from one up.
			rng := rand.New(rand.NewSource(int64(7 + pi)))
			assign := flatRelocate(t, cx, s, SelectInitial(s, 4, rng), 1)
			clusters := [][]*txn.Transaction{s, s[:1]}
			for j := 0; j < 4; j++ {
				var mem []*txn.Transaction
				for i, a := range assign {
					if a == j {
						mem = append(mem, s[i])
					}
				}
				if len(mem) > 0 {
					clusters = append(clusters, mem)
				}
			}
			for _, rule := range []ReturnRule{ReturnBestObjective, ReturnLastImproving, ReturnPrevious} {
				audit := &stepAudit{t: t, cx: cx, seen: seen}
				cfg := RepConfig{Ctx: cx, Rule: rule, observe: audit.observe}
				var locals []WeightedRep
				for ci, mem := range clusters {
					audit.begin(fmt.Sprintf("%s %+v rule %d local %d", nc.name, p, rule, ci), mem, rule != ReturnBestObjective)
					rep := ComputeLocalRepresentative(cfg, mem)
					steps += audit.steps
					if ci >= 2 && rep != nil {
						locals = append(locals, WeightedRep{Rep: rep, Weight: len(mem)})
					}
				}
				if len(locals) == 0 {
					continue
				}
				// The global step's cluster is the local representatives
				// themselves (synthetic members).
				var reps []*txn.Transaction
				for _, wr := range locals {
					reps = append(reps, wr.Rep)
				}
				audit.begin(fmt.Sprintf("%s %+v rule %d global", nc.name, p, rule), reps, false)
				ComputeGlobalRepresentative(cfg, locals)
				steps += audit.steps
			}
		}
	}
	for _, shape := range []string{"zero vector", "cluster of one", "item held by a member and rep′", "group grew twice", "rank ties that batch"} {
		if !seen[shape] {
			t.Errorf("no audited step had the shape %q", shape)
		}
	}
	t.Logf("%d refinement steps audited", steps)
}

// TestLocalRepresentativeAllocations is the refinement allocation guard (CI
// runs it beside the two zero-alloc kernel guards): a warm
// ComputeLocalRepresentative — pools warm, its synthetic items interned
// already — allocates for each step's candidate transaction and the keys of
// the groups that grew, O(steps), and nothing for ranking, per member, per
// posting or per pair: the ranking view, the conflation, the index, its
// columns and the pair lists are pooled. Two assertions: a
// budget of steps × a small constant, and the sharper one — the same cluster
// with every member listed twice (same items, same ranks, twice the rows,
// holders and pairs) allocates exactly as much.
func TestLocalRepresentativeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drains sync.Pool at random; the guard runs without it")
	}
	cx, s, _ := relocateFixture(t, 8)
	members := s[:len(s)/2]
	twice := append(append([]*txn.Transaction{}, members...), members...)
	measure := func(c []*txn.Transaction) (steps int, allocs float64) {
		cfg := RepConfig{Ctx: cx, observe: func(*txn.Transaction, float64) { steps++ }}
		ComputeLocalRepresentative(cfg, c) // interns the synthetic items, warms the pools
		steps = 0
		ComputeLocalRepresentative(cfg, c)
		cfg.observe = nil
		return steps, testing.AllocsPerRun(20, func() { ComputeLocalRepresentative(cfg, c) })
	}
	steps, allocs := measure(members)
	steps2, allocs2 := measure(twice)
	t.Logf("%d members: %d steps, %.0f allocs/op (%.1f per step); listed twice: %d steps, %.0f allocs/op",
		len(members), steps, allocs, allocs/float64(steps), steps2, allocs2)
	const perStep = 8 // measured 4.2: two allocations per candidate transaction, a merged-answer key per grown group
	if allocs > float64(perStep*steps) {
		t.Errorf("%.0f allocs/op for %d steps, budget %d per step", allocs, steps, perStep)
	}
	if steps2 == steps && allocs2 != allocs {
		t.Errorf("twice the members allocate %.0f/op, once %.0f/op: something allocates per member", allocs2, allocs)
	}
}
