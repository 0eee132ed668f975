package core

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/sim"
)

var updateEvents = flag.Bool("update-events", false, "rewrite testdata/events.golden from this build")

// TestEventStreamPinned pins the observer stream of seeded runs in emission
// order, across peers: Run's schedule is fixed, so the interleaving is too.
// Every Event field but Elapsed is recorded, except the counter snapshot at
// m = 3, where the peers of a compute wave run concurrently on one shared
// path cache. Regenerate with -update-events only when a change is meant to
// move the stream.
func TestEventStreamPinned(t *testing.T) {
	gen, _ := dataset.ByName("DBLP")
	dblp := gen(dataset.Spec{Docs: 60, Seed: 29})
	corpus := dblp.BuildCorpus(dataset.ByHybrid, 8, 1)
	var b strings.Builder
	for _, fast := range []bool{false, true} {
		for _, k := range []int{4, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, m := range []int{1, 3} {
					cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
					fmt.Fprintf(&b, "fast=%v k=%d seed=%d m=%d\n", fast, k, seed, m)
					_, err := Run(context.Background(), cx, corpus, Options{
						K: k, Params: cx.Params, Peers: m, Fast: fast, Workers: 1,
						Partition: EqualPartition(len(corpus.Transactions), m, seed),
						Seed:      seed,
						Observer: func(ev Event) {
							fmt.Fprintf(&b, "\t%d %v %d %v %016x %d %d %d %d", ev.Peer, ev.Kind, ev.Round, ev.Phase,
								math.Float64bits(ev.Objective), ev.SentMsgs, ev.SentBytes, ev.RecvMsgs, ev.RecvBytes)
							if m == 1 {
								fmt.Fprintf(&b, " %v", ev.CounterSnapshot)
							}
							b.WriteString("\n")
						},
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	const golden = "testdata/events.golden"
	if *updateEvents {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() == string(want) {
		return
	}
	got, lines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(lines); i++ {
		if got[i] != lines[i] {
			t.Fatalf("event stream differs at line %d:\n got %s\nwant %s", i+1, got[i], lines[i])
		}
	}
	t.Fatalf("event stream has %d lines, golden %d", len(got), len(lines))
}
