package core

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/sim"
)

var updateEvents = flag.Bool("update-events", false, "rewrite testdata/events.golden from this build")

// TestEventStreamPinned pins the observer stream of seeded runs. At m = 1
// every Event field but Elapsed is recorded, in emission order; at m = 3 the
// peers run concurrently, so each peer's own sequence is recorded, with the
// fields that do not depend on the schedule (received traffic and the shared
// context's counters do). Regenerate with -update-events only when a change
// is meant to move the stream.
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
					var mu sync.Mutex
					byPeer := map[int][]string{}
					_, err := Run(context.Background(), cx, corpus, Options{
						K: k, Params: cx.Params, Peers: m, Fast: fast, Workers: 1,
						Partition: EqualPartition(len(corpus.Transactions), m, seed),
						Seed:      seed,
						Observer: func(ev Event) {
							line := fmt.Sprintf("%v %d %v %016x %d %d", ev.Kind, ev.Round, ev.Phase,
								math.Float64bits(ev.Objective), ev.SentMsgs, ev.SentBytes)
							if m == 1 {
								line += fmt.Sprintf(" %d %d %v", ev.RecvMsgs, ev.RecvBytes, ev.CounterSnapshot)
							}
							mu.Lock()
							byPeer[ev.Peer] = append(byPeer[ev.Peer], line)
							mu.Unlock()
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					for peer := -1; peer < m; peer++ {
						fmt.Fprintf(&b, "fast=%v k=%d seed=%d m=%d peer=%d\n", fast, k, seed, m, peer)
						for _, line := range byPeer[peer] {
							b.WriteString("\t" + line + "\n")
						}
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
