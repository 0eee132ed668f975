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
	got := eventStream(t, 1, true)
	if *updateEvents {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(eventsGolden)
	if err != nil {
		t.Fatal(err)
	}
	sameStream(t, got, string(want))
}

// TestEventStreamPinnedWorkers runs the pinned stream's jobs at one worker
// per CPU: refinement then forks across clusters, and the stream must still
// be the golden one. The counter snapshot is left out, there and of the
// golden: two workers can both miss the path cache on one pair.
func TestEventStreamPinnedWorkers(t *testing.T) {
	want, err := os.ReadFile(eventsGolden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(want), "\n")
	for i, line := range lines {
		if k := strings.LastIndex(line, " {"); k >= 0 && strings.HasSuffix(line, "}") {
			lines[i] = line[:k]
		}
	}
	sameStream(t, eventStream(t, 0, false), strings.Join(lines, "\n"))
}

const eventsGolden = "testdata/events.golden"

// eventStream records the observer stream of the pinned jobs, run at the
// given worker count on a corpus of its own, with each m = 1 event's counter
// snapshot if snapshots is set.
func eventStream(t *testing.T, workers int, snapshots bool) string {
	t.Helper()
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
						K: k, Params: cx.Params, Peers: m, Fast: fast, Workers: workers,
						Partition: EqualPartition(len(corpus.Transactions), m, seed),
						Seed:      seed,
						Observer: func(ev Event) {
							fmt.Fprintf(&b, "\t%d %v %d %v %016x %d %d %d %d", ev.Peer, ev.Kind, ev.Round, ev.Phase,
								math.Float64bits(ev.Objective), ev.SentMsgs, ev.SentBytes, ev.RecvMsgs, ev.RecvBytes)
							if m == 1 && snapshots {
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
	return b.String()
}

// sameStream fails at the first line where got and want differ.
func sameStream(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("event stream differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("event stream has %d lines, golden %d", len(gl), len(wl))
}
