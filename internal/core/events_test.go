package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"xmlclust/internal/sim"
)

// TestRunObserverEvents asserts the engine-level event contract at the
// core layer: per-peer round events with consistent traffic accounting,
// peer-level Done per session and one run-level Done.
func TestRunObserverEvents(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	var mu sync.Mutex
	var events []Event
	res, err := Run(context.Background(), cx, corpus, Options{
		K: 2, Params: cx.Params, Peers: 2,
		Partition: EqualPartition(len(corpus.Transactions), 2, 7),
		Seed:      7,
		Observer: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	starts, ends, peerDone, runDone := 0, 0, 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EventRoundStart:
			starts++
		case EventRoundEnd:
			ends++
			if ev.Objective < 0 {
				t.Errorf("negative objective %v", ev.Objective)
			}
		case EventDone:
			if ev.Peer == -1 {
				runDone++
				if ev.Round != res.Rounds {
					t.Errorf("run Done rounds %d, result %d", ev.Round, res.Rounds)
				}
				msgs, bytes := res.TotalTraffic()
				if ev.SentMsgs != msgs || ev.SentBytes != bytes {
					t.Errorf("run Done traffic (%d, %d) != result (%d, %d)",
						ev.SentMsgs, ev.SentBytes, msgs, bytes)
				}
			} else {
				peerDone++
			}
		}
	}
	if starts != 2*res.Rounds || ends != 2*res.Rounds {
		t.Errorf("round events %d/%d, want %d each (peers×rounds)", starts, ends, 2*res.Rounds)
	}
	if peerDone != 2 || runDone != 1 {
		t.Errorf("Done events: %d peer-level (want 2), %d run-level (want 1)", peerDone, runDone)
	}
	if last := events[len(events)-1]; last.Kind != EventDone || last.Peer != -1 {
		t.Errorf("last event kind=%v peer=%d, want run-level Done", last.Kind, last.Peer)
	}
}

// TestRunObserverIdenticalOutput asserts that observing a run never changes
// its output.
func TestRunObserverIdenticalOutput(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	run := func(observer Observer) *Result {
		cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
		res, err := Run(context.Background(), cx, corpus, Options{
			K: 2, Params: cx.Params, Peers: 2,
			Partition: EqualPartition(len(corpus.Transactions), 2, 7),
			Seed:      7, Observer: observer,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var mu sync.Mutex
	plain := run(nil)
	observed := run(func(Event) { mu.Lock(); mu.Unlock() })
	if plain.Rounds != observed.Rounds {
		t.Fatalf("rounds differ: %d vs %d", plain.Rounds, observed.Rounds)
	}
	for i := range plain.Assign {
		if plain.Assign[i] != observed.Assign[i] {
			t.Fatalf("assignment %d differs under observation", i)
		}
	}
}

// TestRunCanceled asserts the ErrCanceled surface of the in-process driver
// for both a mid-run cancel (triggered from the event stream) and a
// pre-canceled context.
func TestRunCanceled(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := Run(ctx, cx, corpus, Options{
		K: 2, Params: cx.Params, Peers: 2,
		Partition: EqualPartition(len(corpus.Transactions), 2, 7),
		Seed:      7, MaxRounds: 1000,
		Observer: func(ev Event) {
			if ev.Kind == EventRoundStart {
				once.Do(cancel)
			}
		},
	})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	var se *SessionError
	if !errors.As(err, &se) {
		t.Fatalf("cancellation should surface as a SessionError, got %T", err)
	}

	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := Run(pre, cx, corpus, Options{
		K: 2, Params: cx.Params, Peers: 1,
		Partition: EqualPartition(len(corpus.Transactions), 1, 7),
		Seed:      7,
	}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled: want ErrCanceled, got %v", err)
	}
}
