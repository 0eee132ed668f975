package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
)

// TestRunStalls: a run that loses a compute request or an envelope cannot
// progress, and with nothing queued and nothing held it fails at once with
// ErrStalled, naming the lowest waiting peer, its round and its phase — with
// no timer and no RoundTimeout set.
func TestRunStalls(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	opts := Options{
		K: 2, Params: cx.Params, Peers: 3, Seed: 4,
		Partition: EqualPartition(len(corpus.Transactions), 3, 4),
	}
	cases := []struct {
		name  string
		lose  func(*scheduler) error
		phase Phase
	}{
		{"compute request", func(sch *scheduler) error {
			sch.held[0] = nil
			return nil
		}, PhaseRelocate},
		{"envelope", func(sch *scheduler) error {
			if err := sch.wave(); err != nil {
				return err
			}
			const link = 1*3 + 0 // peer 1's local representatives for peer 0
			sch.links[link] = sch.links[link][1:]
			return nil
		}, PhaseExchangeLocals},
	}
	for _, c := range cases {
		sch := newScheduler(context.Background(), cx, corpus, opts)
		if err := sch.drain(); err != nil {
			t.Fatal(err)
		}
		if err := c.lose(sch); err != nil {
			t.Fatal(err)
		}
		_, err := sch.run()
		var se *SessionError
		if !errors.Is(err, ErrStalled) || !errors.As(err, &se) {
			t.Fatalf("lost %s: want a SessionError wrapping ErrStalled, got %v", c.name, err)
		}
		if se.Peer != 0 || se.Round != 0 || se.Phase != c.phase {
			t.Errorf("lost %s: stall attributed to peer %d round %d %s, want peer 0 round 0 %s",
				c.name, se.Peer, se.Round, se.Phase, c.phase)
		}
	}
}

// TestRunFailureLeavesNoGoroutine: however a run fails after its first
// concurrent wave — canceled, on a malformed envelope, on a stall — Run
// returns with every goroutine it started gone, relocation workers included.
func TestRunFailureLeavesNoGoroutine(t *testing.T) {
	corpus, _ := miniCorpus(t, 6)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	opts := Options{
		K: 2, Params: cx.Params, Peers: 3, Seed: 4, Workers: 2,
		Partition: EqualPartition(len(corpus.Transactions), 3, 4),
	}
	cases := []struct {
		name  string
		cause error
		run   func() error
	}{
		{"canceled", ErrCanceled, func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := opts
			o.Observer = func(ev Event) {
				if ev.Round == 1 && ev.Phase == PhaseRelocate {
					cancel()
				}
			}
			_, err := Run(ctx, cx, corpus, o)
			return err
		}},
		{"malformed", ErrUnexpectedMessage, func() error {
			sch := newScheduler(context.Background(), cx, corpus, opts)
			if err := sch.drain(); err != nil {
				return err
			}
			if err := sch.wave(); err != nil {
				return err
			}
			sch.links[2*3+1] = append(sch.links[2*3+1], p2p.Envelope{From: 2, To: 1, Payload: "bogus"})
			_, err := sch.run()
			return err
		}},
		{"stalled", ErrStalled, func() error {
			sch := newScheduler(context.Background(), cx, corpus, opts)
			if err := sch.drain(); err != nil {
				return err
			}
			sch.held[1] = nil
			_, err := sch.run()
			return err
		}},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		if err := c.run(); !errors.Is(err, c.cause) {
			t.Fatalf("%s: want an error wrapping %v, got %v", c.name, c.cause, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines before the run, %d after it failed", c.name, before, n)
		}
	}
}
