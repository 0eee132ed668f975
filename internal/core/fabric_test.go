package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// memStore is an in-memory Checkpoints: states go through gob on the way
// in and out, as they would through a file.
type memStore map[[2]int][]byte

func (ms memStore) Save(slot int, _ uint64, st *SessionState) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(st); err != nil {
		return err
	}
	ms[[2]int{slot, st.Round}] = b.Bytes()
	return nil
}

func (ms memStore) Load(slot, round int, _ uint64) (*SessionState, error) {
	b, ok := ms[[2]int{slot, round}]
	if !ok {
		return nil, fmt.Errorf("no checkpoint for slot %d round %d", slot, round)
	}
	st := new(SessionState)
	return st, gob.NewDecoder(bytes.NewReader(b)).Decode(st)
}

// states decodes the slot's checkpoints in round order.
func (ms memStore) states(t testing.TB, slot int) []*SessionState {
	var out []*SessionState
	for r := 0; ; r++ {
		if _, ok := ms[[2]int{slot, r}]; !ok {
			return out
		}
		st, err := ms.Load(slot, r, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
}

// fabricSim steps m fabric session machines on the test goroutine, with no
// transport, clock or other goroutine: envelopes wait on per-link queues
// and are delivered lowest link first, computes are answered at once,
// checkpoints go to one memStore per slot, and a timer fires only when the
// test fires it. A crashed slot's machine is gone: what it was sent is lost.
type fabricSim struct {
	t       *testing.T
	cx      *sim.Context
	corpus  *txn.Corpus
	opts    Options
	start   StartMsg
	peers   []*driver // nil: crashed
	stores  []memStore
	links   [][]p2p.Envelope
	results []*PeerResult
	// crash, when set, is asked before each output of a peer whether the
	// peer dies instead of carrying it out.
	crash func(id int, out any) bool
}

func newFabricSim(t *testing.T, corpus *txn.Corpus, opts Options) *fabricSim {
	cx := sim.NewContext(corpus, opts.Params)
	m := opts.Peers
	f := &fabricSim{
		t: t, cx: cx, corpus: corpus, opts: opts, start: NewStartMsg(cx, corpus, opts),
		peers: make([]*driver, m), stores: make([]memStore, m),
		links: make([][]p2p.Envelope, m*m), results: make([]*PeerResult, m),
	}
	for i := m - 1; i >= 0; i-- { // the coordinator's StartMsgs need their receivers up
		f.launch(i, false)
	}
	return f
}

// launch starts a process in slot id on a fresh store, as a joiner or not.
func (f *fabricSim) launch(id int, join bool) {
	opts := f.opts
	f.stores[id] = memStore{}
	opts.Fabric, opts.Rejoin = &Fabric{Store: f.stores[id], Fingerprint: 42}, join
	d, outs := newDriver(f.cx, f.corpus, &opts, f.start, id)
	f.peers[id] = d
	f.carry(id, outs)
}

// carry carries out peer id's outputs in order, stepping it again with the
// answer to a compute or a restore.
func (f *fabricSim) carry(id int, outs []any) {
	d, m := f.peers[id], f.opts.Peers
	for outs != nil {
		var in any
		for _, o := range outs {
			if f.crash != nil && f.crash(id, o) {
				f.peers[id] = nil
				for from := range m {
					f.links[from*m+id] = nil
				}
				return
			}
			switch o := o.(type) {
			case send:
				env := p2p.Envelope{From: id, To: o.to, Epoch: d.s.epoch, Payload: o.payload}
				if o.control {
					env.Epoch = p2p.EpochAny
				} else {
					d.account(o)
				}
				if f.peers[o.to] == nil {
					if err := d.s.sendFailed(o, errors.New("peer down")); err != nil {
						f.t.Fatalf("peer %d: %v", id, err)
					}
				} else if f.results[o.to] == nil {
					f.links[id*m+o.to] = append(f.links[id*m+o.to], env)
				}
			case checkpoint:
				if err := f.stores[id].Save(id, 0, o.st); err != nil {
					f.t.Fatal(err)
				}
			case restore:
				st, err := f.stores[id].Load(id, o.round, 0)
				if err != nil {
					f.t.Fatalf("peer %d: %v", id, err)
				}
				in = loaded{st}
			case compute:
				if err := d.compute(context.Background(), o); err != nil {
					f.t.Fatal(err)
				}
				in = d.in
			case done:
				if o.err != nil {
					f.t.Fatalf("peer %d: %v", id, o.err)
				}
				f.results[id] = d.s.result()
			}
		}
		outs = nil
		if in != nil {
			outs = d.s.Step(in)
		}
	}
}

// drain delivers queued envelopes until none is left.
func (f *fabricSim) drain() {
	m := f.opts.Peers
	for l := 0; l < len(f.links); {
		if len(f.links[l]) == 0 || f.peers[l%m] == nil {
			l++
			continue
		}
		env := f.links[l][0]
		f.links[l] = f.links[l][1:]
		f.carry(l%m, f.peers[l%m].s.Step(env))
		l = 0
	}
}

// expire fires the timers of the given running peers, in order.
func (f *fabricSim) expire(ids ...int) {
	for _, id := range ids {
		if f.peers[id] != nil && f.results[id] == nil {
			f.carry(id, f.peers[id].s.Step(timeout{}))
		}
	}
}

// finished reports whether every slot has a result.
func (f *fabricSim) finished() bool { return !slices.Contains(f.results, nil) }

func fabricOpts(corpus *txn.Corpus, m int) Options {
	return Options{
		K: 5, Params: sim.Params{F: 0.5, Gamma: 0.6}, Peers: m, Seed: 3, Workers: 1,
		Partition: EqualPartition(len(corpus.Transactions), m, 3),
	}
}

func fabricCorpus() *txn.Corpus {
	gen, _ := dataset.ByName("DBLP")
	return gen(dataset.Spec{Docs: 30, Seed: 29}).BuildCorpus(dataset.ByHybrid, 8, 1)
}

// TestFabricSteppedRecovery steps a whole recovery on the test goroutine:
// three fabric machines, slot 2 crashes once round 1's checkpoint is
// replicated, the survivors time out, and a joiner takes slot 2 on an empty
// store. The coordinator admits it at the barrier, round 1, under epoch 1,
// and the session ends with the unfaulted run's assignments and
// representatives.
func TestFabricSteppedRecovery(t *testing.T) {
	corpus := fabricCorpus()
	opts := fabricOpts(corpus, 3)
	ref, err := Run(context.Background(), sim.NewContext(corpus, opts.Params), corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds < 3 {
		t.Fatalf("the reference converged in %d rounds; nothing to recover", ref.Rounds)
	}

	f := newFabricSim(t, corpus, opts)
	f.crash = func(id int, o any) bool {
		s, ok := o.(send)
		return id == 2 && ok && !s.control && s.round == 1
	}
	f.drain()
	if f.peers[2] != nil {
		t.Fatal("slot 2 never reached round 1")
	}
	f.crash = nil
	f.expire(0, 1)
	f.drain()
	f.launch(2, true)
	f.drain()
	f.expire(0, 1)
	if f.drain(); !f.finished() {
		t.Fatalf("the recovered session stalls: %v", f.results)
	}

	if got := f.results[0].Global; !slices.Equal(got, ref.Assign) {
		t.Error("the recovered session's assignments differ from the unfaulted run's")
	}
	want := RepsDigest(corpus.Items, ref.Reps)
	for id, res := range f.results {
		if got := RepsDigest(corpus.Items, res.Reps); got != want {
			t.Errorf("slot %d ends with representatives %016x, want %016x", id, got, want)
		}
	}
	for id, d := range f.peers {
		if d.s.epoch != 1 {
			t.Errorf("slot %d ends in epoch %d, want 1", id, d.s.epoch)
		}
	}
	// The joiner's store starts at the barrier.
	if _, err := f.stores[2].Load(2, 0, 0); err == nil {
		t.Error("the joiner's store holds a round before the barrier")
	}
	if _, err := f.stores[2].Load(2, 1, 0); err != nil {
		t.Errorf("the joiner never checkpointed the barrier round: %v", err)
	}
}

// TestFabricDropsForeignJoin: a join for a slot the run does not have, or
// for a slot other than its sender's, is dropped and counted; the
// coordinator's next boundary carries on instead of failing its session.
func TestFabricDropsForeignJoin(t *testing.T) {
	corpus := fabricCorpus()
	f := newFabricSim(t, corpus, fabricOpts(corpus, 2))
	for _, env := range []p2p.Envelope{
		{From: 1, Epoch: p2p.EpochAny, Payload: JoinMsg{Slot: 5, Fingerprint: 42}},
		{From: 1, Epoch: p2p.EpochAny, Payload: JoinMsg{Slot: 0, Fingerprint: 42}},
	} {
		f.links[1*2+0] = append(f.links[1*2+0], env)
	}
	if f.drain(); !f.finished() {
		t.Fatalf("the session stalls: %v", f.results)
	}
	if c := f.peers[0].s.fab; c.dropped != 2 || len(c.pending) != 0 {
		t.Errorf("coordinator dropped %d joins and queued %d, want 2 and 0", c.dropped, len(c.pending))
	}
}

// TestFabricDropsForeignReplica: peer 2 cannot replicate a state as slot
// 1's. The coordinator drops and counts it, and keeps slot 1's own replica.
func TestFabricDropsForeignReplica(t *testing.T) {
	corpus := fabricCorpus()
	f := newFabricSim(t, corpus, fabricOpts(corpus, 3))
	f.crash = func(id int, o any) bool {
		_, ok := o.(compute)
		return id == 2 && ok // slot 2 stops after replicating round 0
	}
	f.drain()
	c := f.peers[0].s.fab
	own := c.replica[1][0]
	if own == nil {
		t.Fatal("the coordinator has no replica of slot 1's round 0")
	}
	forged := *own
	forged.Assign = slices.Repeat([]int{0}, len(own.Assign))
	f.peers[0].s.Step(p2p.Envelope{From: 2, Epoch: p2p.EpochAny,
		Payload: CheckpointMsg{Slot: 1, Fingerprint: 42, State: forged}})
	if c.dropped != 1 {
		t.Errorf("coordinator dropped %d replicas, want 1", c.dropped)
	}
	if !slices.Equal(c.replica[1][0].Assign, own.Assign) {
		t.Error("a replica from peer 2 replaced slot 1's")
	}
}
