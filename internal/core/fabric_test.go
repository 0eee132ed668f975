package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"math"
	"math/bits"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

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

// fabricSim is the test world that steps m session machines on the test
// goroutine, with no transport, clock or other goroutine: envelopes wait on
// per-link queues, a compute request is held until it is answered,
// checkpoints go to one memStore per slot, and a timer fires only when it
// is fired. Options.Fabric, if set, is every slot's policy over a store of
// its own. A crashed slot's machine is gone: what it was sent is lost.
// drain steps the default order — held computes first, lowest peer first,
// then the lowest link's head — and an explorer searches every order.
type fabricSim struct {
	t       testing.TB
	cx      *sim.Context
	corpus  *txn.Corpus
	opts    Options
	start   StartMsg
	peers   []*driver // nil: crashed, or not run under a focus
	stores  []memStore
	links   [][]p2p.Envelope
	held    []*compute
	results []*PeerResult
	err     error // the first failure, where the world stops
	// crash, when set, is asked before each output of a peer whether the
	// peer dies instead of carrying it out.
	crash func(id int, out any) bool

	// The explorer's. faulted: the path's one fault is in. kill: the member
	// that dies, and before which output of the step (carried counts them)
	// plus one. events: per peer, how many were held to want, Run's. asked:
	// per peer, the digests of its compute requests, held to wantAsked, the
	// faultless path's. memo: the answers, shared by a search's worlds.
	faulted          bool
	kill             [2]int
	carried          int
	events           []int
	want             [][]Event
	asked, wantAsked [][]uint64
	memo             map[uint64]computed
	// tape: every send per link. Under focus = i+1 only machine i runs: the
	// links into it start with what the tape says the others sent it, and
	// what it sends is held to the tape, taped counting per link.
	focus int
	tape  [][]p2p.Envelope
	taped []int
}

func newFabricSim(t testing.TB, corpus *txn.Corpus, opts Options) *fabricSim {
	cx := sim.NewContext(corpus, opts.Params)
	return (&fabricSim{t: t, cx: cx, corpus: corpus, opts: opts, start: NewStartMsg(cx, corpus, opts)}).boot()
}

// boot launches the slots of a new world.
func (f *fabricSim) boot() *fabricSim {
	m := f.opts.Peers
	f.peers, f.stores, f.links, f.held = make([]*driver, m), make([]memStore, m), make([][]p2p.Envelope, m*m), make([]*compute, m)
	f.results, f.events, f.asked, f.taped = make([]*PeerResult, m), make([]int, m), make([][]uint64, m), make([]int, m*m)
	if f.focus == 0 {
		f.tape = make([][]p2p.Envelope, m*m)
	}
	for i := m - 1; i >= 0; i-- { // the coordinator's StartMsgs need their receivers up
		if f.focus == 0 || f.focus == i+1 {
			f.launch(i, false)
		}
		for from := 0; f.focus == i+1 && from < m; from++ {
			if from != i {
				f.links[from*m+i] = slices.Clone(f.tape[from*m+i])
			}
		}
	}
	return f
}

// launch starts a process in slot id, on a fresh store under the fabric, as
// a joiner or not.
func (f *fabricSim) launch(id int, join bool) {
	opts := f.opts
	if f.opts.Fabric != nil {
		fab := *f.opts.Fabric
		f.stores[id] = memStore{}
		fab.Store = f.stores[id]
		opts.Fabric = &fab
	}
	opts.Rejoin = join
	d, outs := newDriver(f.cx, f.corpus, &opts, f.start, id)
	f.peers[id] = d
	f.carry(id, outs)
}

// carry carries out peer id's outputs in order, stepping it again with the
// answer to a restore. A compute request is held; a failure stops the world.
func (f *fabricSim) carry(id int, outs []any) {
	d := f.peers[id]
	for outs != nil {
		var in any
		for _, o := range outs {
			f.carried++
			if dies := f.kill == [2]int{id, f.carried}; dies || f.crash != nil && f.crash(id, o) {
				f.peers[id], f.kill = nil, [2]int{}
				f.cut(id)
				if dies {
					f.launch(id, true)
				}
				return
			}
			var err error
			switch o := o.(type) {
			case send:
				err = f.send(d, o)
			case checkpoint:
				err = f.stores[id].Save(id, 0, o.st)
			case restore:
				var st *SessionState
				st, err = f.stores[id].Load(id, o.round, 0)
				in = loaded{st}
			case compute:
				f.held[id] = &o
			case Event:
				err = f.observe(id, o)
			case done:
				if err = o.err; err == nil {
					f.results[id] = d.s.result()
					f.cut(id)
				}
			}
			if err != nil {
				f.err = fmt.Errorf("peer %d: %w", id, err)
				return
			}
		}
		outs = nil
		if in != nil {
			outs = d.s.Step(in)
		}
	}
}

// send queues a payload, or judges it failed if its receiver is down, and
// tapes it. Under a focus, a send to another machine is held to the tape.
func (f *fabricSim) send(d *driver, o send) error {
	l := d.s.id*f.opts.Peers + o.to
	env := p2p.Envelope{From: d.s.id, To: o.to, Epoch: d.s.epoch, Payload: o.payload}
	if o.control {
		env.Epoch = p2p.EpochAny
	} else {
		d.account(o)
	}
	switch n := f.taped[l]; {
	case f.focus == 0:
		f.tape[l] = append(f.tape[l], env)
	case o.to != f.focus-1:
		if f.taped[l]++; n >= len(f.tape[l]) || fold(0, reflect.ValueOf(env)) != fold(0, reflect.ValueOf(f.tape[l][n])) {
			return fmt.Errorf("send %d to peer %d is not the tape's", n, o.to)
		}
		return nil
	}
	if f.peers[o.to] == nil {
		return d.s.sendFailed(o, errors.New("peer down"))
	}
	if f.results[o.to] == nil {
		f.links[l] = append(f.links[l], env)
	}
	return nil
}

// cut drops what waits for peer id, which has ended.
func (f *fabricSim) cut(id int) {
	f.held[id] = nil
	for from := range f.opts.Peers {
		f.links[from*f.opts.Peers+id] = nil
	}
}

// observe holds an event to Run's until the path's fault, in every field but
// Elapsed, the counter snapshot and the received totals: those count
// arrivals, so they move with the schedule, and check holds the per-round
// counts to Run's instead. Run has no fabric, so checkpoints are skipped.
func (f *fabricSim) observe(id int, ev Event) error {
	if f.want == nil || f.faulted || ev.Kind == EventCheckpoint {
		return nil
	}
	ev.SentMsgs, ev.SentBytes, _, _ = f.peers[id].s.report.TrafficTotals()
	if n := f.events[id]; n >= len(f.want[id]) || ev != f.want[id][n] {
		return fmt.Errorf("event %d is %+v, not Run's", n, ev)
	}
	f.events[id]++
	return nil
}

// answer answers peer id's held compute request, from the memo when the same
// machine asked it before. Until the path's fault the request must be the
// faultless path's: refinement takes its inputs in peer order, whatever
// order they arrived in.
func (f *fabricSim) answer(id int) {
	d, c := f.peers[id], *f.held[id]
	f.held[id] = nil
	key := fold(mix(fingerprintReps(d.s.global), uint64(id)), reflect.ValueOf(c))
	if c.refine {
		key = fold(mix(key, fingerprintReps(d.s.localRp)), reflect.ValueOf([]any{d.s.zi, d.s.sizes, d.s.bySender}))
	}
	n := len(f.asked[id])
	if f.asked[id] = append(f.asked[id], key); f.wantAsked != nil && !f.faulted && (n >= len(f.wantAsked[id]) || f.wantAsked[id][n] != key) {
		f.err = fmt.Errorf("peer %d: compute request %d is not the faultless path's", id, n)
		return
	}
	in, ok := f.memo[key]
	if !ok {
		if err := d.compute(context.Background(), c); err != nil {
			f.err = fmt.Errorf("peer %d: %w", id, err)
			return
		}
		in = d.in.(computed)
		if f.memo != nil {
			f.memo[key] = in
		}
	}
	f.carry(id, d.s.Step(in))
}

// choice is one step of a schedule: answer peer at's held compute ('c'),
// deliver the head of link at ('d') or fire peer at's timer ('t'). A fault
// is a choice too: drop ('x') or duplicate ('2') the head of link at, or,
// with kill = j+1, take a member's compute or delivery and crash the member
// before its j-th output; it rejoins at once.
type choice struct {
	op       byte
	at, kill int
}

func (c choice) String() string {
	if c.kill > 0 {
		return fmt.Sprintf("%c%d!%d", c.op, c.at, c.kill-1)
	}
	return fmt.Sprintf("%c%d", c.op, c.at)
}

// choices lists what can happen next, the default first: held computes,
// then the links whose head is ready, each in ascending order; once a fault
// is in and nothing else can happen, the timers of the running peers. With
// faults and none in yet, every drop and duplicate follows (crashes depends
// on a step's outputs).
func (f *fabricSim) choices(faults bool) []choice {
	if f.err != nil {
		return nil
	}
	var cs []choice
	for i, c := range f.held {
		if c != nil {
			cs = append(cs, choice{op: 'c', at: i})
		}
	}
	for l, q := range f.links {
		if len(q) > 0 && f.ready(l) {
			cs = append(cs, choice{op: 'd', at: l})
		}
	}
	for i, d := range f.peers {
		if len(cs) == 0 && f.faulted && d != nil && f.results[i] == nil {
			cs = append(cs, choice{op: 't', at: i})
		}
	}
	for l, q := range f.links {
		if len(q) > 0 && faults && !f.faulted {
			cs = append(cs, choice{op: 'x', at: l}, choice{op: '2', at: l})
		}
	}
	return cs
}

// ready reports whether link l's head can arrive yet. Under a focus, a
// message of round r from peer j cannot before the focus has sent j all its
// round traffic of the rounds before r: j ends a round only with it.
func (f *fabricSim) ready(l int) bool {
	m, i, j := f.opts.Peers, f.focus-1, l/f.opts.Peers
	if f.focus == 0 || j == i {
		return true
	}
	r, _ := roundOf(f.links[l][0].Payload)
	return !slices.ContainsFunc(f.tape[i*m+j][f.taped[i*m+j]:], func(env p2p.Envelope) bool {
		back, traffic := roundOf(env.Payload)
		return traffic && back < r
	})
}

// roundOf is the round a payload belongs to, and whether it is round
// traffic. A member's report comes after every round.
func roundOf(payload any) (int, bool) {
	switch p := payload.(type) {
	case GlobalRepsMsg:
		return p.Round, true
	case LocalRepsMsg:
		return p.Round, true
	case CheckpointMsg:
		return p.State.Round, false
	case AssignMsg:
		return math.MaxInt, false
	}
	return 0, false
}

// crashes lists the crashes a fault can add to c, which stepped its machine
// through n outputs: one before each, if the machine is a fabric member.
func (f *fabricSim) crashes(faults bool, c choice, n int) []choice {
	if !faults || f.faulted || f.opts.Fabric == nil || c.op == 'c' && c.at == 0 || c.op == 'd' && c.at%f.opts.Peers == 0 || c.op != 'c' && c.op != 'd' {
		return nil
	}
	ks := make([]choice, n)
	for j := range ks {
		ks[j] = choice{op: c.op, at: c.at, kill: j + 1}
	}
	return ks
}

// apply takes one choice. A panic is the world's failure, so a search
// reports it with the path that led to it.
func (f *fabricSim) apply(c choice) {
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	to := c.at
	if c.op == 'd' {
		to = c.at % f.opts.Peers
	}
	if f.carried = 0; c.kill > 0 {
		f.kill, f.faulted = [2]int{to, c.kill}, true
	}
	switch c.op {
	case 'c':
		f.answer(c.at)
	case 'd':
		env := f.links[c.at][0]
		f.links[c.at] = f.links[c.at][1:]
		f.carry(to, f.peers[to].s.Step(env))
	case 't':
		f.carry(to, f.peers[to].s.Step(timeout{}))
	case 'x':
		f.links[c.at], f.faulted = f.links[c.at][1:], true
	case '2':
		f.links[c.at], f.faulted = slices.Insert(f.links[c.at], 0, f.links[c.at][0]), true
	}
}

// drain steps the default order until nothing can happen.
func (f *fabricSim) drain() {
	f.t.Helper()
	if onward(f, nil); f.err != nil {
		f.t.Fatal(f.err)
	}
}

// onward steps f in the default order until nothing can happen, and returns
// path with the choices taken.
func onward(f *fabricSim, path []choice) []choice {
	for cs := f.choices(false); len(cs) > 0; cs = f.choices(false) {
		f.apply(cs[0])
		path = append(path, cs[0])
	}
	return path
}

// expire fires the timers of the given running peers, in order.
func (f *fabricSim) expire(ids ...int) {
	for _, id := range ids {
		if f.peers[id] != nil && f.results[id] == nil {
			f.apply(choice{op: 't', at: id})
		}
	}
}

// finished reports whether every slot has a result.
func (f *fabricSim) finished() bool { return !slices.Contains(f.results, nil) }

// branch copies the world for one branch of a search: the machines, queues,
// stores and counts are the copy's own, and what nothing changes once made —
// payloads, results, answers, engines, options — is shared.
func (f *fabricSim) branch() *fabricSim {
	g := *f
	g.peers, g.held, g.results = slices.Clone(f.peers), slices.Clone(f.held), slices.Clone(f.results)
	g.events, g.taped, g.tape, g.asked = slices.Clone(f.events), slices.Clone(f.taped), slices.Clone(f.tape), slices.Clone(f.asked)
	g.links, g.stores = make([][]p2p.Envelope, len(f.links)), make([]memStore, len(f.stores))
	for i, d := range f.peers {
		if d != nil {
			c := *d
			c.s = d.s.clone()
			g.peers[i] = &c
		}
		g.stores[i], g.asked[i] = maps.Clone(f.stores[i]), slices.Clip(g.asked[i])
	}
	for l, q := range f.links {
		g.links[l], g.tape[l] = slices.Clone(q), slices.Clip(g.tape[l])
	}
	return &g
}

// clone copies a session for a branch: whatever the machine changes in
// place is copied, and what it only replaces is shared.
func (s *session) clone() *session {
	c := *s
	c.out, c.early, c.pendFuture = nil, slices.Clone(s.early), slices.Clone(s.pendFuture)
	c.global, c.prevGlobal, c.bySender = slices.Clone(s.global), slices.Clone(s.prevGlobal), slices.Clone(s.bySender)
	c.final, c.reported, c.seenStates = slices.Clone(s.final), slices.Clone(s.reported), maps.Clone(s.seenStates)
	c.pendGlobal, c.pendLocal = maps.Clone(s.pendGlobal), maps.Clone(s.pendLocal)
	for r := range s.pendGlobal {
		c.pendGlobal[r] = slices.Clone(s.pendGlobal[r])
	}
	for r := range s.pendLocal {
		c.pendLocal[r] = slices.Clone(s.pendLocal[r])
	}
	rp := &c.report
	rp.ComputeByRound, rp.SentMsgsByRound, rp.RecvMsgsByRound = slices.Clone(rp.ComputeByRound), slices.Clone(rp.SentMsgsByRound), slices.Clone(rp.RecvMsgsByRound)
	rp.SentBytesByRound, rp.RecvBytesByRound = slices.Clone(rp.SentBytesByRound), slices.Clone(rp.RecvBytesByRound)
	if s.fab != nil {
		fab := *s.fab
		fab.pending, fab.latest, fab.replica = slices.Clone(fab.pending), slices.Clone(fab.latest), maps.Clone(fab.replica)
		for slot := range fab.replica {
			fab.replica[slot] = maps.Clone(fab.replica[slot])
		}
		c.fab = &fab
	}
	return &c
}

// digest folds the state of the world: every machine, held request, result,
// link queue and store, and the explorer's own.
func (f *fabricSim) digest() uint64 {
	h := fold(0, reflect.ValueOf([]any{f.held, f.links, f.stores, f.faulted, f.kill, f.events, f.taped}))
	for i, d := range f.peers {
		if h = fold(h, reflect.ValueOf(f.results[i] == nil)); d != nil {
			h = fold(h, reflect.ValueOf(d.s).Elem())
		}
	}
	return h
}

// fold hashes v into h by content: pointers are followed and a map is
// folded whatever its order. Funcs, durations (the compute clock) and
// sessionConsts are skipped. The hash tells states apart within one
// process; it is not for keeping.
func fold(h uint64, v reflect.Value) uint64 {
	switch k := v.Kind(); {
	case k == reflect.Bool:
		b := uint64(1)
		if v.Bool() {
			b = 2
		}
		return mix(h, b)
	case v.CanInt() && v.Type() != reflect.TypeFor[time.Duration]():
		return mix(h, uint64(v.Int()))
	case v.CanUint():
		return mix(h, v.Uint())
	case v.CanFloat():
		return mix(h, math.Float64bits(v.Float()))
	case k == reflect.String:
		return mix(h, maphash.String(foldSeed, v.String()))
	case k == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8:
		return mix(h, maphash.Bytes(foldSeed, v.Bytes()))
	case k == reflect.Slice || k == reflect.Array:
		h = mix(h, uint64(v.Len()))
		for i := range v.Len() {
			h = fold(h, v.Index(i))
		}
	case k == reflect.Map:
		var sum uint64
		for it := v.MapRange(); it.Next(); {
			sum += fold(fold(0, it.Key()), it.Value())
		}
		return mix(h, sum)
	case (k == reflect.Pointer || k == reflect.Interface) && v.IsNil():
		return mix(h, 0)
	case k == reflect.Pointer || k == reflect.Interface:
		return fold(mix(h, maphash.String(foldSeed, v.Elem().Type().String())), v.Elem())
	case k == reflect.Struct:
		for i := range v.NumField() {
			if v.Type() != reflect.TypeFor[session]() || !slices.Contains(sessionConsts, i) {
				h = fold(h, v.Field(i))
			}
		}
	}
	return h
}

// sessionConsts are the session's fields fold skips: its output buffer and
// its constants.
var sessionConsts = func() (skip []int) {
	for _, name := range []string{"out", "items", "sizer", "local", "start", "partition"} {
		f, _ := reflect.TypeFor[session]().FieldByName(name)
		skip = append(skip, f.Index[0])
	}
	return skip
}()

var foldSeed = maphash.MakeSeed()

func mix(h, v uint64) uint64 { return (bits.RotateLeft64(h, 27) ^ v) * 0x9e3779b97f4a7c15 }

func fabricOpts(corpus *txn.Corpus, m int) Options {
	return Options{
		K: 5, Params: sim.Params{F: 0.5, Gamma: 0.6}, Peers: m, Seed: 3, Workers: 1,
		Partition: EqualPartition(len(corpus.Transactions), m, 3), Fabric: &Fabric{Fingerprint: 42},
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

// explorer searches every schedule of one run depth first: each choice is
// taken on a branch of the world, and a state met before is not searched
// again. ref is Run's result, seen the digests of the states searched.
type explorer struct {
	t      *testing.T
	world  func(focus int, ref *fabricSim) *fabricSim
	ref    *Result
	faults bool
	seen   map[uint64]bool
}

// newExplorer runs opts on Run for the reference: its result and each
// peer's events. A world under a focus takes its tape from ref, and every
// world's compute requests are held to ref's.
func newExplorer(t *testing.T, corpus *txn.Corpus, opts Options) *explorer {
	want := make([][]Event, opts.Peers)
	ropts := opts
	ropts.Observer = func(ev Event) {
		if ev.Peer >= 0 {
			ev.Elapsed, ev.CounterSnapshot, ev.RecvMsgs, ev.RecvBytes = 0, sim.CounterSnapshot{}, 0, 0
			want[ev.Peer] = append(want[ev.Peer], ev)
		}
	}
	cx := sim.NewContext(corpus, opts.Params)
	res, err := Run(context.Background(), cx, corpus, ropts)
	if err != nil {
		t.Fatal(err)
	}
	start, memo := NewStartMsg(cx, corpus, opts), map[uint64]computed{}
	return &explorer{t: t, ref: res, seen: map[uint64]bool{}, world: func(focus int, ref *fabricSim) *fabricSim {
		f := &fabricSim{t: t, cx: cx, corpus: corpus, opts: opts, start: start, want: want, memo: memo, focus: focus}
		if ref != nil {
			f.tape, f.wantAsked = ref.tape, ref.asked
		}
		return f.boot()
	}}
}

// search explores w, the world at the end of path.
func (x *explorer) search(w *fabricSim, path []choice) {
	cs := w.choices(x.faults)
	if len(cs) == 0 {
		x.check(w, path)
		return
	}
	d := w.digest()
	if x.seen[d] {
		return
	}
	x.seen[d] = true
	for _, c := range cs {
		next := w.branch()
		next.apply(c)
		x.search(next, append(path[:len(path):len(path)], c))
		for _, k := range w.crashes(x.faults, c, next.carried) {
			next := w.branch()
			next.apply(k)
			x.search(next, append(path[:len(path):len(path)], k))
		}
	}
}

// sweep takes the default order to its end and, at each of its steps,
// injects every fault one at a time and runs on in the default order. It
// returns the world at the end of the faultless path.
func (x *explorer) sweep() *fabricSim {
	w, order := x.world(0, nil), []choice(nil)
	for cs := w.choices(false); len(cs) > 0; cs = w.choices(false) {
		next := w.branch()
		next.apply(cs[0])
		for _, c := range append(w.choices(true)[len(cs):], w.crashes(true, cs[0], next.carried)...) {
			v := w.branch()
			v.apply(c)
			x.check(v, onward(v, append(order[:len(order):len(order)], c)))
		}
		w, order = next, append(order, cs[0])
	}
	x.check(w, order)
	return w
}

// typedErrors are core's typed failures: the only way a faulted path may
// end short of Run's result.
var typedErrors = []error{ErrRoundDeadline, ErrTransportClosed, ErrUnexpectedMessage, ErrSend, ErrStalled,
	ErrCanceled, ErrConfigMismatch, ErrLeft, ErrCoordinatorLost, ErrRecoveryTimeout, ErrCheckpointMismatch}

// check holds a state where nothing can happen to the properties, or fails
// the test with the path as its counterexample. Under a focus, only the
// machine run is held.
func (x *explorer) check(w *fabricSim, path []choice) {
	err, m := w.err, len(w.peers)
	if err != nil && w.faulted && slices.ContainsFunc(typedErrors, func(e error) bool { return errors.Is(err, e) }) {
		return
	}
	for i := 0; err == nil && i < m; i++ {
		res, want := w.results[i], x.ref.Peers[i]
		switch {
		case w.focus > 0 && i != w.focus-1:
		case res == nil:
			err = fmt.Errorf("peer %d: %w", i, ErrStalled)
		case i == 0 && !slices.Equal(res.Global, x.ref.Assign):
			err = errors.New("assignments differ from Run's")
		case RepsDigest(w.corpus.Items, res.Reps) != RepsDigest(w.corpus.Items, x.ref.Reps):
			err = fmt.Errorf("peer %d ends with representatives other than Run's", i)
		case w.faulted:
		case w.events[i] != len(w.want[i]):
			err = fmt.Errorf("peer %d emitted %d events, Run %d", i, w.events[i], len(w.want[i]))
		case !slices.Equal(want.SentMsgsByRound, res.Report.SentMsgsByRound) || !slices.Equal(want.RecvMsgsByRound, res.Report.RecvMsgsByRound) ||
			!slices.Equal(want.SentBytesByRound, res.Report.SentBytesByRound) || !slices.Equal(want.RecvBytesByRound, res.Report.RecvBytesByRound):
			err = fmt.Errorf("peer %d's per-round traffic, sent %v received %v, is not Run's, %v and %v", i,
				res.Report.SentMsgsByRound, res.Report.RecvMsgsByRound, want.SentMsgsByRound, want.RecvMsgsByRound)
		}
		for to := 0; err == nil && w.focus == i+1 && to < m; to++ {
			if l := i*m + to; to != i && w.taped[l] != len(w.tape[l]) {
				err = fmt.Errorf("peer %d sent %d messages to peer %d, the tape %d", i, w.taped[l], to, len(w.tape[l]))
			}
		}
	}
	if err != nil {
		x.t.Fatalf("%v after choices %v", err, path)
	}
}

// TestExploreSchedules checks Fig. 5's two claims on every schedule of small
// runs: per-sender slots keep refinement's input order whatever the arrival
// order, and the flags are the same at every peer, so termination is
// consistent. The scope is CXK-means, PK-means and CXK-means under the
// fabric, k and m in {2, 3}, either engine, on 11 generated DBLP
// transactions.
//
// At m = 2 every schedule is searched, each with at most one fault: an
// envelope dropped or duplicated, or under the fabric a member crashed at
// any of its outputs and rejoined from the coordinator's replica. At m = 3
// every fault is injected at every step of the default order, and each
// machine is searched alone through every order of its inputs: the other
// machines' sends on the faultless path's tape, in any order some run can
// make (ready). If no machine can tell one order of its inputs from
// another, no schedule of the whole run can move one off the tape.
//
// A faultless path makes the faultless path's compute requests and ends as
// Run ends: the same assignments, representatives, events and per-round
// traffic, and no stall. A faulted path ends so too, or fails with a typed
// error. A counterexample prints its choices.
func TestExploreSchedules(t *testing.T) {
	for _, m := range []int{2, 3} {
		for _, algo := range []string{"cxk", "pk", "fabric"} {
			for _, k := range []int{2, 3} {
				for _, fast := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/k=%d/m=%d/fast=%v", algo, k, m, fast), func(t *testing.T) {
						if m > 2 && raceEnabled {
							t.Skip("m = 3 is searched without the race detector")
						}
						t.Parallel()
						gen, _ := dataset.ByName("DBLP")
						corpus := gen(dataset.Spec{Docs: 6, Seed: 29}).BuildCorpus(dataset.ByHybrid, 2, 1)
						opts := Options{
							K: k, Params: sim.Params{F: 0.5, Gamma: 0.6}, Peers: m, Seed: 4, Workers: 1, Fast: fast,
							PKMeans: algo == "pk", Partition: EqualPartition(len(corpus.Transactions), m, 4),
						}
						if algo == "fabric" {
							opts.Fabric = &Fabric{Fingerprint: 42}
						}
						x := newExplorer(t, corpus, opts)
						if ref := x.sweep(); m == 2 {
							x.faults = true
							x.search(x.world(0, ref), nil)
						} else {
							for i := range m {
								x.search(x.world(i+1, ref), nil)
							}
						}
						t.Logf("%d rounds, %d states searched", x.ref.Rounds, len(x.seen))
					})
				}
			}
		}
	}
}
