package fabric

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"xmlclust/internal/core"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// fabricCorpus builds a randomized tie-heavy corpus: documents draw from
// three templates with tiny vocabularies, so many transactions are
// identical across documents and similarity ties abound — exactly the
// regime where a nondeterministic restore would diverge visibly.
func fabricCorpus(t testing.TB, docs int, seed int64) *txn.Corpus {
	return fabricCorpusWith(t, docs, seed, func(s string) string { return s })
}

// fabricCorpusWith builds fabricCorpus with every answer passed through
// word. An injective word keeps the corpus's shape — transactions, item ids
// and tag paths — and changes only its answer text.
func fabricCorpusWith(t testing.TB, docs int, seed int64, word func(string) string) *txn.Corpus {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	authors := []string{"alice cooper", "bob dylan", "carol king"}
	topics := []string{"mining frequent patterns", "routing wireless networks", "parsing xml streams"}
	venues := []string{"KDD", "NETCONF", "XMLPRAGUE"}
	var trees []*xmltree.Tree
	for i := 0; i < docs; i++ {
		g := rng.Intn(len(topics))
		doc := fmt.Sprintf(`<db><paper key="%s">
			<writer>%s</writer>
			<name>%s</name>
			<venue>%s</venue>
		</paper></db>`, word(fmt.Sprintf("p%d", i)), word(authors[g]),
			word(fmt.Sprintf("%s number%d", topics[g], rng.Intn(3))), word(venues[rng.Intn(len(venues))]))
		tree, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	corpus := txn.Build(trees, txn.BuildOptions{})
	weighting.Apply(corpus)
	return corpus
}

func gobBytes(t *testing.T, st *core.SessionState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var errTestCrash = errors.New("fabric test: simulated crash")

// crashStore fails the first checkpoint at or past round: the process dies
// at that boundary, before the checkpoint is written.
type crashStore struct {
	*Store
	round int
	crash func()
}

func (c crashStore) Save(slot int, fp uint64, st *core.SessionState) error {
	if st.Round >= c.round {
		if c.crash != nil {
			c.crash()
		}
		return errTestCrash
	}
	return c.Store.Save(slot, fp, st)
}

// chanOpts configures a k-cluster in-process fabric session of the
// partition part over tr, on the given store.
func chanOpts(part [][]int, tr p2p.Transport, k int, store core.Checkpoints) *core.Options {
	return &core.Options{
		K: k, Params: sim.Params{F: 0.5, Gamma: 0.6}, Peers: len(part), Partition: part, Seed: 1,
		Transport: tr, RoundTimeout: 200 * time.Millisecond,
		Fabric: &core.Fabric{Store: store, Fingerprint: 0xabcde},
	}
}

// runOne runs peer id's session of opts through RunPeer, on a similarity
// context of its own.
func runOne(corpus *txn.Corpus, opts *core.Options, id int) (*core.PeerResult, error) {
	cx := sim.NewContext(corpus, opts.Params)
	return core.RunPeer(context.Background(), cx, corpus, *opts, core.NewStartMsg(cx, corpus, *opts), id)
}

// runChan runs the sessions of opts concurrently, opts[i] peer i's.
func runChan(corpus *txn.Corpus, opts []*core.Options) ([]*core.PeerResult, []error) {
	m := len(opts)
	results, errs := make([]*core.PeerResult, m), make([]error, m)
	var wg sync.WaitGroup
	for id, o := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[id], errs[id] = runOne(corpus, o, id)
		}()
	}
	wg.Wait()
	return results, errs
}

// TestCheckpointRestoreEveryBoundary is the fabric's determinism property
// test: a 3-peer fabric session of a tie-heavy corpus is checkpointed
// through the Store at EVERY round boundary, each checkpoint is byte-stable
// across a store round trip, and for every boundary a run in which slot 2
// dies at the next boundary recovers there: the coordinator installs its
// own state, slot 1 restores its checkpoint file, a joiner installs slot
// 2's replica, and the session ends byte-identical to the uninterrupted one.
func TestCheckpointRestoreEveryBoundary(t *testing.T) {
	corpus := fabricCorpus(t, 24, 5)
	const k, m, fp = 3, 3, 0xabcde
	part := core.EqualPartition(len(corpus.Transactions), m, 5)
	stores := make([]*Store, m)
	opts := make([]*core.Options, m)
	tr := p2p.NewChanTransport(m)
	for id := range opts {
		var err error
		if stores[id], err = NewStore(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		opts[id] = chanOpts(part, tr, k, stores[id])
	}
	ref, errs := runChan(corpus, opts)
	tr.Close()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	refDigest := core.RepsDigest(ref[0].Items, ref[0].Reps)

	again, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boundaries := 0
	for ; ; boundaries++ {
		st, err := stores[0].Load(0, boundaries, fp)
		if errors.Is(err, ErrNoCheckpoint) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if err := again.Save(0, fp, st); err != nil {
			t.Fatal(err)
		}
		back, err := again.Load(0, st.Round, fp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gobBytes(t, st), gobBytes(t, back)) {
			t.Fatalf("round %d: state changed across the store round-trip", st.Round)
		}
	}
	if boundaries < 2 {
		t.Fatalf("only %d round boundaries; corpus converges too fast for the property", boundaries)
	}
	// A checkpoint from a differently configured run must refuse to load.
	if _, err := stores[0].Load(0, 0, fp+1); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("want ErrCheckpointMismatch, got %v", err)
	}

	for r := 0; r+1 < boundaries; r++ {
		tr := p2p.NewChanTransport(m)
		opts := make([]*core.Options, m)
		crashed := make(chan struct{})
		for id := range opts {
			store, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			opts[id] = chanOpts(part, tr, k, store)
			if id == 2 {
				opts[id].Fabric.Store = crashStore{Store: store, round: r + 1, crash: func() { close(crashed) }}
			}
		}
		var joined *core.PeerResult
		var joinErr error
		joinDone := make(chan struct{})
		go func() {
			defer close(joinDone)
			<-crashed
			store, err := NewStore(t.TempDir())
			if err != nil {
				joinErr = err
				return
			}
			o := chanOpts(part, tr, k, store)
			o.Rejoin, o.StartupTimeout = true, o.RoundTimeout
			joined, joinErr = runOne(corpus, o, 2)
		}()
		res, errs := runChan(corpus, opts)
		if !errors.Is(errs[2], errTestCrash) {
			t.Fatalf("boundary %d: slot 2 ended with %v, want the simulated crash", r, errs[2])
		}
		<-joinDone
		tr.Close()
		if err := errors.Join(errs[0], errs[1], joinErr); err != nil {
			t.Fatalf("boundary %d: %v", r, err)
		}
		res[2] = joined
		for id := range res {
			if !slices.Equal(res[id].Assign, ref[id].Assign) {
				t.Fatalf("recovery at boundary %d: peer %d assignments diverged", r, id)
			}
			if d := core.RepsDigest(res[id].Items, res[id].Reps); d != refDigest {
				t.Fatalf("recovery at boundary %d: peer %d representatives diverged (%016x vs %016x)", r, id, d, refDigest)
			}
		}
	}
}

// TestCorruptCheckpointSurfacesOnRestore: a checkpoint file is bytes on a
// disk, and the fingerprint only vouches for the configuration it was written
// under. One that decodes and passes the fingerprint but names an item the
// corpus does not have must fail the restoring session with
// core.ErrUnexpectedMessage — not panic it inside re-conflation.
func TestCorruptCheckpointSurfacesOnRestore(t *testing.T) {
	corpus := fabricCorpus(t, 24, 5)
	part := core.EqualPartition(len(corpus.Transactions), 2, 5)
	const fp = 0xabcde
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := p2p.NewChanTransport(2)
	defer tr.Close()
	opts := chanOpts(part, tr, 3, store)
	if _, errs := runChan(corpus, []*core.Options{opts, opts}); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	st, err := store.Load(1, 0, fp)
	if err != nil {
		t.Fatal(err)
	}
	st.Global[0] = core.WireTxn{Items: []txn.ItemID{txn.ItemID(corpus.Items.Len() + 1<<20)}}
	if err := store.Save(1, fp, st); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(1, 0, fp); err != nil {
		t.Fatalf("the store vouches for fingerprint and slot only, yet Load failed: %v", err)
	}
	// Peer 1 awaits a StartMsg; the coordinator's resume rolls it back to
	// the corrupt round 0 instead.
	if err := tr.SendStamped(0, 1, p2p.EpochAny, core.ResumeMsg{Epoch: 1, Round: 0, Fingerprint: fp}); err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(corpus, opts, 1); !errors.Is(err, core.ErrUnexpectedMessage) {
		t.Fatalf("restore from a corrupt checkpoint returned %v, want an error wrapping core.ErrUnexpectedMessage", err)
	}
}

// ---------------------------------------------------------------- recovery

// buildNodes starts m loopback nodes with a shared address table.
func buildNodes(t *testing.T, m int) ([]*p2p.Node, []string) {
	t.Helper()
	listeners := make([]net.Listener, m)
	addrs := make([]string, m)
	for i := 0; i < m; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*p2p.Node, m)
	for i := 0; i < m; i++ {
		nodes[i] = p2p.NewNode(i, listeners[i], addrs, p2p.NodeOptions{DialTimeout: 2 * time.Second})
	}
	return nodes, addrs
}

func TestRecoveryAfterCrashResume(t *testing.T) { testRecovery(t, recoveryCase{}) }
func TestRecoveryAfterCrashJoin(t *testing.T)   { testRecovery(t, recoveryCase{freshStore: true}) }

// TestGracefulLeaveThenJoin: a member asked to leave replicates its
// checkpoint at the next boundary and ends with core.ErrLeft; a fresh
// process takes the slot with a join, and the session ends as if nobody had
// left.
func TestGracefulLeaveThenJoin(t *testing.T) {
	testRecovery(t, recoveryCase{leave: true, freshStore: true})
}

// TestJoinWithDivergentCorpusNotAdmitted: a replacement whose corpus has the
// session's shape but other answer text carries another fingerprint, so the
// coordinator never admits it — it restores nothing, and the stalled session
// fails instead of clustering two different corpora together.
func TestJoinWithDivergentCorpusNotAdmitted(t *testing.T) {
	testRecovery(t, recoveryCase{freshStore: true, divergent: true})
}

// recoveryCase selects how testRecovery loses and replaces its victim.
type recoveryCase struct {
	// leave makes the victim depart gracefully instead of crashing.
	leave bool
	// freshStore starts the replacement on an empty checkpoint directory
	// instead of the victim's.
	freshStore bool
	// divergent gives the replacement a corpus of the same shape whose
	// answers are spelled backwards.
	divergent bool
}

// testRecovery is the recovery-equivalence gate: a 4-peer session over real
// TCP nodes loses a peer at a round boundary; a replacement process joins
// the slot — on the victim's surviving checkpoint directory or on a fresh
// one, either way installing the coordinator's replica — and the final
// corpus-wide assignments and representatives must be byte-identical to an
// uninterrupted run.
func testRecovery(t *testing.T, tc recoveryCase) {
	corpus := fabricCorpus(t, 32, 9)
	const m, k, victim, lossRound = 4, 4, 2, 1
	seed := int64(3)
	roundTimeout := 1200 * time.Millisecond
	params := sim.Params{F: 0.5, Gamma: 0.6}
	part := core.EqualPartition(len(corpus.Transactions), m, seed)
	opts := core.Options{
		K: k, Params: params, Peers: m, Partition: part, Seed: seed,
		RoundTimeout: roundTimeout, StartupTimeout: 10 * time.Second,
	}

	// Uninterrupted reference (the in-process driver is byte-identical to
	// the multi-process deployment for the same parameters).
	cxRef := sim.NewContext(corpus, params)
	ref, err := core.Run(context.Background(), cxRef, corpus, core.Options{
		K: k, Params: params, Peers: m, Partition: part, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds <= lossRound {
		t.Fatalf("reference converged in %d rounds; nothing to lose mid-session", ref.Rounds)
	}
	refDigest := core.RepsDigest(ref.Items, ref.Reps)

	nodes, addrs := buildNodes(t, m)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	dirs := make([]string, m)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}

	coordinator := make(chan *Metrics, 1)
	// runPeer is one OS process of the deployment: its own corpus, its own
	// similarity context, its own StartMsg and fingerprint. wrap may stand
	// in for its store, and observe its events.
	runPeer := func(id int, corpus *txn.Corpus, node *p2p.Node, dir string, wrap func(*core.Options), join bool) (*core.PeerResult, *Metrics, error) {
		cx := sim.NewContext(corpus, params)
		o := opts
		o.Transport, o.Rejoin = node, join
		start := core.NewStartMsg(cx, corpus, o)
		store, err := NewStore(dir)
		if err != nil {
			return nil, nil, err
		}
		metrics := NewMetrics(node)
		if id == 0 && !join {
			coordinator <- metrics
		}
		o.Observer = metrics.Observe
		o.Fabric = &core.Fabric{
			Store:       store,
			Fingerprint: ConfigFingerprint(k, m, params.F, params.Gamma, seed, start.Txns, start.PartitionHash),
		}
		if join {
			// A joiner waits for its admission in round-timeout windows,
			// like any stalled peer, and gives up after its recovery windows.
			o.StartupTimeout = roundTimeout
		}
		wrap(&o)
		res, err := core.RunPeer(context.Background(), cx, corpus, o, start, id)
		return res, metrics, err
	}

	lost := make(chan struct{})
	results := make([]*core.PeerResult, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for id := 0; id < m; id++ {
		wrap := func(*core.Options) {}
		switch {
		case id == victim && tc.leave:
			// Leave at the loss round's boundary: the request goes in
			// during the round before it.
			wrap = func(o *core.Options) {
				leave := make(chan struct{})
				o.Fabric.Leave = leave
				observe := o.Observer
				o.Observer = func(ev core.Event) {
					observe(ev)
					if ev.Kind == core.EventRoundStart && ev.Round == lossRound-1 {
						close(leave)
					}
				}
			}
		case id == victim:
			// Crash at the loss round's boundary, before its checkpoint: the
			// transport dies with the process, so survivors see
			// dead-neighbour send failures, like after a SIGKILL.
			wrap = func(o *core.Options) {
				o.Fabric.Store = crashStore{Store: o.Fabric.Store.(*Store), round: lossRound, crash: func() {
					nodes[victim].Close()
					close(lost)
				}}
			}
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			res, _, err := runPeer(id, corpus, nodes[id], dirs[id], wrap, false)
			switch {
			case id == victim && tc.leave:
				// The process exits after its leave: its listener goes too.
				nodes[victim].Close()
				close(lost)
				if !errors.Is(err, core.ErrLeft) {
					errs[id] = fmt.Errorf("leaving peer ended with %v, want core.ErrLeft", err)
				}
			case id == victim:
				if !errors.Is(err, errTestCrash) {
					errs[id] = fmt.Errorf("victim failed with %v, want the simulated crash", err)
				}
			default:
				results[id], errs[id] = res, err
			}
		}(id)
	}

	<-lost
	lostAt := time.Now()
	if tc.leave {
		// Join once the coordinator is past the leave round's boundary, so
		// the join is admitted when its deadline fires, with every slot's
		// replica of that round in: the barrier is then the leave round.
		coord := <-coordinator
		for coord.Snapshot().Rounds <= lossRound {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The replacement process: same slot, same address, fresh everything
	// else, on the victim's checkpoint directory or a fresh one.
	var ln2 net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln2, err = net.Listen("tcp", addrs[victim])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding the victim's address: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	node2 := p2p.NewNode(victim, ln2, addrs, p2p.NodeOptions{DialTimeout: 2 * time.Second})
	defer node2.Close()
	dir2 := dirs[victim]
	if tc.freshStore {
		dir2 = t.TempDir()
	}
	corpus2 := corpus
	if tc.divergent {
		corpus2 = fabricCorpusWith(t, 32, 9, func(s string) string {
			r := []rune(s)
			slices.Reverse(r)
			return string(r)
		})
	}
	var resumedAt time.Time
	resumedRound := -1
	onBoundary := func(round int) {
		if resumedAt.IsZero() {
			resumedAt, resumedRound = time.Now(), round
		}
	}
	res2, metrics2, err2 := runPeer(victim, corpus2, node2, dir2, func(o *core.Options) {
		observe := o.Observer
		o.Observer = func(ev core.Event) {
			observe(ev)
			if ev.Kind == core.EventRoundStart {
				onBoundary(ev.Round)
			}
		}
	}, true)
	if tc.divergent {
		node2.Close()
	}
	wg.Wait()

	if tc.divergent {
		if err2 == nil {
			t.Fatal("the replacement on a divergent corpus completed the session")
		}
		if snap := metrics2.Snapshot(); snap.CheckpointsRestored != 0 || snap.Epoch != 0 || !resumedAt.IsZero() {
			t.Errorf("the replacement on a divergent corpus was admitted: %+v", snap)
		}
		if errs[0] == nil {
			t.Error("the coordinator completed a session whose slot was never retaken")
		}
		t.Logf("replacement: %v; coordinator: %v", err2, errs[0])
		return
	}
	if err2 != nil {
		t.Fatalf("replacement: %v", err2)
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", id, err)
		}
	}

	if results[0] == nil || results[0].Global == nil {
		t.Fatal("coordinator produced no corpus-wide assignment")
	}
	if !slices.Equal(results[0].Global, ref.Assign) {
		t.Fatal("recovered run diverged from the uninterrupted reference in assignments")
	}
	for _, pr := range []*core.PeerResult{results[0], results[1], results[3], res2} {
		if d := core.RepsDigest(pr.Items, pr.Reps); d != refDigest {
			t.Fatalf("peer %d representatives diverged (%016x vs %016x)", pr.ID, d, refDigest)
		}
	}

	if resumedAt.IsZero() {
		t.Fatal("replacement never reached a round boundary")
	}
	// A crash comes before the loss round's checkpoint, so the session rolls
	// back one cadence; a leave is that checkpoint, so nothing replays.
	wantRound := lossRound - 1
	if tc.leave {
		wantRound = lossRound
	}
	if resumedRound != wantRound {
		t.Errorf("replacement re-entered at round %d, want the barrier at round %d", resumedRound, wantRound)
	}
	recovery := resumedAt.Sub(lostAt)
	t.Logf("recovery (loss → replacement back in the round loop): %v", recovery)
	if recovery > 2*roundTimeout {
		t.Errorf("recovery took %v, above the 2× round-timeout bound (%v)", recovery, 2*roundTimeout)
	}

	snap := metrics2.Snapshot()
	if snap.CheckpointsRestored < 1 {
		t.Errorf("replacement restored %d checkpoints, want ≥ 1", snap.CheckpointsRestored)
	}
	if snap.Epoch < 1 {
		t.Errorf("replacement still at epoch %d, want ≥ 1", snap.Epoch)
	}
}
