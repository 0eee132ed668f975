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
		tree, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	corpus := txn.Build(trees, txn.BuildOptions{})
	weighting.Apply(corpus)
	return corpus
}

// hookFns adapts closures to core.Hooks (nil fields are pass-through).
type hookFns struct {
	boundary func(st *core.SessionState) (*core.SessionState, error)
}

func (h *hookFns) RoundBoundary(st *core.SessionState) (*core.SessionState, error) {
	if h.boundary != nil {
		return h.boundary(st)
	}
	return nil, nil
}
func (h *hookFns) Control(env p2p.Envelope) (*core.SessionState, error)          { return nil, nil }
func (h *hookFns) Deadline(ph core.Phase, round int) (*core.SessionState, error) { return nil, nil }
func (h *hookFns) SendFailed(to, round int, err error) error                     { return err }

func gobBytes(t *testing.T, st *core.SessionState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runPair runs an m-peer in-process session over a channel transport,
// capturing every peer's round-boundary states. When initials is non-nil
// the peers install those states instead of waiting for a StartMsg.
func runPair(t *testing.T, corpus *txn.Corpus, part [][]int, k int, initials []*core.SessionState) ([]*core.SessionResult, [][]*core.SessionState) {
	t.Helper()
	m := len(part)
	tr := p2p.NewChanTransport(m)
	defer tr.Close()
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	states := make([][]*core.SessionState, m)
	peers := make([]*core.Peer, m)
	for id := 0; id < m; id++ {
		id := id
		local := make([]*txn.Transaction, len(part[id]))
		for j, idx := range part[id] {
			local[j] = corpus.Transactions[idx]
		}
		cfg := core.PeerConfig{
			ID: id, Ctx: cx, Local: local, Transport: tr,
			Sizer: core.Sizer(corpus.Items), Seed: 1 + int64(id),
			Hooks: &hookFns{boundary: func(st *core.SessionState) (*core.SessionState, error) {
				states[id] = append(states[id], st)
				return nil, nil
			}},
		}
		if initials != nil {
			cfg.Initial = initials[id]
		}
		peers[id] = core.NewPeer(cfg)
	}
	if initials == nil {
		start := core.StartMsg{Zs: core.ResponsibilityPartition(k, m), K: k, F: 0.5, Gamma: 0.6}
		for i := 0; i < m; i++ {
			if err := tr.Send(0, i, start); err != nil {
				t.Fatal(err)
			}
		}
	}
	results := make([]*core.SessionResult, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for id := 0; id < m; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = peers[id].RunSession(context.Background())
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", id, err)
		}
	}
	return results, states
}

// TestCheckpointRestoreEveryBoundary is the fabric's determinism property
// test: persisting the session state through the Store at EVERY round
// boundary of a tie-heavy session and restarting both peers from the
// restored states replays the remaining session to byte-identical output.
// The store round-trip itself must be byte-stable under gob.
func TestCheckpointRestoreEveryBoundary(t *testing.T) {
	corpus := fabricCorpus(t, 24, 5)
	const k = 3
	part := core.EqualPartition(len(corpus.Transactions), 2, 5)
	ref, states := runPair(t, corpus, part, k, nil)
	refDigest := core.RepsDigest(corpus.Items, ref[0].Reps)

	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const fp = 0xabcde
	common := len(states[0])
	if len(states[1]) < common {
		common = len(states[1])
	}
	if common < 2 {
		t.Fatalf("only %d round boundaries; corpus converges too fast for the property", common)
	}
	for r := 0; r < common; r++ {
		initials := make([]*core.SessionState, 2)
		for id := 0; id < 2; id++ {
			st := states[id][r]
			if err := store.Save(id, fp, st); err != nil {
				t.Fatal(err)
			}
			loaded, err := store.Load(id, st.Round, fp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gobBytes(t, st), gobBytes(t, loaded)) {
				t.Fatalf("peer %d round %d: state changed across the store round-trip", id, r)
			}
			initials[id] = loaded
		}
		res, _ := runPair(t, corpus, part, k, initials)
		for id := 0; id < 2; id++ {
			if !intsEqual(res[id].Assign, ref[id].Assign) {
				t.Fatalf("restore at boundary %d: peer %d assignments diverged", r, id)
			}
		}
		if d := core.RepsDigest(corpus.Items, res[0].Reps); d != refDigest {
			t.Fatalf("restore at boundary %d: representatives diverged (%016x vs %016x)", r, d, refDigest)
		}
	}
	// A checkpoint from a differently configured run must refuse to load.
	if _, err := store.Load(0, states[0][0].Round, fp+1); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("want ErrCheckpointMismatch, got %v", err)
	}
}

// TestCorruptCheckpointSurfacesOnRestore: a checkpoint file is bytes on a
// disk, and the fingerprint only vouches for the configuration it was written
// under. One that decodes and passes the fingerprint but names an item the
// corpus does not have must fail the restoring session with
// core.ErrUnexpectedMessage — not panic it inside re-conflation.
func TestCorruptCheckpointSurfacesOnRestore(t *testing.T) {
	corpus := fabricCorpus(t, 24, 5)
	part := core.EqualPartition(len(corpus.Transactions), 1, 5)
	_, states := runPair(t, corpus, part, 3, nil)
	st := states[0][len(states[0])-1]
	st.Global[0] = core.WireTxn{Items: []txn.ItemID{txn.ItemID(corpus.Items.Len() + 1<<20)}}

	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(0, 7, st); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(0, st.Round, 7)
	if err != nil {
		t.Fatalf("the store vouches for fingerprint and slot only, yet Load failed: %v", err)
	}
	tr := p2p.NewChanTransport(1)
	defer tr.Close()
	local := make([]*txn.Transaction, len(part[0]))
	for j, idx := range part[0] {
		local[j] = corpus.Transactions[idx]
	}
	peer := core.NewPeer(core.PeerConfig{
		ID: 0, Ctx: sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6}), Local: local, Transport: tr,
		Sizer: core.Sizer(corpus.Items), Seed: 1, Hooks: &hookFns{}, Initial: loaded,
	})
	if _, err := peer.RunSession(context.Background()); !errors.Is(err, core.ErrUnexpectedMessage) {
		t.Fatalf("restore from a corrupt checkpoint returned %v, want an error wrapping core.ErrUnexpectedMessage", err)
	}
}

// ---------------------------------------------------------------- recovery

var errTestCrash = errors.New("fabric test: simulated crash")

// crashAfter wraps the fabric hooks of the victim: at the given round
// boundary it kills the peer's transport (so survivors see dead-neighbour
// send failures, like a SIGKILL) and fails the session.
type crashAfter struct {
	*Peer
	round   int
	node    *p2p.Node
	crashed chan struct{}
}

func (c *crashAfter) RoundBoundary(st *core.SessionState) (*core.SessionState, error) {
	if st.Round >= c.round {
		c.node.Close()
		close(c.crashed)
		return nil, errTestCrash
	}
	return c.Peer.RoundBoundary(st)
}

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
	refDigest := core.RepsDigest(corpus.Items, ref.Reps)

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

	// runPeer is one OS process of the deployment: its own corpus, its own
	// similarity context, its own StartMsg and fingerprint.
	runPeer := func(id int, corpus *txn.Corpus, node *p2p.Node, dir string, wrap func(*Peer) core.Hooks, join bool) (*core.PeerResult, *Peer, error) {
		cx := sim.NewContext(corpus, params)
		o := opts
		o.Transport, o.Rejoin = node, join
		start := core.NewStartMsg(cx, corpus, o)
		store, err := NewStore(dir)
		if err != nil {
			return nil, nil, err
		}
		fab, err := NewPeer(Config{
			ID: id, Transport: node, Store: store,
			Fingerprint: ConfigFingerprint(k, m, params.F, params.Gamma, seed, start.Txns, start.PartitionHash),
		})
		if err != nil {
			return nil, nil, err
		}
		o.Hooks = wrap(fab)
		if join {
			// A joiner waits for its admission in round-timeout windows,
			// like any stalled peer, and gives up after its recovery windows.
			o.StartupTimeout = roundTimeout
			if err := fab.SendJoin(); err != nil {
				return nil, fab, err
			}
		}
		res, err := core.RunPeer(context.Background(), cx, corpus, o, start, id)
		return res, fab, err
	}

	lost := make(chan struct{})
	coordinator := make(chan *Peer, 1)
	results := make([]*core.PeerResult, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for id := 0; id < m; id++ {
		wrap := func(fab *Peer) core.Hooks { return fab }
		switch {
		case id == 0:
			wrap = func(fab *Peer) core.Hooks { coordinator <- fab; return fab }
		case id == victim && tc.leave:
			wrap = func(fab *Peer) core.Hooks { return &leaveAt{Peer: fab, round: lossRound} }
		case id == victim:
			wrap = func(fab *Peer) core.Hooks {
				return &crashAfter{Peer: fab, round: lossRound, node: nodes[victim], crashed: lost}
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
		for coord.Metrics().Snapshot().Rounds <= lossRound {
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
	res2, fab2, err2 := runPeer(victim, corpus2, node2, dir2, func(fab *Peer) core.Hooks {
		return &hookWrap{Peer: fab, onBoundary: onBoundary}
	}, true)
	if tc.divergent {
		node2.Close()
	}
	wg.Wait()

	if tc.divergent {
		if err2 == nil {
			t.Fatal("the replacement on a divergent corpus completed the session")
		}
		if snap := fab2.Metrics().Snapshot(); snap.CheckpointsRestored != 0 || snap.Epoch != 0 || !resumedAt.IsZero() {
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
	if !intsEqual(results[0].Global, ref.Assign) {
		t.Fatal("recovered run diverged from the uninterrupted reference in assignments")
	}
	for _, pr := range []*core.PeerResult{results[0], results[1], results[3], res2} {
		if d := core.RepsDigest(corpus.Items, pr.Reps); d != refDigest {
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

	snap := fab2.Metrics().Snapshot()
	if snap.CheckpointsRestored < 1 {
		t.Errorf("replacement restored %d checkpoints, want ≥ 1", snap.CheckpointsRestored)
	}
	if snap.Epoch < 1 {
		t.Errorf("replacement still at epoch %d, want ≥ 1", snap.Epoch)
	}
}

// leaveAt requests a graceful leave on reaching the given round boundary.
type leaveAt struct {
	*Peer
	round int
}

func (l *leaveAt) RoundBoundary(st *core.SessionState) (*core.SessionState, error) {
	if st.Round >= l.round {
		l.RequestLeave()
	}
	return l.Peer.RoundBoundary(st)
}

// hookWrap forwards to the fabric peer, additionally observing boundaries.
type hookWrap struct {
	*Peer
	onBoundary func(round int)
}

func (h *hookWrap) RoundBoundary(st *core.SessionState) (*core.SessionState, error) {
	h.onBoundary(st.Round)
	return h.Peer.RoundBoundary(st)
}
