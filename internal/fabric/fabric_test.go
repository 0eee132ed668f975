package fabric

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
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
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	authors := []string{"alice cooper", "bob dylan", "carol king"}
	topics := []string{"mining frequent patterns", "routing wireless networks", "parsing xml streams"}
	venues := []string{"KDD", "NETCONF", "XMLPRAGUE"}
	var trees []*xmltree.Tree
	for i := 0; i < docs; i++ {
		g := rng.Intn(len(topics))
		doc := fmt.Sprintf(`<db><paper key="p%d">
			<writer>%s</writer>
			<name>%s number%d</name>
			<venue>%s</venue>
		</paper></db>`, i, authors[g], topics[g], rng.Intn(3), venues[rng.Intn(len(venues))])
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
	tr := p2p.NewChanTransport(m, nil)
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
	tr := p2p.NewChanTransport(1, nil)
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

func TestRecoveryAfterCrashResume(t *testing.T) { testRecovery(t, false) }
func TestRecoveryAfterCrashJoin(t *testing.T)   { testRecovery(t, true) }

// testRecovery is the recovery-equivalence gate: a 4-peer session over real
// TCP nodes loses a peer at a round boundary; a replacement process takes
// the slot back — restoring from the victim's surviving checkpoint store
// (resume) or receiving the coordinator's state transfer (join) — and the
// final corpus-wide assignments and representatives must be byte-identical
// to an uninterrupted run.
func testRecovery(t *testing.T, freshStore bool) {
	corpus := fabricCorpus(t, 32, 9)
	const m, k, victim, crashRound = 4, 4, 2, 1
	seed := int64(3)
	roundTimeout := 1200 * time.Millisecond
	params := sim.Params{F: 0.5, Gamma: 0.6}
	part := core.EqualPartition(len(corpus.Transactions), m, seed)

	// Uninterrupted reference (the in-process driver is byte-identical to
	// the multi-process deployment for the same parameters).
	cxRef := sim.NewContext(corpus, params)
	ref, err := core.Run(context.Background(), cxRef, corpus, core.Options{
		K: k, Params: params, Peers: m, Partition: part, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds <= crashRound {
		t.Fatalf("reference converged in %d rounds; nothing to crash mid-session", ref.Rounds)
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
	fp := ConfigFingerprint(k, m, params.F, params.Gamma, seed, len(corpus.Transactions), core.PartitionFingerprint(part))

	runPeer := func(id int, node *p2p.Node, hooks core.Hooks, rejoin bool) (*core.PeerResult, error) {
		// Each peer gets its own similarity context, like one OS process per
		// peer in a real deployment.
		cx := sim.NewContext(corpus, params)
		return core.RunPeer(context.Background(), cx, corpus, core.Options{
			K: k, Params: params, Peers: m, Partition: part, Seed: seed,
			Transport: node, RoundTimeout: roundTimeout, StartupTimeout: 10 * time.Second,
			Hooks: hooks, Rejoin: rejoin,
		}, id)
	}

	crashed := make(chan struct{})
	results := make([]*core.PeerResult, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for id := 0; id < m; id++ {
		store, err := NewStore(dirs[id])
		if err != nil {
			t.Fatal(err)
		}
		fab, err := NewPeer(Config{
			ID: id, Transport: nodes[id], Store: store, Corpus: corpus,
			Partition: part, Fingerprint: fp,
		})
		if err != nil {
			t.Fatal(err)
		}
		var hooks core.Hooks = fab
		if id == victim {
			hooks = &crashAfter{Peer: fab, round: crashRound, node: nodes[victim], crashed: crashed}
		}
		wg.Add(1)
		go func(id int, hooks core.Hooks) {
			defer wg.Done()
			res, err := runPeer(id, nodes[id], hooks, false)
			if id == victim {
				if !errors.Is(err, errTestCrash) {
					errs[id] = fmt.Errorf("victim failed with %v, want the simulated crash", err)
				}
				return
			}
			results[id], errs[id] = res, err
		}(id, hooks)
	}

	<-crashed
	crashedAt := time.Now()

	// The replacement process: same slot, same address, fresh everything
	// else. Resume reuses the victim's checkpoint store; join starts with
	// an empty one and relies on the coordinator's state transfer.
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
	if freshStore {
		dir2 = t.TempDir()
	}
	store2, err := NewStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	fab2, err := NewPeer(Config{
		ID: victim, Transport: node2, Store: store2, Corpus: corpus,
		Partition: part, Fingerprint: fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resumedAt time.Time
	resumed := &hookWrap{Peer: fab2, onBoundary: func() {
		if resumedAt.IsZero() {
			resumedAt = time.Now()
		}
	}}
	if err := fab2.SendJoin(); err != nil {
		t.Fatal(err)
	}
	res2, err := runPeer(victim, node2, resumed, true)
	if err != nil {
		t.Fatalf("replacement: %v", err)
	}
	wg.Wait()
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
	recovery := resumedAt.Sub(crashedAt)
	t.Logf("recovery (crash → replacement back in the round loop): %v", recovery)
	if recovery > 2*roundTimeout {
		t.Errorf("recovery took %v, above the 2× round-timeout bound (%v)", recovery, 2*roundTimeout)
	}

	snap := fab2.Metrics().Snapshot()
	if snap.CheckpointsRestored < 1 {
		t.Errorf("replacement restored %d checkpoints, want ≥ 1", snap.CheckpointsRestored)
	}
	if freshStore && snap.BytesRebalanced == 0 {
		t.Error("join recovery moved no partition-slice bytes")
	}
	if snap.Epoch < 1 {
		t.Errorf("replacement still at epoch %d, want ≥ 1", snap.Epoch)
	}
}

// hookWrap forwards to the fabric peer, additionally observing boundaries.
type hookWrap struct {
	*Peer
	onBoundary func()
}

func (h *hookWrap) RoundBoundary(st *core.SessionState) (*core.SessionState, error) {
	h.onBoundary()
	return h.Peer.RoundBoundary(st)
}
