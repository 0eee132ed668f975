package xmlclust

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/sim"
)

// deltaTestCorpus builds a generated corpus big enough for several
// collaborative rounds — the regime the cross-round delta engine exists
// for. sampleCorpus converges too fast to exercise the caches.
func deltaTestCorpus(t testing.TB) (*Corpus, int) {
	t.Helper()
	gen, ok := dataset.ByName("DBLP")
	if !ok {
		t.Fatal("DBLP generator missing")
	}
	col := gen(dataset.Spec{Docs: 20, Seed: 99})
	return col.BuildCorpus(dataset.ByHybrid, 24, 1), col.K(dataset.ByHybrid)
}

// assertSameClustering compares two public Results byte for byte:
// assignments, round counts and representative item sequences.
func assertSameClustering(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Errorf("%s: rounds %d, want %d", label, got.Rounds, want.Rounds)
	}
	if len(got.Assign) != len(want.Assign) {
		t.Fatalf("%s: assign length %d, want %d", label, len(got.Assign), len(want.Assign))
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("%s: assignment diverges at transaction %d: %d != %d",
				label, i, got.Assign[i], want.Assign[i])
		}
	}
	if len(got.Reps) != len(want.Reps) {
		t.Fatalf("%s: %d representatives, want %d", label, len(got.Reps), len(want.Reps))
	}
	for j := range want.Reps {
		a, b := want.Reps[j], got.Reps[j]
		if (a == nil) != (b == nil) || (a != nil && !a.Equal(b)) {
			t.Errorf("%s: representative %d diverges", label, j)
		}
	}
}

// TestClusterDeltaModesIdentical is the public-API byte-identity gate of the
// one engine switch: IndexReps: RepIndexOff alone and DeltaRounds:
// DeltaRoundsOff alone each select the reference engine end to end — the
// default run's assignment, rounds and representatives (RepsDigest included)
// with every fast-engine counter at zero and the same modeled traffic — for
// collaborative XK-means over three peers and for the PK-means baseline.
func TestClusterDeltaModesIdentical(t *testing.T) {
	corpus, k := deltaTestCorpus(t)
	eng := freshEngine(t, corpus)
	ctx := context.Background()
	for _, alg := range []Algorithm{CXKMeans, PKMeans} {
		base := ClusterOptions{K: k, F: 0.5, Gamma: 0.7, Peers: 3, Seed: 9, Algorithm: alg}
		def, err := eng.Cluster(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		if def.Rounds >= 3 && (def.IndexCandidates == 0 || def.RepsReused == 0) {
			t.Errorf("alg %v: %d-round default run never scored through the index or hit the memo", alg, def.Rounds)
		}
		for label, off := range map[string]func(*ClusterOptions){
			"IndexReps off":   func(o *ClusterOptions) { o.IndexReps = RepIndexOff },
			"DeltaRounds off": func(o *ClusterOptions) { o.DeltaRounds = DeltaRoundsOff },
		} {
			opts := base
			off(&opts)
			ref, err := eng.Cluster(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			label = fmt.Sprintf("alg %v, %s", alg, label)
			assertSameClustering(t, label, def, ref)
			if a, b := RepsDigest(corpus, def.Reps), RepsDigest(corpus, ref.Reps); a != b {
				t.Errorf("%s: RepsDigest %016x, default run %016x", label, b, a)
			}
			if ref.CounterSnapshot != (sim.CounterSnapshot{}) {
				t.Errorf("%s: a reference run moved fast-engine counters: %+v", label, ref.CounterSnapshot)
			}
			if def.TrafficBytes != ref.TrafficBytes || def.TrafficMsgs != ref.TrafficMsgs {
				t.Errorf("%s: the engines put different traffic on the wire: %d msgs / %d B vs %d msgs / %d B",
					label, ref.TrafficMsgs, ref.TrafficBytes, def.TrafficMsgs, def.TrafficBytes)
			}
		}
	}
}

// TestClusterDeltaDefaultOn pins the zero value: ClusterOptions without an
// explicit mode runs the fast engine, on a fresh Engine too, with output
// identical to an explicit DeltaRoundsOff run.
func TestClusterDeltaDefaultOn(t *testing.T) {
	corpus, k := deltaTestCorpus(t)
	opts := ClusterOptions{K: k, F: 0.5, Gamma: 0.7, Seed: 9}
	def, err := freshEngine(t, corpus).Cluster(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DeltaRounds = DeltaRoundsOff
	off, err := freshEngine(t, corpus).Cluster(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameClustering(t, "default vs off", off, def)
	if def.Rounds >= 3 && def.RepsReused == 0 {
		t.Errorf("default-mode %d-round run never hit the memo: the default is not on", def.Rounds)
	}
}

// TestLoadedCorpusClustersAsBuilt: a corpus that went through the file is the
// built one to everything above it — same assignments, rounds and RepsDigest
// for three seeds, both engines, one peer and
// three — and what clustering conflates into the loaded tables saves to a
// fixed point of Load∘Save.
func TestLoadedCorpusClustersAsBuilt(t *testing.T) {
	built, k := deltaTestCorpus(t)
	var file bytes.Buffer
	if err := SaveCorpus(&file, built); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		for _, peers := range []int{1, 3} {
			for _, mode := range []DeltaRoundsMode{DeltaRoundsAuto, DeltaRoundsOff} {
				opts := ClusterOptions{K: k, F: 0.5, Gamma: 0.7, Peers: peers, Seed: seed, DeltaRounds: mode}
				want, err := freshEngine(t, built).Cluster(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := freshEngine(t, loaded).Cluster(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed %d, %d peers, delta mode %v", seed, peers, mode)
				if got.Rounds != want.Rounds || !slices.Equal(got.Assign, want.Assign) {
					t.Errorf("%s: %d rounds and assignments %v from the loaded corpus, %d and %v from the built one",
						label, got.Rounds, got.Assign, want.Rounds, want.Assign)
				}
				// Synthetic ids depend on which peer conflates first; the digest is over raw constituents.
				if a, b := RepsDigest(built, want.Reps), RepsDigest(loaded, got.Reps); a != b {
					t.Errorf("%s: RepsDigest %016x from the loaded corpus, %016x from the built one", label, b, a)
				}
			}
		}
	}
	var clustered, again bytes.Buffer
	if err := SaveCorpus(&clustered, loaded); err != nil {
		t.Fatal(err)
	}
	if clustered.Len() <= file.Len() {
		t.Fatalf("clustering conflated nothing into the loaded tables (%d bytes, %d before)", clustered.Len(), file.Len())
	}
	back, err := LoadCorpus(bytes.NewReader(clustered.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clustered.Bytes(), again.Bytes()) {
		t.Fatal("the loaded-then-clustered corpus does not re-save to the bytes it loads back from")
	}
}
