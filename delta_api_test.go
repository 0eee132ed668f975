package xmlclust

import (
	"context"
	"fmt"
	"testing"

	"xmlclust/internal/dataset"
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

// TestClusterDeltaModesIdentical is the public-API byte-identity gate of
// the delta-round engine: Engine.Cluster with DeltaRounds on and off must
// agree exactly — assignments, rounds, representatives — for both
// algorithms (collaborative XK-means and the PK-means baseline) and for
// centralized as well as multi-peer runs.
func TestClusterDeltaModesIdentical(t *testing.T) {
	corpus, k := deltaTestCorpus(t)
	eng, err := NewEngine(corpus, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, alg := range []Algorithm{CXKMeans, PKMeans} {
		for _, peers := range []int{1, 3} {
			base := ClusterOptions{
				K: k, F: 0.5, Gamma: 0.7, Peers: peers, Seed: 9, Algorithm: alg,
			}
			off := base
			off.DeltaRounds = DeltaRoundsOff
			want, err := eng.Cluster(ctx, off)
			if err != nil {
				t.Fatal(err)
			}
			if want.RepsReused != 0 || want.DocsSkipped != 0 || want.DeltaRepBytes != 0 {
				t.Errorf("alg %v peers %d: delta-off run reported delta counters (%d, %d, %d)",
					alg, peers, want.RepsReused, want.DocsSkipped, want.DeltaRepBytes)
			}
			on := base
			on.DeltaRounds = DeltaRoundsAuto
			got, err := eng.Cluster(ctx, on)
			if err != nil {
				t.Fatal(err)
			}
			assertSameClustering(t, fmt.Sprintf("alg %v peers %d", alg, peers), want, got)
			if got.Rounds >= 3 && got.RepsReused+got.DocsSkipped == 0 {
				t.Errorf("alg %v peers %d: %d-round delta run never hit a cache",
					alg, peers, got.Rounds)
			}
			if alg == CXKMeans && peers > 1 && got.Rounds >= 3 {
				if got.DeltaRepBytes <= 0 {
					t.Errorf("peers %d: no representative shipped as a digest marker", peers)
				}
				if got.TrafficBytes >= want.TrafficBytes {
					t.Errorf("peers %d: delta exchange did not reduce modeled traffic (%d B vs %d B)",
						peers, got.TrafficBytes, want.TrafficBytes)
				}
			}
		}
	}
}

// TestClusterDeltaDefaultOn pins the zero value: ClusterOptions without an
// explicit DeltaRounds mode runs the delta engine (DeltaRoundsAuto), and
// the legacy Cluster wrapper inherits the same behavior with identical
// output to an explicit DeltaRoundsOff run.
func TestClusterDeltaDefaultOn(t *testing.T) {
	corpus, k := deltaTestCorpus(t)
	opts := ClusterOptions{K: k, F: 0.5, Gamma: 0.7, Seed: 9}
	def, err := Cluster(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DeltaRounds = DeltaRoundsOff
	off, err := Cluster(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameClustering(t, "default vs off", off, def)
	if def.Rounds >= 3 && def.RepsReused+def.DocsSkipped == 0 {
		t.Errorf("default-mode %d-round run never hit a delta cache: the default is not on", def.Rounds)
	}
}
