package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFromMapSortsAndDropsZeros(t *testing.T) {
	v := FromMap(map[int32]float64{5: 1, 2: 3, 9: 0, 7: -2})
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	es := v.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Term >= es[i].Term {
			t.Fatalf("entries not sorted: %v", es)
		}
	}
	if v.Weight(9) != 0 {
		t.Errorf("zero weight survived")
	}
	if v.Weight(2) != 3 || v.Weight(7) != -2 {
		t.Errorf("weights wrong: %v", v)
	}
}

func TestFromEntriesPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted entries")
		}
	}()
	FromEntries([]Entry{{Term: 3, Weight: 1}, {Term: 1, Weight: 1}})
}

func TestZeroValueUsable(t *testing.T) {
	var v Sparse
	if !v.IsZero() || v.Len() != 0 || v.Norm() != 0 {
		t.Errorf("zero value not empty")
	}
	if got := Cosine(v, FromMap(map[int32]float64{1: 1})); got != 0 {
		t.Errorf("cosine with zero vector = %v, want 0", got)
	}
}

func TestDotDisjointAndOverlap(t *testing.T) {
	a := FromMap(map[int32]float64{1: 2, 3: 4})
	b := FromMap(map[int32]float64{2: 5, 4: 6})
	if got := Dot(a, b); got != 0 {
		t.Errorf("disjoint dot = %v", got)
	}
	c := FromMap(map[int32]float64{1: 1, 3: 2})
	if got := Dot(a, c); !approx(got, 2+8) {
		t.Errorf("dot = %v, want 10", got)
	}
}

func TestCosineSelfIsOne(t *testing.T) {
	v := FromMap(map[int32]float64{1: 0.3, 5: 1.7, 9: 2.2})
	if got := Cosine(v, v); !approx(got, 1) {
		t.Errorf("cos(v,v) = %v", got)
	}
}

func TestCosineScaleInvariant(t *testing.T) {
	a := FromMap(map[int32]float64{1: 1, 2: 2, 3: 3})
	b := Scale(a, 7.5)
	if got := Cosine(a, b); !approx(got, 1) {
		t.Errorf("cos(a, 7.5a) = %v", got)
	}
}

func TestAddCombines(t *testing.T) {
	a := FromMap(map[int32]float64{1: 1, 2: 2})
	b := FromMap(map[int32]float64{2: 3, 4: 4})
	s := Add(a, b)
	if s.Weight(1) != 1 || s.Weight(2) != 5 || s.Weight(4) != 4 {
		t.Errorf("Add wrong: %v", s)
	}
	// Cancellation drops the entry entirely.
	c := Add(FromMap(map[int32]float64{3: 1}), FromMap(map[int32]float64{3: -1}))
	if c.Len() != 0 {
		t.Errorf("cancelled entry survived: %v", c)
	}
}

func TestAddZeroIdentity(t *testing.T) {
	a := FromMap(map[int32]float64{1: 1})
	if got := Add(a, Sparse{}); !Equal(got, a) {
		t.Errorf("a+0 != a")
	}
	if got := Add(Sparse{}, a); !Equal(got, a) {
		t.Errorf("0+a != a")
	}
}

func TestNormMatchesDefinition(t *testing.T) {
	v := FromMap(map[int32]float64{1: 3, 2: 4})
	if !approx(v.Norm(), 5) {
		t.Errorf("norm = %v, want 5", v.Norm())
	}
}

func randomVec(rng *rand.Rand, maxTerms int) Sparse {
	n := rng.Intn(maxTerms)
	m := map[int32]float64{}
	for i := 0; i < n; i++ {
		m[int32(rng.Intn(50))] = rng.Float64()*4 - 2
	}
	return FromMap(m)
}

func TestPropertyDotSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		a, b := randomVec(rng, 20), randomVec(rng, 20)
		if !approx(Dot(a, b), Dot(b, a)) {
			t.Fatalf("dot not symmetric: %v %v", a, b)
		}
	}
}

func TestPropertyCosineRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		// Non-negative weights as produced by ttf.itf.
		m1, m2 := map[int32]float64{}, map[int32]float64{}
		for j := 0; j < rng.Intn(15); j++ {
			m1[int32(rng.Intn(30))] = rng.Float64() * 3
		}
		for j := 0; j < rng.Intn(15); j++ {
			m2[int32(rng.Intn(30))] = rng.Float64() * 3
		}
		c := Cosine(FromMap(m1), FromMap(m2))
		if c < 0 || c > 1 {
			t.Fatalf("cosine out of range: %v", c)
		}
	}
}

func TestPropertyAddNormTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		a, b := randomVec(rng, 20), randomVec(rng, 20)
		if Add(a, b).Norm() > a.Norm()+b.Norm()+1e-9 {
			t.Fatalf("triangle inequality violated")
		}
	}
}

func TestPropertyCachedNormConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVec(rng, 25)
		return approx(v.Norm(), v.computeNorm())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScale(t *testing.T) {
	v := FromMap(map[int32]float64{1: 2, 2: -3})
	s := Scale(v, -2)
	if s.Weight(1) != -4 || s.Weight(2) != 6 {
		t.Errorf("Scale wrong: %v", s)
	}
	if !approx(s.Norm(), 2*v.Norm()) {
		t.Errorf("Scale norm wrong: %v vs %v", s.Norm(), v.Norm())
	}
	if !Scale(v, 0).IsZero() {
		t.Errorf("Scale by 0 should be zero vector")
	}
}

func TestStringFormat(t *testing.T) {
	v := FromMap(map[int32]float64{1: 1.5})
	if v.String() != "[1:1.500]" {
		t.Errorf("String = %q", v.String())
	}
}

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m1, m2 := map[int32]float64{}, map[int32]float64{}
	for i := 0; i < 50; i++ {
		m1[int32(rng.Intn(500))] = rng.Float64()
		m2[int32(rng.Intn(500))] = rng.Float64()
	}
	x, y := FromMap(m1), FromMap(m2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkCosine(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m1, m2 := map[int32]float64{}, map[int32]float64{}
	for i := 0; i < 30; i++ {
		m1[int32(rng.Intn(200))] = rng.Float64()
		m2[int32(rng.Intn(200))] = rng.Float64()
	}
	x, y := FromMap(m1), FromMap(m2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Cosine(x, y)
	}
}

// TestCollectMatchesRepeatedAdd: Collect over the concatenated components of
// a vector list has the bits of adding the vectors one after the other —
// including components that cancel and zero vectors in the list.
func TestCollectMatchesRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var vs []Sparse
		for n := rng.Intn(7); n >= 0; n-- {
			m := map[int32]float64{}
			for k := rng.Intn(6); k > 0; k-- {
				w := rng.Float64()*3 - 1
				if rng.Intn(8) == 0 {
					w = 0.5 // exact values, so that some sums cancel
				} else if rng.Intn(8) == 0 {
					w = -0.5
				}
				m[int32(rng.Intn(9))] = w
			}
			vs = append(vs, FromMap(m))
		}
		want := Sparse{}
		var parts []Entry
		for _, v := range vs {
			want = Add(want, v)
			parts = append(parts, v.Entries()...)
		}
		got := Collect(parts)
		if !Equal(got, want) || got.Norm() != want.Norm() {
			t.Fatalf("trial %d: Collect = %v (norm %v), repeated Add = %v (norm %v)", trial, got, got.Norm(), want, want.Norm())
		}
	}
}
