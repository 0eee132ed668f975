package vector

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
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

// collectByStableSort is Collect as it was before it merged runs, kept
// verbatim as the oracle of TestCollectMatchesStableSort.
func collectByStableSort(parts []Entry) Sparse {
	slices.SortStableFunc(parts, func(a, b Entry) int { return cmp.Compare(a.Term, b.Term) })
	sums := parts[:0]
	for i := 0; i < len(parts); {
		sum := parts[i]
		for i++; i < len(parts) && parts[i].Term == sum.Term; i++ {
			sum.Weight += parts[i].Weight
		}
		if sum.Weight != 0 {
			sums = append(sums, sum)
		}
	}
	v := Sparse{entries: sums}
	v.norm = v.computeNorm()
	return v
}

// TestCollectMatchesStableSort: the run merge gives the entries and the norm
// of the stable sort it replaced, bit for bit, on whatever comes in —
// concatenations of ascending runs (the callers' shape), runs that repeat a
// term, fully unsorted input, one run, nothing — with negative weights and
// weights chosen so that the per-term order of addition shows in the bits and
// some sums cancel to zero.
func TestCollectMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	weight := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0.5
		case 1:
			return -0.5
		case 2:
			return 1e16 // absorbs small addends: (a+b)+c != a+(b+c)
		case 3:
			return -1e16
		}
		return rng.Float64()*3 - 1
	}
	cancelled, repeatedInRun, unsorted := 0, 0, 0
	for trial := 0; trial < 3000; trial++ {
		var parts []Entry
		vocab := 1 + rng.Intn(12)
		switch shape := rng.Intn(4); shape {
		case 0: // unsorted
			for n := rng.Intn(40); n > 0; n-- {
				parts = append(parts, Entry{Term: int32(rng.Intn(vocab)), Weight: weight()})
			}
			unsorted++
		default: // runs, ascending; shape 1 lets a run repeat a term
			for runs := rng.Intn(9); runs > 0; runs-- {
				for term := 0; term < vocab; term++ {
					for times := 0; rng.Intn(2) == 0; times++ {
						parts = append(parts, Entry{Term: int32(term), Weight: weight()})
						if shape != 1 {
							break
						}
						if times > 0 {
							repeatedInRun++
						}
					}
				}
			}
		}
		listed := map[int32]bool{}
		for _, e := range parts {
			listed[e.Term] = true
		}
		want := collectByStableSort(slices.Clone(parts))
		if want.Len() < len(listed) {
			cancelled++
		}
		got := Collect(parts)
		if got.Len() != want.Len() || math.Float64bits(got.Norm()) != math.Float64bits(want.Norm()) {
			t.Fatalf("trial %d: Collect = %v (norm %v), stable sort = %v (norm %v)", trial, got, got.Norm(), want, want.Norm())
		}
		for i, e := range got.Entries() {
			if w := want.Entries()[i]; e.Term != w.Term || math.Float64bits(e.Weight) != math.Float64bits(w.Weight) {
				t.Fatalf("trial %d entry %d: Collect has %v, stable sort %v", trial, i, e, w)
			}
		}
	}
	if cancelled == 0 || repeatedInRun == 0 || unsorted == 0 {
		t.Fatalf("generator missed a shape: cancelled %d, repeated-in-run %d, unsorted %d", cancelled, repeatedInRun, unsorted)
	}
}
