// Package vector provides immutable-by-convention sparse term vectors used
// to represent textual content units (TCUs). Components are kept sorted by
// term id, so dot products and merges run in linear time.
package vector

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Entry is a single (term id, weight) component of a sparse vector.
type Entry struct {
	Term   int32
	Weight float64
}

// Sparse is a sparse vector with entries sorted by ascending term id.
// The zero value is the empty vector, ready to use.
type Sparse struct {
	entries []Entry
	norm    float64 // cached Euclidean norm; 0 means "not computed or empty"
}

// FromMap builds a sparse vector from a term→weight map. Zero weights are
// dropped.
func FromMap(m map[int32]float64) Sparse {
	if len(m) == 0 {
		return Sparse{}
	}
	entries := make([]Entry, 0, len(m))
	for t, w := range m {
		if w != 0 {
			entries = append(entries, Entry{Term: t, Weight: w})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Term < entries[j].Term })
	v := Sparse{entries: entries}
	v.norm = v.computeNorm()
	return v
}

// FromEntries builds a sparse vector from entries that must already be
// sorted by term id with no duplicates; it panics otherwise. Use FromMap
// when the input is unordered.
func FromEntries(entries []Entry) Sparse {
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Term >= entries[i].Term {
			panic(fmt.Sprintf("vector: entries not strictly sorted at %d", i))
		}
	}
	v := Sparse{entries: entries}
	v.norm = v.computeNorm()
	return v
}

// Len returns the number of non-zero components.
func (v Sparse) Len() int { return len(v.entries) }

// IsZero reports whether the vector has no non-zero components.
func (v Sparse) IsZero() bool { return len(v.entries) == 0 }

// Entries exposes the underlying components. Callers must not mutate the
// returned slice.
func (v Sparse) Entries() []Entry { return v.entries }

// Weight returns the weight of term t (0 when absent).
func (v Sparse) Weight(t int32) float64 {
	i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Term >= t })
	if i < len(v.entries) && v.entries[i].Term == t {
		return v.entries[i].Weight
	}
	return 0
}

func (v Sparse) computeNorm() float64 {
	var s float64
	for _, e := range v.entries {
		s += e.Weight * e.Weight
	}
	return math.Sqrt(s)
}

// Norm returns the Euclidean norm.
func (v Sparse) Norm() float64 { return v.norm }

// Collect sums components given in any term order into a vector: parts is
// put in term order stably and each run of one term is added up left to
// right, so per term the weights are added in the order they were listed — the
// bits that adding the vectors they came from one after the other with Add
// gives, without the intermediate vectors. Sums that cancel to zero are
// dropped. The result takes over parts' memory.
//
// Callers list whole vectors one after the other, so parts is a concatenation
// of ascending runs and the ordering is a stable merge of those runs, not a
// comparison sort: O(n log runs), nothing to do for one run. Unsorted input is
// many short runs, so the result is the stable sort's whatever comes in.
func Collect(parts []Entry) Sparse {
	mergeRuns(parts)
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

// mergeSpace is the pooled working memory of mergeRuns: the run boundaries
// and the buffer the passes alternate with.
type mergeSpace struct {
	bounds []int
	buf    []Entry
}

var mergePool = sync.Pool{New: func() any { return new(mergeSpace) }}

// mergeRuns orders parts by term, stably: it finds the maximal non-descending
// runs and merges neighbours pairwise, bottom up, until one is left. On equal
// terms the left run goes first, which keeps listing order.
func mergeRuns(parts []Entry) {
	sp := mergePool.Get().(*mergeSpace)
	defer mergePool.Put(sp)
	bounds := append(sp.bounds[:0], 0)
	for i := 1; i < len(parts); i++ {
		if parts[i].Term < parts[i-1].Term {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(parts))
	sp.bounds = bounds
	if len(bounds) <= 2 {
		return
	}
	if cap(sp.buf) < len(parts) {
		sp.buf = make([]Entry, len(parts))
	}
	src, dst := parts, sp.buf[:len(parts)]
	for len(bounds) > 2 {
		// Run r spans src[bounds[r]:bounds[r+1]]; the merged boundaries
		// overwrite the list from the front, behind the reads.
		merged := bounds[:1]
		for r := 0; r+1 < len(bounds); r += 2 {
			lo, mid, hi := bounds[r], bounds[r+1], bounds[r+1]
			if r+2 < len(bounds) {
				hi = bounds[r+2]
			}
			a, b, k := src[lo:mid], src[mid:hi], lo
			for ; len(a) > 0 && len(b) > 0; k++ {
				if b[0].Term < a[0].Term {
					dst[k], b = b[0], b[1:]
				} else {
					dst[k], a = a[0], a[1:]
				}
			}
			k += copy(dst[k:], a)
			copy(dst[k:], b)
			merged = append(merged, hi)
		}
		bounds, src, dst = merged, dst, src
	}
	if &src[0] != &parts[0] {
		copy(parts, src)
	}
}

// Same reports whether a and b are one vector value: the same component
// array and the same norm. Vectors are immutable, so Same vectors are equal;
// equal vectors built apart are not Same.
func Same(a, b Sparse) bool {
	return len(a.entries) == len(b.entries) && a.norm == b.norm &&
		(len(a.entries) == 0 || &a.entries[0] == &b.entries[0])
}

// Dot returns the inner product of two sparse vectors in O(len(a)+len(b)):
// the products of the shared terms, rounded one by one and added in ascending
// term order. sim.RepIndex accumulates the same products in the same order
// from posting lists and must land on the same bits, so the explicit
// conversion stays: it keeps a compiler from fusing multiply and add.
func Dot(a, b Sparse) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		ta, tb := a.entries[i].Term, b.entries[j].Term
		switch {
		case ta == tb:
			s += float64(a.entries[i].Weight * b.entries[j].Weight)
			i++
			j++
		case ta < tb:
			i++
		default:
			j++
		}
	}
	return s
}

// Cosine returns the cosine similarity of a and b in [0,1] for non-negative
// weights. The cosine of anything with the zero vector is 0.
func Cosine(a, b Sparse) float64 {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	c := Dot(a, b) / (a.norm * b.norm)
	// Clamp rounding noise so downstream threshold comparisons are exact.
	if c > 1 {
		c = 1
	} else if c < 0 {
		c = 0
	}
	return c
}

// Add returns the component-wise sum of a and b.
func Add(a, b Sparse) Sparse {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	out := make([]Entry, 0, len(a.entries)+len(b.entries))
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		ta, tb := a.entries[i].Term, b.entries[j].Term
		switch {
		case ta == tb:
			w := a.entries[i].Weight + b.entries[j].Weight
			if w != 0 {
				out = append(out, Entry{Term: ta, Weight: w})
			}
			i++
			j++
		case ta < tb:
			out = append(out, a.entries[i])
			i++
		default:
			out = append(out, b.entries[j])
			j++
		}
	}
	out = append(out, a.entries[i:]...)
	out = append(out, b.entries[j:]...)
	v := Sparse{entries: out}
	v.norm = v.computeNorm()
	return v
}

// Scale returns v scaled by factor c.
func Scale(v Sparse, c float64) Sparse {
	if c == 0 || v.IsZero() {
		return Sparse{}
	}
	out := make([]Entry, len(v.entries))
	for i, e := range v.entries {
		out[i] = Entry{Term: e.Term, Weight: e.Weight * c}
	}
	sv := Sparse{entries: out}
	sv.norm = math.Abs(c) * v.norm
	return sv
}

// Equal reports exact component-wise equality.
func Equal(a, b Sparse) bool {
	if len(a.entries) != len(b.entries) {
		return false
	}
	for i := range a.entries {
		if a.entries[i] != b.entries[i] {
			return false
		}
	}
	return true
}

// String renders the vector for debugging.
func (v Sparse) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range v.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.3f", e.Term, e.Weight)
	}
	b.WriteByte(']')
	return b.String()
}
