package main

import "time"

// The box this benchmark runs on changes speed by a quarter from one minute
// to the next (a neighbour on the host; see README, "Steadiness"): the same
// binary on the same seed read job_s 0.375 and 0.470 ten minutes apart, and
// the set-up, which is plain computation, moved by the same factor. Medians
// over a run's iterations cannot remove a shift that lasts the whole run.
// So every iteration first times a fixed reference computation, and the
// times it reports are scaled by how much slower or faster than the
// reference the machine was just then. On a steady machine the factor is
// constant; it never depends on the program under test.

// referenceCalibration is what the reference computation takes on the box
// the bounds were measured on (median of 150 readings), so that there the
// scaled times are the wall times, give or take the machine's mood.
const referenceCalibration = 47 * time.Millisecond

// calibration is the reference computation: a walk of dependent loads over
// one random cycle through a 16 MB table, so that, like the jobs, it is
// bound by memory latency rather than arithmetic.
type calibration struct {
	next []uint32
	sink uint32
}

func newCalibration() *calibration {
	const n = 1 << 22
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle: the permutation is a single cycle of length n.
	x := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &calibration{next: next}
}

// scale runs the reference computation and returns the factor that turns a
// wall time measured now into a time on the reference machine.
func (c *calibration) scale() float64 {
	t0 := time.Now()
	p := c.sink
	for i := 0; i < 300_000; i++ {
		p = c.next[p]
	}
	c.sink = p
	return referenceCalibration.Seconds() / time.Since(t0).Seconds()
}
