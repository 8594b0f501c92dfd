//go:build !race

// The race detector makes sync.Pool drop buffers at random, so allocation
// counts are only meaningful without it.

package sketchcodec_test

import "testing"

// TestAllocsAggregateByLabelRange: shipping a copy range allocates no more
// than shipping whole sketches, at parallelism 1 and 8.
func TestAllocsAggregateByLabelRange(t *testing.T) {
	for _, p := range []int{1, 8} {
		f := newFixture(p)
		r := f.space.Range(0, 8)
		full := testing.AllocsPerRun(20, func() { f.aggregate(f.space) })
		rng := testing.AllocsPerRun(20, func() { f.aggregate(r) })
		if rng > full {
			t.Errorf("p=%d: range aggregation %.1f allocs/op, full %.1f", p, rng, full)
		}
	}
}
