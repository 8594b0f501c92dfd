package sketchcodec_test

import (
	"slices"
	"testing"

	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/sketch"
	"repro/internal/sketchcodec"
)

const (
	machines   = 6
	perMachine = 8
	labels     = 5
)

// fixture is a cluster whose machines each hold an arena of vertex-like
// sketches, every sketch filed under one of a few labels.
type fixture struct {
	cl     *mpc.Cluster
	space  *sketch.Space
	arenas []*sketch.Arena
}

func newFixture(parallelism int) *fixture {
	space := sketch.NewSpace(1<<12, 10, hash.NewPRG(31))
	f := &fixture{
		cl:    mpc.NewCluster(mpc.Config{Machines: machines, LocalMemory: 1 << 20, Parallelism: parallelism}),
		space: space,
	}
	prg := hash.NewPRG(32)
	for m := 0; m < machines; m++ {
		a := space.NewArena(perMachine)
		for i := 0; i < perMachine; i++ {
			for j := 0; j < 40; j++ {
				delta := 1
				if prg.Next()&1 == 0 {
					delta = -1
				}
				a.At(i).Update(prg.NextN(1<<12), delta)
			}
		}
		f.arenas = append(f.arenas, a)
	}
	return f
}

// aggregate sums every sketch's copies in wave (the space itself or one of
// its ranges) by label at machine 0.
func (f *fixture) aggregate(wave *sketch.Space) map[int]sketch.Sketch {
	return sketchcodec.AggregateByLabel(f.cl, 0, wave,
		func(mm *mpc.Machine, add func(label int, sk sketch.Sketch)) {
			a := f.arenas[mm.ID]
			for i := 0; i < a.Len(); i++ {
				sk := a.At(i)
				if wave != f.space {
					sk = wave.ViewOf(sk)
				}
				add((mm.ID*perMachine+i)%labels, sk)
			}
		})
}

// TestAggregateByLabelRange: aggregating a copy range yields, per label,
// exactly the matching words of the full-space aggregation, at parallelism
// 1 and 8.
func TestAggregateByLabelRange(t *testing.T) {
	var ref map[int][]uint64
	for _, p := range []int{1, 8} {
		f := newFixture(p)
		full := f.aggregate(f.space)
		if len(full) != labels {
			t.Fatalf("p=%d: %d labels aggregated, want %d", p, len(full), labels)
		}
		if ref == nil {
			ref = map[int][]uint64{}
			for l, sk := range full {
				ref[l] = slices.Clone(sk.Cells())
			}
		}
		for _, cut := range [][2]int{{0, 10}, {0, 8}, {8, 10}, {4, 5}} {
			r := f.space.Range(cut[0], cut[1])
			got := f.aggregate(r)
			if len(got) != labels {
				t.Fatalf("p=%d %v: %d labels aggregated, want %d", p, cut, len(got), labels)
			}
			for l, sk := range got {
				if !slices.Equal(sk.Cells(), r.ViewOf(full[l]).Cells()) {
					t.Fatalf("p=%d %v label %d: range aggregation differs from the full one", p, cut, l)
				}
				if !slices.Equal(full[l].Cells(), ref[l]) {
					t.Fatalf("p=%d label %d: full aggregation differs from parallelism 1", p, l)
				}
			}
		}
	}
}

// TestAggregateByLabelEmpty: no contributions give an empty map, not nil.
func TestAggregateByLabelEmpty(t *testing.T) {
	f := newFixture(1)
	got := sketchcodec.AggregateByLabel(f.cl, 0, f.space,
		func(*mpc.Machine, func(int, sketch.Sketch)) {})
	if got == nil || len(got) != 0 {
		t.Fatalf("empty aggregation returned %v", got)
	}
}
