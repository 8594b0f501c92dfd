package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/workload"
)

// waveRun is one replay of the seeded powerlaw stream: the labels and
// forest after every batch, the final Stats, and how many deletion batches
// shipped one or two waves of fragment sketches.
type waveRun struct {
	comps   [][]int
	forests [][]graph.Edge
	stats   mpc.Stats
	waves   [3]int // batches by number of aggregation collectives
}

func replayPowerlawWaves(t *testing.T, w, parallelism int) waveRun {
	t.Helper()
	defer func(old int) { waveOneCopies = old }(waveOneCopies)
	waveOneCopies = w
	const n = 256
	dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 11, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := workload.Get("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.New(n, 12)
	var run waveRun
	for i := 0; i < 60; i++ {
		before := dc.aggregations
		if err := dc.ApplyBatch(gen.Next(dc.MaxBatch())); err != nil {
			t.Fatalf("w=%d batch %d: %v", w, i, err)
		}
		k := dc.aggregations - before
		if k > 2 {
			t.Fatalf("w=%d batch %d: %d fragment-sketch aggregations, want at most 2", w, i, k)
		}
		run.waves[k]++
		run.comps = append(run.comps, dc.SnapshotComponents())
		run.forests = append(run.forests, dc.SnapshotForest())
	}
	run.stats = dc.Cluster().Stats()
	if len(run.stats.Violations) != 0 {
		t.Fatalf("w=%d: violations: %v", w, run.stats.Violations[0])
	}
	return run
}

// TestSketchWavesEquivalence replays one seeded powerlaw stream with the
// fragment sketches shipped in one wave (w = t, every copy up front), with
// a second wave on nearly every search (w = 1), and at the default w. The
// replacement search queries the same copies in the same order either way,
// so labels and forest must be identical after every batch; Stats differ
// between the runs by design but not between parallelism 1 and 8.
func TestSketchWavesEquivalence(t *testing.T) {
	one := replayPowerlawWaves(t, 1<<30, 1)
	if one.waves[2] != 0 || one.waves[1] == 0 {
		t.Fatalf("w = t: batches by aggregations %v, want searches with exactly one", one.waves)
	}
	for _, w := range []int{1 << 30, 1, waveOneCopies} {
		p1, p8 := replayPowerlawWaves(t, w, 1), replayPowerlawWaves(t, w, 8)
		if w == 1 && p1.waves[2] == 0 {
			t.Fatalf("w = 1: no search shipped a second wave (%v)", p1.waves)
		}
		t.Logf("w=%d: batches by aggregations %v", w, p1.waves)
		for _, got := range []waveRun{p1, p8} {
			for i := range one.comps {
				if !reflect.DeepEqual(got.comps[i], one.comps[i]) {
					t.Fatalf("w=%d batch %d: components differ from the one-wave run", w, i)
				}
				if !reflect.DeepEqual(got.forests[i], one.forests[i]) {
					t.Fatalf("w=%d batch %d: forest differs from the one-wave run", w, i)
				}
			}
		}
		if !reflect.DeepEqual(p1.stats, p8.stats) || p1.waves != p8.waves {
			t.Errorf("w=%d: Stats differ between parallelism 1 and 8\np1: %+v\np8: %+v", w, p1.stats, p8.stats)
		}
	}
}

// TestSketchWavesLongPath forces a replacement search whose supernodes can
// only keep merging through edges at their non-root fragments: a spanning
// path is cut everywhere in one batch, and the only replacements are the
// "skip" edges {i, i+2} plus one edge joining the two halves, which form a
// path again. A second wave that did not fold every fragment's copies
// under its supernode would lose those edges and leave the graph split.
func TestSketchWavesLongPath(t *testing.T) {
	for _, w := range []int{1 << 30, 1, 2, waveOneCopies} {
		func() {
			defer func(old int) { waveOneCopies = old }(waveOneCopies)
			waveOneCopies = w
			const n = 256
			dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 5, VerticesPerMachine: 64})
			if err != nil {
				t.Fatal(err)
			}
			k := dc.MaxBatch() // path 0..k, cut in one batch
			var path, skips graph.Batch
			for i := 0; i < k; i++ {
				path = append(path, graph.Ins(i, i+1))
				if i+2 <= k {
					skips = append(skips, graph.Ins(i, i+2))
				}
			}
			skips = append(skips, graph.Ins(0, 1+(k-1)/2*2))
			cuts := make(graph.Batch, len(path))
			for i, up := range path {
				cuts[i] = graph.Del(up.Edge.U, up.Edge.V)
			}
			ups := append(append(path, skips...), cuts...)
			for i := 0; i < len(ups); i += k {
				if err := dc.ApplyBatch(ups[i:min(i+k, len(ups))]); err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
			}
			for v := 1; v <= k; v++ {
				if !dc.Connected(0, v) {
					t.Fatalf("w=%d: vertex %d split from 0 after the path was replaced by its skip edges", w, v)
				}
			}
		}()
	}
}
