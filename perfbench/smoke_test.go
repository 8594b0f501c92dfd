package main

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// toyParams shrinks every workload to a size that runs in about a second.
func toyParams() params {
	return params{
		N:       64,
		Prefill: 5,
		BatchesPerSecond: map[string]float64{
			"powerlaw": 40,
			"churn":    40,
		},
		QueryBatches:   20,
		CheckPairs:     64,
		WriteRate:      40,
		QueryRate:      40,
		Burst:          4,
		SidecarSeconds: 0.25,
		SidecarRate:    40,
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each named metric is printed, finite, and that the run is
// correct — which includes the traced run's checks that the insert/delete
// split sums to the window's counters and that parallelism 1 and 2 give
// identical Stats.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRun(name, 7, 0.5, traced, t.TempDir(), toyParams())
			res, err := execute(r)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit == "" {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", name, traced, m, v, ok)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if traced && res.Metrics["mpc.identical_p1"].Value != 1 {
				t.Errorf("%s: Stats differ between parallelism 1 and 2", name)
			}
		}
	}
}

// TestOracleCheckCatchesWrongAnswer flips one answer and expects the
// oracle check to count a failure.
func TestOracleCheckCatchesWrongAnswer(t *testing.T) {
	p := toyParams()
	r := newRun("churn", 3, 0.5, false, t.TempDir(), p)
	st, err := makeStream("churn", 3, r.libraryShape("churn"))
	if err != nil {
		t.Fatal(err)
	}
	answers := st.mix.OracleAnswers(st.check)
	r.checkAnswers("oracle itself", st.check, answers, st.mix.OracleAnswers(st.check))
	if r.failed != 0 {
		t.Fatalf("oracle answers failed their own check")
	}
	answers[len(answers)/2] = !answers[len(answers)/2]
	r.checkAnswers("one flipped answer", st.check, answers, st.mix.OracleAnswers(st.check))
	if r.failed != 1 {
		t.Fatalf("a wrong answer was not counted as a failure (failed=%d)", r.failed)
	}

	// On the empty graph every vertex is alone; claim 0 and 1 connected.
	labels := make([]int, p.N)
	for v := range labels {
		labels[v] = v
	}
	labels[1] = labels[0]
	mirror := graph.New(p.N)
	r.checkPartition("wrong partition", labels, mirror)
	if r.failed != 2 {
		t.Fatalf("a wrong partition was not counted as a failure (failed=%d)", r.failed)
	}
}

// TestCPUShares parses a canned `pprof -top` listing.
func TestCPUShares(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
      4.5s 45.00% 45.00%      4.6s 46.00%  repro/internal/sketch.(*Sketch).Add
        1s 10.00% 55.00%        1s 10.00%  repro/internal/mpc.(*Cluster).mergeShard
      0.5s  5.00% 60.00%      0.5s  5.00%  net/http.(*conn).serve
      0.1s  1.00% 61.00%        2s 20.00%  runtime.gcBgMarkWorker
      0.2s  2.00% 63.00%      0.2s  2.00%  repro/internal/sketchcodec.Encode
`
	got, err := cpuShares(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu.sketch": 0.45, "cpu.mpc": 0.10, "cpu.net": 0.05, "cpu.gc": 0.20, "cpu.sketchcodec": 0.02, "cpu.core": 0}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

// TestSliceQuantile checks that a slow spell covering one slice does not
// set the reported percentile, that a shift of every slice does, and that
// a sample too short for ten samples above the percentile per slice is
// taken whole.
func TestSliceQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	base := sliceQuantile(xs, 0.9)
	for i := 0; i < 100; i++ {
		xs[i] += 1000 // one slow slice
	}
	if got := sliceQuantile(xs, 0.9); got != base {
		t.Errorf("one slow slice moved the p90 from %v to %v", base, got)
	}
	for i := range xs {
		xs[i] += 1000
	}
	if got := sliceQuantile(xs, 0.9); got < base+1000 {
		t.Errorf("a shift of every slice moved the p90 from %v only to %v", base, got)
	}
	short := []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10}
	if got, want := sliceQuantile(short, 0.5), quantile(short, 0.5); got != want {
		t.Errorf("short sample: %v, want the whole sample's %v", got, want)
	}
}
