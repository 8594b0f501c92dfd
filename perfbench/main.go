// Command perfbench is the repository's end-to-end benchmark for
// batch-dynamic connectivity. It runs one named workload against the public
// API of the library (powerlaw, churn) or of the HTTP service (serve),
// checks every answer against the sequential oracle, and prints one JSON
// result line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separate traced run. See README.md for the workloads, the
// metrics and the layer → end-to-end map.
//
//	go run . -workload powerlaw -seed 1 -seconds 10 -trace 0
//
// run.sh builds the binary inside the checkout and forwards its arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// The fixed shape of every run.
const (
	// phi is the paper's φ: local memory s = Õ(n^φ), batches of
	// MaxBatch updates.
	phi = 0.6
	// libraryParallelism is the library workloads' Parallelism; the
	// service runs at 1.
	libraryParallelism = 2
	// numSetups is how many times a run sets up anew; setup_s is the
	// median. The library workloads keep all three instances: a query
	// target and two replicas. The service workload keeps the last.
	numSetups = 3
	// queryPairs is the number of pairs in each timed query batch.
	queryPairs = 16
)

// params sizes a run. fullParams is the benchmark; the smoke test uses a
// toy-sized copy.
type params struct {
	N int
	// Prefill is the number of update batches applied before timing starts
	// (part of setup_s).
	Prefill int
	// BatchesPerSecond sizes the library window: it applies
	// round(seconds × rate) batches to each of two replicas, about
	// --seconds of work on the reference host (README.md), so the work and
	// every counter are a function of the seed and --seconds alone.
	BatchesPerSecond map[string]float64
	// QueryBatches is the number of cold ConnectedAll calls timed during
	// the library window.
	QueryBatches int
	// CheckPairs is the size of the ConnectedAll sample checked against the
	// oracle after every window.
	CheckPairs int
	// Serve: the open-loop rates (batches per second), the burst of
	// update batches whose drain is timed after the schedule, and the
	// length and write rate of the service pass a traced library run adds
	// to measure the server layers on its own stream.
	WriteRate      float64
	QueryRate      float64
	Burst          int
	SidecarSeconds float64
	SidecarRate    float64
}

func fullParams() params {
	return params{
		N:       4096,
		Prefill: 100,
		BatchesPerSecond: map[string]float64{
			"powerlaw": 20,
			"churn":    300,
		},
		QueryBatches:   4000,
		CheckPairs:     4096,
		WriteRate:      120,
		QueryRate:      100,
		Burst:          2400,
		SidecarSeconds: 3,
		SidecarRate:    10,
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation: its inputs, the operation
// and failure counts that become failed_frac, and the metrics collected.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	p        params

	attempted int
	failed    int
	metrics   map[string]metric
	// notes are the human-readable lines printed before the result.
	notes []string
}

func newRun(workload string, seed uint64, seconds float64, trace bool, workdir string, p params) *run {
	return &run{workload: workload, seed: seed, seconds: seconds, trace: trace,
		workdir: workdir, p: p, metrics: map[string]metric{}}
}

// put records a metric.
func (r *run) put(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// ops counts n attempted operations.
func (r *run) ops(n int) { r.attempted += n }

// fail counts one failed operation and says why on stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// note adds a human-readable line (sample counts, host facts) to the output.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"powerlaw": runLibrary,
	"churn":    runLibrary,
	"serve":    runServe,
}

// execute runs r's workload and assembles the result. An error means the
// benchmark itself could not run (no result is printed).
func execute(r *run) (result, error) {
	drive, ok := workloads[r.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have powerlaw, churn, serve)", r.workload)
	}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return result{}, err
	}
	r.note("host: nproc=%d GOMAXPROCS=%d Parallelism=%d (library) / 1 (service)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), libraryParallelism)
	if err := drive(r); err != nil {
		return result{}, err
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is not finite (%v)", name, m.Value)
		}
	}
	r.put("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "fraction")
	if r.attempted < 1 {
		r.attempted = 1
		r.fail("no operation attempted")
	}
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			return result{}, fmt.Errorf("workload %s produced no %s", r.workload, name)
		}
		out.Metrics[name] = m
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload: powerlaw, churn or serve")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed window, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/run", "working directory for profiles, spans and checkpoints")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	r := newRun(*workload, *seed, *seconds, *trace == 1, *workdir, fullParams())
	res, err := execute(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range r.notes {
		fmt.Println(line)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
