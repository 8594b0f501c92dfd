package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the id of the span that caused it (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends. It is
// safe for concurrent use (the service load generator records from two
// goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. A nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanPath is where a traced run writes its spans.
func (r *run) spanPath() string {
	return filepath.Join(r.workdir, fmt.Sprintf("spans-%s.jsonl", r.workload))
}

// profile runs fn, under the CPU profiler when the run is traced, and
// returns the profile's path ("" when untraced).
func (r *run) profile(fn func()) (string, error) {
	if !r.trace {
		fn()
		return "", nil
	}
	path := filepath.Join(r.workdir, fmt.Sprintf("cpu-%s.pprof", r.workload))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return "", err
	}
	fn()
	pprof.StopCPUProfile()
	return path, f.Close()
}

// cpuModules maps each cpu.* metric to the packages whose flat CPU time it
// sums. cpu.gc is not a package: it is the cumulative time under the
// runtime's GC entry points (gcRoots).
var cpuModules = map[string][]string{
	"cpu.sketch":      {"repro/internal/sketch"},
	"cpu.sketchcodec": {"repro/internal/sketchcodec"},
	"cpu.eulertour":   {"repro/internal/eulertour"},
	"cpu.core":        {"repro/internal/core"},
	"cpu.mpc":         {"repro/internal/mpc"},
	"cpu.graph":       {"repro/internal/graph"},
	"cpu.server":      {"repro/internal/server"},
	"cpu.net":         {"net", "encoding/json", "internal/poll", "syscall"},
}

// gcRoots are the runtime functions under which all GC work runs:
// background marking, allocation assists and background sweeping.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep"}

// putCPU aggregates a CPU profile per module with `go tool pprof -top`.
func (r *run) putCPU(profile string) error {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := cpuShares(string(out))
	if err != nil {
		return err
	}
	for name, v := range shares {
		r.put(name, v, "fraction")
	}
	return nil
}

// cpuShares parses `pprof -top` output (flat, flat%, sum%, cum, cum%,
// function) into the cpu.* shares of total samples.
func cpuShares(top string) (map[string]float64, error) {
	shares := map[string]float64{}
	for name := range cpuModules {
		shares[name] = 0
	}
	shares["cpu.gc"] = 0
	rows := 0
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		rows++
		fn := strings.Join(f[5:], " ")
		for _, root := range gcRoots {
			if fn == root {
				shares["cpu.gc"] += cum / 100
			}
		}
		pkg := packageOf(fn)
		for name, pkgs := range cpuModules {
			for _, p := range pkgs {
				if pkg == p || strings.HasPrefix(pkg, p+"/") {
					shares[name] += flat / 100
				}
			}
		}
	}
	// A window too short for one sample (the smoke test's) has no rows and
	// all shares 0.
	if rows == 0 && !strings.Contains(top, "Total samples = 0") {
		return nil, fmt.Errorf("pprof -top printed no rows:\n%s", top)
	}
	return shares, nil
}

// packageOf returns the import path of a symbolized function name such as
// "repro/internal/sketch.(*Sketch).Add" or "net/http.(*conn).serve".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
