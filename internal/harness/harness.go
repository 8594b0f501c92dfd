// Package harness is the differential-testing engine: it runs any
// registered dynamic algorithm over any registered workload scenario and
// cross-checks every batch against the sequential brute-force oracles.
// Experiments, the CLIs (-scenario), and the test suites all share this
// one checker instead of hand-rolling per-experiment oracle comparisons.
//
// The harness pairs algorithms with scenarios through two compatibility
// axes carried by the registries: insertion-only algorithms (exact MSF,
// greedy matching) accept only insertion-only streams, and the MSF
// algorithms require weighted streams. Everything else runs everywhere.
// Cluster-backed algorithms honour Options.Parallelism, so the same
// differential run exercises both the sequential and the worker-pool
// execution engines.
package harness

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/workload"

	// Register the embedded real-trace scenario (collab32) alongside the
	// synthetic generators, so every harness sweep covers the converter
	// ingestion path too.
	_ "repro/internal/trace"
)

// Options parameterizes one differential run. The zero value is usable:
// every field has a small-instance default.
type Options struct {
	// N is the number of vertices (default 48).
	N int
	// Batches is the number of generator batches to stream (default 10).
	Batches int
	// BatchSize caps the updates requested per batch; 0 uses the
	// algorithm's MaxBatch.
	BatchSize int
	// Seed drives both the algorithm (Seed) and the generator (Seed+1),
	// mirroring the experiments' convention.
	Seed uint64
	// Phi is the local-memory exponent of cluster-backed algorithms
	// (default 0.6).
	Phi float64
	// Parallelism selects the execution engine of cluster-backed
	// algorithms (see mpc.Config.Parallelism).
	Parallelism int
	// Alpha is the matching approximation parameter (default 4).
	Alpha float64
	// Eps is the approximate-MSF parameter (default 0.25).
	Eps float64
	// MaxWeight is the weight cap assumed by the approximate MSF; it must
	// cover the scenario's weight range (default 64, matching the
	// registered weighted scenarios).
	MaxWeight int64
	// CheckEvery runs the differential check after every k-th batch plus
	// once at the end (default 1: every batch). Negative disables all
	// checks — benchmark mode, measuring pure harness overhead.
	CheckEvery int
	// CrashEvery > 0 decorates the run with fault injection: at seeded
	// batch indices (one crash per CrashEvery batches on average, drawn
	// from workload.NewCrashSchedule) the instance is checkpointed, torn
	// down, rebuilt from scratch, and restored — so every scenario doubles
	// as a crash/recovery scenario. Requires the algorithm to implement
	// Checkpointable. Results, oracle checks, and (for deterministic
	// algorithms) Stats are identical to an uninterrupted run.
	//
	// Checkpoints ride an in-memory chain: the first is a full base, later
	// ones are deltas when the algorithm implements snapshot.DeltaState
	// (full otherwise), and the chain compacts back to a full base once it
	// holds MaxDeltaChain deltas. A crash restores from the whole chain.
	CrashEvery int
	// CrashSeed seeds the crash schedule (default Seed+3).
	CrashSeed uint64
	// CheckpointEvery > 0 additionally checkpoints after every k-th batch
	// without restoring — the periodic-durability cadence. It extends the
	// same chain the crash path restores from, so a run with both options
	// exercises multi-delta chain restores.
	CheckpointEvery int
	// MaxDeltaChain bounds the delta chain before compaction (default 8).
	MaxDeltaChain int
	// FaultEvery > 0 decorates the run with machine-loss injection: at
	// seeded batch indices (one fault per FaultEvery batches on average,
	// drawn from workload.NewMachineFaultSchedule) one MPC machine dies
	// while a batch is in flight. The poisoned batch is discarded, the
	// last checkpoint is restored re-sharded onto a fleet one machine
	// smaller (see snapshot.Reshard), and every batch applied since that
	// checkpoint — including the in-flight one — is replayed. Requires the
	// algorithm to implement Elastic. Results and oracle checks are
	// identical to an uninterrupted run at the surviving machine count.
	FaultEvery int
	// FaultSeed seeds the machine-fault schedule (default Seed+5).
	FaultSeed uint64
	// VerticesPerMachine pins the initial cluster shape of cluster-backed
	// algorithms (0 = derived from Phi, or each algorithm's default);
	// machine-fault recovery shrinks it as the fleet loses machines.
	VerticesPerMachine int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 48
	}
	if o.Batches == 0 {
		o.Batches = 10
	}
	if o.Phi == 0 {
		o.Phi = 0.6
	}
	if o.Alpha == 0 {
		o.Alpha = 4
	}
	if o.Eps == 0 {
		o.Eps = 0.25
	}
	if o.MaxWeight == 0 {
		o.MaxWeight = 64
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 1
	}
	if o.CrashSeed == 0 {
		o.CrashSeed = o.Seed + 3
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = o.Seed + 5
	}
	if o.MaxDeltaChain == 0 {
		o.MaxDeltaChain = 8
	}
	return o
}

// Instance is one live algorithm run under the harness.
type Instance interface {
	// MaxBatch returns the largest batch the instance accepts.
	MaxBatch() int
	// Apply feeds one batch.
	Apply(b graph.Batch) error
	// Check cross-checks the maintained solution against the brute-force
	// oracles on the mirror graph.
	Check(mirror *graph.Graph) error
	// Rounds reports the cumulative MPC rounds consumed, or -1 when the
	// algorithm is not cluster-backed.
	Rounds() int
}

// finalChecker is an optional Instance extension for invariants that only
// hold at the end of a stream (e.g. the AKLY approximation ratio, which is
// a with-high-probability bound too noisy to assert after every batch).
type finalChecker interface {
	FinalCheck(mirror *graph.Graph) error
}

// Checkpointable is the optional Instance extension for crash-safe
// checkpoint/restore: Checkpoint serializes the instance's full state into
// a snapshot encoder and Restore loads it into a freshly constructed
// instance of the same options. Every registered algorithm implements it,
// which is what lets Options.CrashEvery turn any scenario into a
// crash/recovery scenario.
type Checkpointable interface {
	snapshot.Checkpointer
	snapshot.Restorer
}

// Elastic is the optional Instance extension for machine-loss recovery
// (Options.FaultEvery): an elastic instance reports its cluster size and
// can load a full checkpoint written at a different machine count,
// redistributing the state onto its own fleet. The cluster-backed
// algorithms with per-vertex sharded state (connectivity, the MSF pair,
// greedy matching) implement it.
type Elastic interface {
	Checkpointable
	snapshot.ReshardRestorer
	// Machines returns the instance's MPC machine count (including the
	// coordinator).
	Machines() int
}

// Algorithm is a registry entry: a named dynamic algorithm plus the
// compatibility metadata pairing it with scenarios.
type Algorithm struct {
	// Name is the registry key (also the -algo CLI value).
	Name string
	// InsertOnly marks algorithms that only consume insertion streams.
	InsertOnly bool
	// NeedsWeights marks algorithms that require weighted streams.
	NeedsWeights bool
	// New builds a fresh instance.
	New func(opt Options) (Instance, error)
}

// algorithms is populated by init in algorithms.go and read-only afterwards.
var algorithms = map[string]Algorithm{}

// registerAlgorithm adds an entry; duplicate names are programming errors.
func registerAlgorithm(a Algorithm) {
	if a.Name == "" || a.New == nil {
		panic("harness: registerAlgorithm with empty name or nil constructor")
	}
	if _, dup := algorithms[a.Name]; dup {
		panic(fmt.Sprintf("harness: duplicate algorithm %q", a.Name))
	}
	algorithms[a.Name] = a
}

// GetAlgorithm returns the named algorithm or an error listing the valid
// names.
func GetAlgorithm(name string) (Algorithm, error) {
	a, ok := algorithms[name]
	if !ok {
		return Algorithm{}, fmt.Errorf("harness: unknown algorithm %q (have %v)", name, AlgorithmNames())
	}
	return a, nil
}

// AlgorithmNames returns the registered algorithm names, sorted.
func AlgorithmNames() []string {
	out := make([]string, 0, len(algorithms))
	for name := range algorithms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Compatible reports whether the algorithm can consume the scenario's
// stream, with a descriptive error when it cannot.
func Compatible(a Algorithm, s workload.Scenario) error {
	if a.InsertOnly && !s.InsertOnly {
		return fmt.Errorf("harness: %s is insertion-only but scenario %s emits deletions", a.Name, s.Name)
	}
	if a.NeedsWeights && !s.Weighted {
		return fmt.Errorf("harness: %s needs weighted updates but scenario %s is unweighted", a.Name, s.Name)
	}
	return nil
}

// Report summarizes one differential run.
type Report struct {
	Algorithm, Scenario string
	// Batches and Updates count what the generator actually emitted
	// (stalled generators may emit fewer than requested).
	Batches, Updates int
	// Checks is the number of differential checks that passed.
	Checks int
	// FinalEdges is the mirror's edge count after the stream.
	FinalEdges int
	// Rounds is the cumulative MPC round count, or -1 if not cluster-backed.
	Rounds int
	// Crashes counts the injected kill/restore cycles (Options.CrashEvery).
	Crashes int
	// FullCheckpoints and DeltaCheckpoints count the checkpoint containers
	// written by kind (crash-instant and CheckpointEvery combined).
	FullCheckpoints, DeltaCheckpoints int
	// Faults counts the injected machine losses (Options.FaultEvery),
	// Reshards the snapshot-driven state migrations that recovered from
	// them, and ReplayedBatches the batches re-applied during recovery
	// (everything since the last checkpoint plus the in-flight batch).
	Faults, Reshards, ReplayedBatches int
}

// String renders the report in one line.
func (r *Report) String() string {
	rounds := "n/a"
	if r.Rounds >= 0 {
		rounds = fmt.Sprintf("%d", r.Rounds)
	}
	crashes := ""
	if r.Crashes > 0 {
		crashes = fmt.Sprintf(", %d crash/restore cycles", r.Crashes)
	}
	if r.Faults > 0 {
		crashes += fmt.Sprintf(", %d machine faults (%d reshards, %d batches replayed)",
			r.Faults, r.Reshards, r.ReplayedBatches)
	}
	return fmt.Sprintf("%s over %s: %d batches, %d updates, %d edges final, %d checks passed, %s rounds%s",
		r.Algorithm, r.Scenario, r.Batches, r.Updates, r.FinalEdges, r.Checks, rounds, crashes)
}

// Run streams the named scenario through the named algorithm, checking the
// maintained solution against the brute-force oracles after every
// Options.CheckEvery batches and at the end. The first divergence aborts
// the run with an error naming the batch.
func Run(algoName, scenarioName string, opt Options) (*Report, error) {
	algo, err := GetAlgorithm(algoName)
	if err != nil {
		return nil, err
	}
	sc, err := workload.Get(scenarioName)
	if err != nil {
		return nil, err
	}
	return RunScenario(algo, sc, opt)
}

// RunScenario is Run for already-resolved registry entries.
func RunScenario(algo Algorithm, sc workload.Scenario, opt Options) (*Report, error) {
	_, _, rep, err := runScenario(algo, sc, opt)
	return rep, err
}

// runScenario is the engine behind RunScenario; it additionally returns
// the final live instance and the final options (whose VerticesPerMachine
// reflects any fault-driven shrinks), which the fault-recovery tests use
// to compare a faulted run against an uninterrupted twin at the surviving
// fleet shape.
func runScenario(algo Algorithm, sc workload.Scenario, opt Options) (Instance, Options, *Report, error) {
	if err := Compatible(algo, sc); err != nil {
		return nil, opt, nil, err
	}
	opt = opt.withDefaults()
	r, err := newRun(algo, opt)
	if err != nil {
		return nil, opt, nil, err
	}
	src := workload.NewGeneratorSource(sc.New(opt.N, opt.Seed+1), opt.Batches, r.size)
	return r.drive(sc.Name, src, opt)
}

// run is one differential run: the algorithm's live instance plus the
// decorations its options ask for.
type run struct {
	algo Algorithm
	inst Instance
	// size caps the updates applied per Apply: the instance's MaxBatch, or
	// Options.BatchSize when smaller.
	size  int
	crash *workload.CrashSchedule
	fault *workload.MachineFaultSchedule
	// chain is the checkpoint chain crash and fault recovery restore from
	// (nil when neither they nor periodic checkpoints are on).
	chain *memChain
}

// newRun builds the instance and its decorations; opt must already carry
// its defaults.
func newRun(algo Algorithm, opt Options) (*run, error) {
	inst, err := algo.New(opt)
	if err != nil {
		return nil, err
	}
	r := &run{algo: algo, inst: inst, size: inst.MaxBatch()}
	if opt.BatchSize > 0 && opt.BatchSize < r.size {
		r.size = opt.BatchSize
	}
	if opt.CrashEvery > 0 || opt.CheckpointEvery > 0 || opt.FaultEvery > 0 {
		if _, ok := inst.(Checkpointable); !ok {
			return nil, fmt.Errorf("harness: %s does not support checkpoint/restore (CrashEvery/CheckpointEvery/FaultEvery)", algo.Name)
		}
		r.chain = &memChain{maxDeltas: opt.MaxDeltaChain}
	}
	if opt.CrashEvery > 0 {
		r.crash = workload.NewCrashSchedule(opt.CrashSeed, opt.CrashEvery)
	}
	if opt.FaultEvery > 0 {
		if _, ok := inst.(Elastic); !ok {
			return nil, fmt.Errorf("harness: %s does not support elastic re-sharding (FaultEvery)", algo.Name)
		}
		r.fault = workload.NewMachineFaultSchedule(opt.FaultSeed, opt.FaultEvery)
	}
	return r, nil
}

// RunSource streams an external batch source (a replayed trace, a converted
// edge list, a recorded stream) through the named algorithm under the same
// differential checking as Run: the source's mirror is the oracle substrate,
// checks run every Options.CheckEvery source batches plus at the end, and
// crash/fault injection applies unchanged. Options.N defaults to the
// source's Shape().N and must cover it; Options.Batches is ignored — the
// source runs to io.EOF. Source batches larger than the algorithm's
// MaxBatch (or Options.BatchSize) are applied in chunks.
func RunSource(algoName, streamName string, src workload.MirrorSource, opt Options) (*Report, error) {
	algo, err := GetAlgorithm(algoName)
	if err != nil {
		return nil, err
	}
	shape := src.Shape()
	if opt.N == 0 {
		opt.N = shape.N
	}
	if shape.N > opt.N {
		return nil, fmt.Errorf("harness: source %s spans %d vertices but Options.N is %d", streamName, shape.N, opt.N)
	}
	if algo.NeedsWeights && !shape.Weighted {
		return nil, fmt.Errorf("harness: %s needs weighted updates but source %s is unweighted", algoName, streamName)
	}
	opt = opt.withDefaults()
	r, err := newRun(algo, opt)
	if err != nil {
		return nil, err
	}
	_, _, rep, err := r.drive(streamName, src, opt)
	return rep, err
}

// drive is the shared engine of RunScenario and RunSource: it pulls
// batches from src until io.EOF, applies each (chunked to size), and runs
// the differential checks and fault decorations at source-batch indices.
// Empty batches advance the index without touching the instance, so a
// stalled generator iteration and a skipped batch stay aligned with the
// seeded crash/fault schedules.
func (r *run) drive(scName string, src workload.MirrorSource, opt Options) (Instance, Options, *Report, error) {
	// cur tracks the live cluster shape: machine-fault recovery shrinks
	// VerticesPerMachine, and every rebuild (crash or fault) must use the
	// current shape, not the original one. pending journals the batches
	// applied since the last checkpoint — the replay set of a fault.
	cur := opt
	var pending []graph.Batch
	var err error
	rep := &Report{Algorithm: r.algo.Name, Scenario: scName, Rounds: -1}
	for i := 0; ; i++ {
		b, serr := src.Next()
		if serr == io.EOF {
			break
		}
		if serr != nil {
			return nil, cur, nil, fmt.Errorf("harness: %s over %s: batch %d: %w", r.algo.Name, scName, i, serr)
		}
		if len(b) == 0 {
			continue // stalled (e.g. saturated insert-only stream)
		}
		if r.fault != nil {
			if _, dead := r.fault.Fault(r.inst.(Elastic).Machines()); dead {
				// The machine died while batch i was in flight: the
				// poisoned batch never lands on the old fleet. Recovery
				// re-shards the last checkpoint onto the survivors and
				// replays pending; batch i itself is replayed by the
				// Apply below, on the recovered instance.
				r.inst, cur, err = faultReshard(r.algo, cur, r.chain, pending, r.size, rep)
				if err != nil {
					return nil, cur, nil, fmt.Errorf("harness: %s over %s: machine fault at batch %d: %w", r.algo.Name, scName, i, err)
				}
				pending = pending[:0]
				rep.ReplayedBatches++ // the in-flight batch
			}
		}
		if err := applyChunked(r.inst, b, r.size); err != nil {
			return nil, cur, nil, fmt.Errorf("harness: %s over %s: batch %d: %w", r.algo.Name, scName, i, err)
		}
		if r.fault != nil {
			pending = append(pending, append(graph.Batch(nil), b...))
		}
		rep.Batches++
		rep.Updates += len(b)
		if opt.CheckEvery > 0 && (i+1)%opt.CheckEvery == 0 {
			if err := r.inst.Check(src.Mirror()); err != nil {
				return nil, cur, nil, fmt.Errorf("harness: %s over %s diverged at batch %d: %w", r.algo.Name, scName, i, err)
			}
			rep.Checks++
		}
		if opt.CheckpointEvery > 0 && (i+1)%opt.CheckpointEvery == 0 {
			if err := r.chain.checkpoint(r.inst, rep); err != nil {
				return nil, cur, nil, fmt.Errorf("harness: %s over %s: checkpoint at batch %d: %w", r.algo.Name, scName, i, err)
			}
			pending = pending[:0]
		}
		if r.crash != nil && r.crash.Crash() {
			r.inst, err = killRestore(r.algo, cur, r.inst, r.chain, rep)
			if err != nil {
				return nil, cur, nil, fmt.Errorf("harness: %s over %s: crash at batch %d: %w", r.algo.Name, scName, i, err)
			}
			rep.Crashes++
			pending = pending[:0]
		}
	}
	if opt.CheckEvery >= 0 {
		if err := r.inst.Check(src.Mirror()); err != nil {
			return nil, cur, nil, fmt.Errorf("harness: %s over %s diverged at end of stream: %w", r.algo.Name, scName, err)
		}
		rep.Checks++
		if fc, ok := r.inst.(finalChecker); ok {
			if err := fc.FinalCheck(src.Mirror()); err != nil {
				return nil, cur, nil, fmt.Errorf("harness: %s over %s failed the final check: %w", r.algo.Name, scName, err)
			}
			rep.Checks++
		}
	}
	rep.FinalEdges = src.Mirror().M()
	rep.Rounds = r.inst.Rounds()
	return r.inst, cur, rep, nil
}

// applyChunked feeds one source batch to the instance in pieces of at most
// size updates: external sources (traces) batch by their own cadence, which
// need not fit the algorithm's MaxBatch.
func applyChunked(inst Instance, b graph.Batch, size int) error {
	for len(b) > size {
		if err := inst.Apply(b[:size]); err != nil {
			return err
		}
		b = b[size:]
	}
	return inst.Apply(b)
}

// memChain is the harness's in-memory checkpoint chain: a full base
// container plus delta containers, the exact composition snapshot.Chain
// keeps on disk. Restores replay base + every delta, so crash recovery
// exercises multi-link chain restores, not just the latest snapshot.
type memChain struct {
	maxDeltas int
	base      bytes.Buffer
	baseID    uint64
	tipID     uint64
	deltas    []*bytes.Buffer
}

// checkpoint appends the next link: a delta when the instance supports it,
// a base exists, and the chain is under maxDeltas; a fresh full base
// otherwise (compaction folds the chain). Acknowledges on success so the
// next delta covers only subsequent changes.
func (c *memChain) checkpoint(inst Instance, rep *Report) error {
	ds, deltaCapable := inst.(snapshot.DeltaState)
	if !deltaCapable || c.base.Len() == 0 || len(c.deltas) >= c.maxDeltas {
		c.base.Reset()
		c.deltas = nil
		id, err := snapshot.SaveBase(&c.base, inst.(Checkpointable))
		if err != nil {
			return fmt.Errorf("checkpoint (full): %w", err)
		}
		c.baseID, c.tipID = id, id
		if deltaCapable {
			ds.AckCheckpoint()
		}
		rep.FullCheckpoints++
		return nil
	}
	var buf bytes.Buffer
	link := snapshot.ChainLink{Base: c.baseID, Prev: c.tipID, Seq: uint64(len(c.deltas) + 1)}
	id, err := snapshot.SaveDelta(&buf, link, ds)
	if err != nil {
		return fmt.Errorf("checkpoint (delta): %w", err)
	}
	c.deltas = append(c.deltas, &buf)
	c.tipID = id
	ds.AckCheckpoint()
	rep.DeltaCheckpoints++
	return nil
}

// reset drops the chain; the next checkpoint writes a fresh full base.
// Fault recovery uses it because the old links describe a cluster shape
// that no longer exists.
func (c *memChain) reset() {
	c.base.Reset()
	c.deltas = nil
	c.baseID, c.tipID = 0, 0
}

// restore loads base + chain into inst.
func (c *memChain) restore(inst Instance) error {
	if _, err := snapshot.LoadBase(bytes.NewReader(c.base.Bytes()), inst.(Checkpointable)); err != nil {
		return fmt.Errorf("restore (base): %w", err)
	}
	prev := c.baseID
	for i, d := range c.deltas {
		want := snapshot.ChainLink{Base: c.baseID, Prev: prev, Seq: uint64(i + 1)}
		id, err := snapshot.LoadDelta(bytes.NewReader(d.Bytes()), want, inst.(snapshot.DeltaRestorer))
		if err != nil {
			return fmt.Errorf("restore (delta %d): %w", i+1, err)
		}
		prev = id
	}
	return nil
}

// killRestore simulates a process crash: the live instance is checkpointed
// (extending the chain, so the crash-instant state is the tip), dropped,
// and a fresh instance built from the same options is restored from the
// whole chain. The generator (the outside world) survives; only the
// cluster state dies.
func killRestore(algo Algorithm, opt Options, inst Instance, chain *memChain, rep *Report) (Instance, error) {
	if err := chain.checkpoint(inst, rep); err != nil {
		return nil, err
	}
	fresh, err := algo.New(opt)
	if err != nil {
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	if err := chain.restore(fresh); err != nil {
		return nil, err
	}
	return fresh, nil
}

// faultReshard recovers from the loss of one machine, the supervised path
// described in Options.FaultEvery. Unlike a crash, the dying fleet cannot
// be checkpointed — its last round is poisoned — so recovery starts from
// the last durable checkpoint: restore the whole chain into a staging
// instance at the failed fleet's shape, re-encode it as one full snapshot,
// reshard that onto a fleet one machine smaller, replay the journaled
// batches, and re-base the checkpoint chain at the new shape. Returns the
// recovered instance and the shrunken options.
func faultReshard(algo Algorithm, cur Options, chain *memChain, pending []graph.Batch, size int, rep *Report) (Instance, Options, error) {
	staging, err := algo.New(cur)
	if err != nil {
		return nil, cur, fmt.Errorf("staging rebuild: %w", err)
	}
	if chain.base.Len() > 0 {
		if err := chain.restore(staging); err != nil {
			return nil, cur, err
		}
	}
	var full bytes.Buffer
	if err := snapshot.Save(&full, staging.(Checkpointable)); err != nil {
		return nil, cur, fmt.Errorf("re-encode: %w", err)
	}
	machines := staging.(Elastic).Machines()
	if machines < 3 {
		return nil, cur, fmt.Errorf("fleet of %d machines cannot lose one and keep a coordinator", machines)
	}
	next := cur
	// ceil(N/(M-2)) vertices per machine packs the N vertices onto the
	// surviving M-1 machines (one of which stays a pure coordinator).
	next.VerticesPerMachine = (cur.N + machines - 3) / (machines - 2)
	fresh, err := algo.New(next)
	if err != nil {
		return nil, cur, fmt.Errorf("rebuild on %d machines: %w", machines-1, err)
	}
	if err := snapshot.Reshard(bytes.NewReader(full.Bytes()), fresh.(Elastic)); err != nil {
		return nil, cur, fmt.Errorf("reshard onto %d machines: %w", machines-1, err)
	}
	for j, b := range pending {
		if err := applyChunked(fresh, b, size); err != nil {
			return nil, cur, fmt.Errorf("replay batch %d of %d: %w", j+1, len(pending), err)
		}
	}
	rep.Faults++
	rep.Reshards++
	rep.ReplayedBatches += len(pending)
	chain.reset()
	if err := chain.checkpoint(fresh, rep); err != nil {
		return nil, cur, fmt.Errorf("re-base checkpoint: %w", err)
	}
	return fresh, next, nil
}
