// Command mpcstream runs one algorithm over a generated update stream on
// the MPC simulator and reports solution and resource statistics.
//
// Usage:
//
//	mpcstream -algo connectivity -n 256 -phi 0.6 -batches 20
//	mpcstream -algo msf -n 128 -maxweight 64
//	mpcstream -algo bipartite -n 128
//	mpcstream -algo matching -n 128 -alpha 4
//	mpcstream -algo connectivity -stream trace.txt
//	mpcstream -algo connectivity -n 4096 -parallelism 8
//	mpcstream -algo connectivity -n 1024 -queries 512
//	mpcstream -algo nowickionak -scenario bursty -n 256
//
// Algorithms: connectivity, msf (exact, insertion-only), approxmsf,
// bipartite, matching (insertion-only greedy), dynmatching (AKLY),
// nowickionak (with -scenario). With -stream, updates are replayed from a
// file in the streamio text format instead of being generated; with
// -trace, from a segmented binary trace (internal/trace format), streamed
// one segment at a time so a trace far larger than memory replays in
// O(segment). -stream, -trace, and -scenario are mutually exclusive. With
// -scenario, the named workload-registry stream is run through the
// differential harness: every batch is cross-checked against the
// brute-force oracle and the run fails loudly on divergence. -parallelism
// selects the simulator's execution engine (worker-pool rounds); results
// and reported statistics are identical at every setting. -queries turns
// the connectivity run into a read/write mix: after every update batch the
// given number of connectivity queries is answered through one batched
// ConnectedAll collective, oracle-verified, and reported as rounds/query.
//
// Ingestion (see internal/trace): -convert in.edges converts a SNAP-style
// text edge list ("u v", "u v t", or "u v w t" lines, timestamps
// non-decreasing) into the output(s) named by -trace (binary) and/or
// -stream (text), streaming both ends; -window W expires each edge W time
// units after insertion, emitting deletions. Self-loops and duplicate live
// edges are dropped and counted. The replay paths then consume either
// format interchangeably:
//
//	mpcstream -convert collab.edges -window 40 -trace collab.trace
//	mpcstream -algo connectivity -trace collab.trace
//	mpcstream -algo connectivity -trace collab.trace -trace-batches 50 -checkpoint c.snap
//	mpcstream -algo connectivity -trace collab.trace -resume c.snap
//
// A -trace replay records how many trace batches it applied in every
// checkpoint, so -resume seeks straight to the next segment boundary via
// the trace's footer index instead of re-reading the prefix; -trace-batches
// caps the replay to make such mid-trace checkpoints. -resume with -stream
// keeps its historical meaning: the text file holds further updates, all
// of which are replayed on top of the snapshot.
//
// Checkpoint & recovery (see internal/session and internal/snapshot): the
// connectivity runs of the generated, -stream and -trace modes step every
// batch through one session.Session, the durable unit mpcserve also
// checkpoints, so a batch is validated against the mirror graph first (a
// batch touching an edge twice is refused). -checkpoint writes a
// crash-safe snapshot of the final session (engine plus mirror graph) so a
// later invocation can continue the run without replaying it;
// -resume restores such a snapshot before replaying a -stream trace of
// further updates, oracle-verified against the restored mirror. Checkpoints
// form a chain: when -resume and -checkpoint name the same path, the new
// checkpoint is an incremental delta carrying only the replayed updates and
// the state they dirtied, compacted into a fresh full base every
// -max-delta-chain deltas; stale temp files from an interrupted checkpoint
// are swept before loading. With -scenario, -crash-every k injects a seeded
// kill/restore cycle roughly every k batches into the differential harness
// run — every scenario doubles as a crash/recovery scenario, and the oracle
// checks must still pass after every restore — and -delta-every k cuts a
// chain checkpoint every k batches, so each restore replays a full base
// plus a multi-delta chain.
//
// Elasticity (see internal/snapshot doc): -resume-machines M re-shards the
// restored state onto a fleet of exactly M machines before replaying — the
// deterministic vertex→machine map makes the migration a pure state
// redistribution, rejected with a diagnostic when the shrunken per-machine
// memory budget cannot hold it. With -scenario, -fault-every k kills a
// seeded machine roughly every k batches; each loss is recovered by
// re-sharding the last checkpoint onto the surviving fleet and replaying
// the in-flight batches, with the oracle still checking every batch.
//
//	mpcstream -algo connectivity -n 256 -batches 50 -checkpoint state.snap
//	mpcstream -algo connectivity -resume state.snap -stream more.txt
//	mpcstream -algo connectivity -resume state.snap -stream more.txt -checkpoint state.snap
//	mpcstream -algo connectivity -resume state.snap -resume-machines 9 -stream more.txt
//	mpcstream -algo connectivity -scenario powerlaw -batches 200 -crash-every 50 -delta-every 10
//	mpcstream -algo connectivity -scenario powerlaw -batches 200 -fault-every 60
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run (see
// README.md "Profiling").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/matching"
	"repro/internal/mpc"
	"repro/internal/msf"
	"repro/internal/oracle"
	"repro/internal/profiling"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/streamio"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	algo := flag.String("algo", "connectivity", "algorithm to run")
	n := flag.Int("n", 256, "number of vertices")
	phi := flag.Float64("phi", 0.6, "local-memory exponent")
	batches := flag.Int("batches", 20, "number of update batches")
	seed := flag.Uint64("seed", 1, "workload and algorithm seed")
	alpha := flag.Float64("alpha", 4, "matching approximation parameter")
	eps := flag.Float64("eps", 0.25, "MSF approximation parameter")
	maxWeight := flag.Int64("maxweight", 64, "maximum edge weight")
	insertBias := flag.Float64("insertbias", 0.6, "probability of keeping an existing edge")
	streamFile := flag.String("stream", "", "replay updates from a streamio-format text file (with -convert: the text output path)")
	traceFile := flag.String("trace", "", "replay updates from a binary trace file (internal/trace format; with -convert: the binary output path)")
	convertFile := flag.String("convert", "", "convert this SNAP-style edge-list file into the -trace and/or -stream output(s) instead of running an algorithm")
	window := flag.Int64("window", 0, "with -convert: expire each edge this many time units after insertion, emitting deletions (0 = keep edges forever)")
	traceBatches := flag.Int("trace-batches", 0, "with -trace replay: apply at most this many trace batches (0 = all); combine with -checkpoint and a later -resume to continue mid-trace")
	queries := flag.Int("queries", 0,
		"read/write mix: issue this many batched connectivity queries after every update batch (-algo connectivity; answers are oracle-verified)")
	scenario := flag.String("scenario", "",
		fmt.Sprintf("run a registered workload scenario under the differential harness (have %v)", workload.Names()))
	parallelism := flag.Int("parallelism", runtime.NumCPU(),
		"execution-engine workers per cluster (0 or 1 = sequential, <0 = NumCPU); results are identical at every setting")
	checkpointFile := flag.String("checkpoint", "",
		"write a crash-safe snapshot of the final state to this file (-algo connectivity, generated or -stream mode)")
	resumeFile := flag.String("resume", "",
		"restore state from a -checkpoint snapshot before replaying further updates (requires -stream)")
	resumeMachines := flag.Int("resume-machines", 0,
		"with -resume: re-shard the restored state onto a fleet of exactly this many machines before replaying (0 = keep the snapshot's shape)")
	crashEvery := flag.Int("crash-every", 0,
		"with -scenario: inject a seeded kill+checkpoint+restore cycle roughly every k batches (0 disables)")
	faultEvery := flag.Int("fault-every", 0,
		"with -scenario: kill a seeded machine roughly every k batches; each loss recovers by re-sharding the last checkpoint onto the survivors and replaying the journal (0 disables)")
	deltaEvery := flag.Int("delta-every", 0,
		"with -scenario: checkpoint every k batches into an in-memory chain (full base, then deltas), so crash restores replay base+chain (0 disables)")
	maxDeltaChain := flag.Int("max-delta-chain", 8,
		"delta checkpoints allowed per full base before compaction (0 = full checkpoints only)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Validate flags before constructing generators or clusters, so a bad
	// combination is a usage error on stderr, not a raw panic from deep
	// inside a constructor (e.g. workload.NewQueryMix on n < 2).
	if err := validateFlags(flagSet{
		n: *n, batches: *batches, queries: *queries, crashEvery: *crashEvery,
		faultEvery: *faultEvery, resumeMachines: *resumeMachines, deltaEvery: *deltaEvery,
		maxDeltaChain: *maxDeltaChain, traceBatches: *traceBatches, maxWeight: *maxWeight,
		window: *window, insertBias: *insertBias, algo: *algo, streamFile: *streamFile,
		traceFile: *traceFile, convertFile: *convertFile, scenario: *scenario,
		checkpointFile: *checkpointFile, resumeFile: *resumeFile,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "mpcstream:", err)
		os.Exit(2)
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcstream:", err)
		os.Exit(2)
	}
	switch {
	case *convertFile != "":
		err = runConvert(*convertFile, *traceFile, *streamFile, *window)
	case *traceFile != "":
		err = runTrace(*algo, *traceFile, *phi, *seed, *parallelism, *maxDeltaChain, *resumeMachines, *traceBatches, *resumeFile, *checkpointFile)
	case *streamFile != "":
		err = runStream(*algo, *streamFile, *phi, *seed, *parallelism, *maxDeltaChain, *resumeMachines, *resumeFile, *checkpointFile)
	case *scenario != "":
		err = runScenario(*algo, *scenario, harness.Options{
			N: *n, Batches: *batches, Seed: *seed, Phi: *phi, Parallelism: *parallelism,
			Alpha: *alpha, Eps: *eps, MaxWeight: *maxWeight, CrashEvery: *crashEvery,
			FaultEvery:      *faultEvery,
			CheckpointEvery: *deltaEvery, MaxDeltaChain: *maxDeltaChain,
		})
	default:
		err = run(*algo, *n, *phi, *batches, *seed, *alpha, *eps, *maxWeight, *insertBias, *parallelism, *queries, *maxDeltaChain, *checkpointFile)
	}
	// Profiles are written even for a failed run — a hang or slow failure
	// is exactly when a profile is wanted.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "mpcstream:", perr)
		if err == nil {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcstream:", err)
		os.Exit(1)
	}
}

// flagSet carries every parsed flag validateFlags cross-checks; a struct
// rather than a positional list, so adding a flag cannot silently swap two
// ints at a call site.
type flagSet struct {
	n, batches, queries, crashEvery, faultEvery int
	resumeMachines, deltaEvery, maxDeltaChain   int
	traceBatches                                int
	maxWeight, window                           int64
	insertBias                                  float64
	algo, streamFile, traceFile, convertFile    string
	scenario, checkpointFile, resumeFile        string
}

// validateFlags rejects invalid or incoherent flag combinations up front.
func validateFlags(f flagSet) error {
	if f.n < 2 {
		return fmt.Errorf("-n must be at least 2 (got %d)", f.n)
	}
	// The generator config check covers -maxweight and -insertbias: a bad
	// value is a usage error here, not a panic inside workload.NewChurn.
	if err := (workload.Config{N: f.n, MaxWeight: f.maxWeight, InsertBias: f.insertBias}).Validate(); err != nil {
		return err
	}
	if f.batches < 0 {
		return fmt.Errorf("-batches must be non-negative (got %d)", f.batches)
	}
	if f.queries < 0 {
		return fmt.Errorf("-queries must be non-negative (got %d)", f.queries)
	}
	if f.crashEvery < 0 {
		return fmt.Errorf("-crash-every must be non-negative (got %d)", f.crashEvery)
	}
	if f.window < 0 {
		return fmt.Errorf("-window must be non-negative (got %d)", f.window)
	}
	if f.traceBatches < 0 {
		return fmt.Errorf("-trace-batches must be non-negative (got %d)", f.traceBatches)
	}
	if f.convertFile != "" {
		// Conversion mode: -trace/-stream name the outputs.
		if f.traceFile == "" && f.streamFile == "" {
			return fmt.Errorf("-convert needs at least one output: -trace (binary) and/or -stream (text)")
		}
		if f.scenario != "" || f.resumeFile != "" || f.checkpointFile != "" || f.queries > 0 ||
			f.crashEvery > 0 || f.faultEvery > 0 || f.deltaEvery > 0 || f.traceBatches > 0 {
			return fmt.Errorf("-convert only combines with -trace/-stream outputs and -window")
		}
		return nil
	}
	if f.window > 0 {
		return fmt.Errorf("-window only applies to -convert")
	}
	// Replay/run modes: the three stream selectors are mutually exclusive.
	set := 0
	for _, s := range []string{f.streamFile, f.traceFile, f.scenario} {
		if s != "" {
			set++
		}
	}
	if set > 1 {
		return fmt.Errorf("-stream, -trace, and -scenario are mutually exclusive (pick one input)")
	}
	if f.traceBatches > 0 && f.traceFile == "" {
		return fmt.Errorf("-trace-batches requires -trace")
	}
	if f.queries > 0 && set > 0 {
		// Fail loudly rather than silently running a write-only stream: the
		// read/write mix is only wired into the generated-stream mode.
		return fmt.Errorf("-queries is only supported in the generated-stream mode (not with -stream, -trace, or -scenario)")
	}
	if f.queries > 0 && f.algo != "connectivity" {
		return fmt.Errorf("-queries requires -algo connectivity, got %q", f.algo)
	}
	if f.crashEvery > 0 && f.scenario == "" {
		return fmt.Errorf("-crash-every requires -scenario")
	}
	if f.faultEvery < 0 {
		return fmt.Errorf("-fault-every must be non-negative (got %d)", f.faultEvery)
	}
	if f.faultEvery > 0 && f.scenario == "" {
		return fmt.Errorf("-fault-every requires -scenario")
	}
	if f.resumeMachines < 0 {
		return fmt.Errorf("-resume-machines must be non-negative (got %d)", f.resumeMachines)
	}
	if f.resumeMachines > 0 && f.resumeFile == "" {
		return fmt.Errorf("-resume-machines requires -resume")
	}
	if f.deltaEvery < 0 {
		return fmt.Errorf("-delta-every must be non-negative (got %d)", f.deltaEvery)
	}
	if f.maxDeltaChain < 0 {
		return fmt.Errorf("-max-delta-chain must be non-negative (got %d)", f.maxDeltaChain)
	}
	if f.deltaEvery > 0 && f.scenario == "" {
		return fmt.Errorf("-delta-every requires -scenario")
	}
	if f.resumeFile != "" && f.streamFile == "" && f.traceFile == "" {
		return fmt.Errorf("-resume requires -stream or -trace: a generated workload cannot continue a restored graph " +
			"(its generator state is not part of the snapshot)")
	}
	if f.checkpointFile != "" && (f.scenario != "" || f.algo != "connectivity") {
		return fmt.Errorf("-checkpoint is supported for -algo connectivity in the generated, -stream, and -trace modes")
	}
	return nil
}

// runScenario streams a registered scenario through the named algorithm
// under the differential harness, oracle-checking every batch.
func runScenario(algo, scenario string, opt harness.Options) error {
	rep, err := harness.Run(algo, scenario, opt)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

func run(algo string, n int, phi float64, batches int, seed uint64, alpha, eps float64, maxWeight int64, insertBias float64, parallelism, queries, maxDeltaChain int, checkpointFile string) error {
	cfg := core.Config{N: n, Phi: phi, Seed: seed, Parallelism: parallelism}
	gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 1, MaxWeight: maxWeight, InsertBias: insertBias})
	switch algo {
	case "connectivity":
		sess, err := session.New(cfg)
		if err != nil {
			return err
		}
		dc := sess.DC()
		mix := workload.NewQueryMix(gen, n, seed+2)
		queryRounds, answered, connected := 0, 0, 0
		for i := 0; i < batches; i++ {
			if err := step(sess, mix.Next(dc.MaxBatch())); err != nil {
				return err
			}
			if queries == 0 {
				continue
			}
			raw := mix.NextQueries(queries)
			pairs := make([]core.Pair, len(raw))
			for j, q := range raw {
				pairs[j] = core.Pair{U: q[0], V: q[1]}
			}
			before := dc.Cluster().Stats().Rounds
			ans := dc.ConnectedAll(pairs)
			queryRounds += dc.Cluster().Stats().Rounds - before
			want := mix.OracleAnswers(raw)
			for j := range ans {
				if ans[j] != want[j] {
					return fmt.Errorf("batch %d: query %v answered %v, oracle %v", i, raw[j], ans[j], want[j])
				}
				if ans[j] {
					connected++
				}
			}
			answered += len(ans)
		}
		fmt.Printf("components: %d (oracle %d)\n", dc.NumComponents(), oracle.NumComponents(gen.Mirror()))
		fmt.Printf("forest edges: %d\n", len(dc.SnapshotForest()))
		if answered > 0 {
			fmt.Printf("queries: %d batched, %d connected, %d query rounds (%.4f rounds/query, oracle-verified)\n",
				answered, connected, queryRounds, float64(queryRounds)/float64(answered))
		}
		report(dc.Cluster().Stats(), batches)
		if checkpointFile != "" {
			// A fresh chain is never linked to on-disk state, so this writes a
			// full base (and sweeps any stale deltas left at that path).
			if err := writeCheckpoint(snapshot.OpenChain(checkpointFile, maxDeltaChain), sess); err != nil {
				return err
			}
		}
	case "msf":
		m, err := msf.NewExactMSF(cfg)
		if err != nil {
			return err
		}
		for i := 0; i < batches; i++ {
			b := gen.NextInsertOnly(m.Forest().Config().MaxBatch())
			var edges []graph.WeightedEdge
			for _, u := range b {
				edges = append(edges, graph.WeightedEdge{Edge: u.Edge, Weight: u.Weight})
			}
			if err := m.InsertBatch(edges); err != nil {
				return err
			}
		}
		_, want := oracle.MSF(gen.Mirror())
		fmt.Printf("msf weight: %d (kruskal %d, exchange waves %d)\n", m.Weight(), want, m.SwapWaves())
		report(m.Forest().Cluster().Stats(), batches)
	case "approxmsf":
		a, err := msf.NewApproxMSF(cfg, eps, maxWeight)
		if err != nil {
			return err
		}
		for i := 0; i < batches; i++ {
			if err := a.ApplyBatch(gen.Next(a.MaxBatch())); err != nil {
				return err
			}
		}
		_, want := oracle.MSF(gen.Mirror())
		fmt.Printf("approx msf weight: %d (kruskal %d, levels %d, eps %.2f)\n", a.Weight(), want, a.Levels(), eps)
	case "bipartite":
		bt, err := bipartite.New(cfg)
		if err != nil {
			return err
		}
		bgen := workload.NewBipartiteish(n, seed+1, batches/2)
		for i := 0; i < batches; i++ {
			if err := bt.ApplyBatch(bgen.Next(bt.MaxBatch())); err != nil {
				return err
			}
			fmt.Printf("step %2d: bipartite=%v (oracle %v)\n", i, bt.IsBipartite(), oracle.IsBipartite(bgen.Mirror()))
		}
		report(bt.Graph().Cluster().Stats(), batches)
	case "matching":
		gm, err := matching.NewGreedyInsertOnly(n, alpha, 0)
		if err != nil {
			return err
		}
		for i := 0; i < batches; i++ {
			b := gen.NextInsertOnly(n / 8)
			var edges []graph.Edge
			for _, u := range b {
				edges = append(edges, u.Edge)
			}
			if err := gm.InsertBatch(edges); err != nil {
				return err
			}
		}
		fmt.Printf("matching size: %d (cap %d, max matching %d)\n",
			gm.Size(), gm.Cap(), oracle.MaxMatchingSize(gen.Mirror()))
		report(gm.Cluster().Stats(), batches)
	case "dynmatching":
		d, err := matching.NewAKLYDynamic(n, alpha, seed)
		if err != nil {
			return err
		}
		for i := 0; i < batches; i++ {
			if err := d.ApplyBatch(gen.Next(n / 8)); err != nil {
				return err
			}
		}
		fmt.Printf("matching size: %d (max matching %d, instances %d, sampler words %d)\n",
			d.Size(), oracle.MaxMatchingSize(gen.Mirror()), d.Instances(), d.SparsifierWords())
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	return nil
}

// step admits one batch into the session — the same at-most-once-per-edge
// validation the service applies — and applies it.
func step(sess *session.Session, b graph.Batch) error {
	if err := sess.Admit(b); err != nil {
		return fmt.Errorf("batch %d: %w", sess.Applied(), err)
	}
	return sess.Apply(b)
}

// writeCheckpoint saves the next checkpoint of the chain atomically (temp
// file, fsync, rename) — a delta when the chain was resumed from disk and
// has room, a full base otherwise — so an interrupted write never clobbers
// a previous good checkpoint with a truncated one.
func writeCheckpoint(chain *snapshot.Chain, sess *session.Session) error {
	kind, bytes, err := chain.Checkpoint(sess)
	if err != nil {
		return err
	}
	fmt.Printf("%s checkpoint written to %s (%d bytes, chain length %d)\n", kind, chain.Path(), bytes, chain.Len())
	return nil
}

// openSession resumes the session checkpointed at resumeFile (re-sharding it
// onto resumeMachines machines and re-basing its chain when asked) or
// starts a fresh one over n vertices. It is the shared front half of
// runStream and runTrace.
func openSession(n int, phi float64, seed uint64, parallelism, maxDeltaChain, resumeMachines int, resumeFile string) (*session.Session, *snapshot.Chain, error) {
	if resumeFile == "" {
		if n < 2 {
			return nil, nil, fmt.Errorf("stream references fewer than 2 vertices")
		}
		sess, err := session.New(core.Config{N: n, Phi: phi, Seed: seed, Parallelism: parallelism})
		return sess, nil, err
	}
	sess, chain, err := session.Resume(resumeFile, maxDeltaChain, parallelism)
	if err == nil && sess == nil {
		err = fmt.Errorf("no snapshot at %s", resumeFile)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("resume %s: %w", resumeFile, err)
	}
	fmt.Printf("resumed %d vertices, %d edges from %s (chain length %d)\n", sess.Config().N, sess.Mirror().M(), resumeFile, chain.Len())
	if resumeMachines > 0 {
		was := sess.DC().Config().MachineCount()
		if err := sess.Resize(resumeMachines); err != nil {
			return nil, nil, fmt.Errorf("re-shard onto %d machines: %w", resumeMachines, err)
		}
		// The restored chain describes the old shape: re-base it so a
		// -checkpoint onto the same path writes a fresh full base rather
		// than a delta extending old-shape containers.
		chain.Rebase()
		fmt.Printf("re-sharded %d -> %d machines (VerticesPerMachine=%d)\n", was, resumeMachines, sess.Config().VerticesPerMachine)
	}
	return sess, chain, nil
}

// replay pulls batches from next and steps them through the session until
// io.EOF or (maxBatches > 0) that many non-empty batches. The session
// journals every update, so a delta checkpoint ships just the replayed
// suffix, and counts every batch, so a trace checkpoint records the resume
// position.
func replay(sess *session.Session, next func() (graph.Batch, error), maxBatches int) (int, error) {
	replayed := 0
	for maxBatches <= 0 || replayed < maxBatches {
		b, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return replayed, err
		}
		if len(b) == 0 {
			continue
		}
		if err := step(sess, b); err != nil {
			return replayed, err
		}
		replayed++
	}
	return replayed, nil
}

// finishReplay verifies the replayed state against the mirror, prints the
// summary (identical across the text and trace paths, so CI can diff
// them), and writes the checkpoint if requested.
func finishReplay(sess *session.Session, replayed int, chain *snapshot.Chain, maxDeltaChain int, resumeFile, checkpointFile string) error {
	dc := sess.DC()
	if err := harness.VerifyConnectivity(dc, sess.Mirror()); err != nil {
		return fmt.Errorf("replay diverged from the oracle: %w", err)
	}
	fmt.Printf("replayed %d batches on %d vertices: %d components (oracle-verified)\n",
		replayed, sess.Config().N, dc.NumComponents())
	report(dc.Cluster().Stats(), replayed)
	if checkpointFile == "" {
		return nil
	}
	if chain == nil || checkpointFile != resumeFile {
		// Writing somewhere other than the resumed chain: start a fresh
		// chain there, which forces a full base.
		chain = snapshot.OpenChain(checkpointFile, maxDeltaChain)
	}
	return writeCheckpoint(chain, sess)
}

// runStream replays a text stream file through the connectivity algorithm,
// optionally resuming from and/or writing a checkpoint. When -resume and
// -checkpoint name the same path, the written checkpoint extends the
// restored chain as a cheap delta (carrying only the replayed updates and
// the state they dirtied) instead of rewriting the full snapshot. The file
// is streamed, never materialized: a first pass scans for the vertex-space
// size (skipped when a resumed snapshot already pins it), a second replays
// batch by batch, each validated against the mirror as it is pulled.
func runStream(algo, path string, phi float64, seed uint64, parallelism, maxDeltaChain, resumeMachines int, resumeFile, checkpointFile string) error {
	if algo != "connectivity" {
		return fmt.Errorf("-stream currently supports -algo connectivity, got %q", algo)
	}
	n := 0
	if resumeFile == "" {
		// Pass 1: fold the max vertex without holding more than one batch.
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		r := streamio.NewReader(file)
		for {
			b, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				file.Close()
				return err
			}
			if m := b.MaxVertex(); m >= n {
				n = m + 1
			}
		}
		file.Close()
	}
	sess, chain, err := openSession(n, phi, seed, parallelism, maxDeltaChain, resumeMachines, resumeFile)
	if err != nil {
		return err
	}
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	replayed, err := replay(sess, streamio.NewReader(file).Next, 0)
	if err != nil {
		return err
	}
	return finishReplay(sess, replayed, chain, maxDeltaChain, resumeFile, checkpointFile)
}

// runTrace replays a binary trace (internal/trace format) through the
// connectivity algorithm. Unlike the text path, the trace's footer already
// carries the vertex-space size (no scanning pass) and a seekable segment
// index: resuming a checkpoint cut mid-trace seeks straight to the first
// unapplied batch, decoding only the segments from there on.
func runTrace(algo, path string, phi float64, seed uint64, parallelism, maxDeltaChain, resumeMachines, traceBatches int, resumeFile, checkpointFile string) error {
	if algo != "connectivity" {
		return fmt.Errorf("-trace currently supports -algo connectivity, got %q", algo)
	}
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	tr, err := trace.NewReader(file)
	if err != nil {
		return err
	}
	shape := tr.Shape()
	sess, chain, err := openSession(shape.N, phi, seed, parallelism, maxDeltaChain, resumeMachines, resumeFile)
	if err != nil {
		return err
	}
	if n := sess.Config().N; shape.N > n {
		return fmt.Errorf("trace spans %d vertices but the resumed snapshot covers [0,%d)", shape.N, n)
	}
	if resumeFile != "" {
		applied := sess.Applied()
		if applied > shape.Batches {
			return fmt.Errorf("snapshot says %d batches already applied but the trace holds only %d — wrong trace for this checkpoint?", applied, shape.Batches)
		}
		if err := tr.SeekBatch(applied); err != nil {
			return err
		}
		fmt.Printf("continuing at trace batch %d of %d (segment index seek)\n", applied, shape.Batches)
	}
	replayed, err := replay(sess, tr.Next, traceBatches)
	if err != nil {
		return err
	}
	return finishReplay(sess, replayed, chain, maxDeltaChain, resumeFile, checkpointFile)
}

// multiSink fans converted batches out to every output format requested.
type multiSink []trace.Sink

func (m multiSink) WriteBatch(b graph.Batch) error {
	for _, s := range m {
		if err := s.WriteBatch(b); err != nil {
			return err
		}
	}
	return nil
}

// runConvert streams a SNAP-style edge list into the requested trace
// (binary) and/or stream (text) outputs. Input and outputs are all
// streamed; memory is bounded by the live-edge window plus one segment.
func runConvert(in, tracePath, streamPath string, window int64) error {
	inf, err := os.Open(in)
	if err != nil {
		return err
	}
	defer inf.Close()
	var sinks multiSink
	var tw *trace.Writer
	var sw *streamio.Writer
	var outs []*os.File
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		outs = append(outs, f)
		if tw, err = trace.NewWriter(f, trace.WriterOptions{}); err != nil {
			return err
		}
		sinks = append(sinks, tw)
	}
	if streamPath != "" {
		f, err := os.Create(streamPath)
		if err != nil {
			return err
		}
		outs = append(outs, f)
		sw = streamio.NewWriter(f)
		sinks = append(sinks, sw)
	}
	stats, err := trace.ConvertEdgeList(inf, sinks, trace.ConvertOptions{Window: window})
	if err != nil {
		return err
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return err
		}
	}
	if sw != nil {
		if err := sw.Flush(); err != nil {
			return err
		}
	}
	for _, f := range outs {
		if err := f.Close(); err != nil {
			return err
		}
	}
	weighted := "unweighted"
	if stats.Weighted {
		weighted = "weighted"
	}
	fmt.Printf("converted %d lines: %d batches, %d updates on %d vertices (%s)\n",
		stats.Lines, stats.Batches, stats.Updates, stats.N, weighted)
	fmt.Printf("normalized: %d duplicates, %d self-loops skipped; %d window expirations emitted\n",
		stats.Duplicates, stats.SelfLoops, stats.Expired)
	return nil
}

func report(st mpc.Stats, batches int) {
	fmt.Printf("rounds: %d (%.1f/batch)  messages: %d  words sent: %d\n",
		st.Rounds, float64(st.Rounds)/float64(batches), st.Messages, st.WordsSent)
	fmt.Printf("peak machine words: %d  peak total words: %d  violations: %d\n",
		st.PeakMachineWords, st.PeakTotalWords, len(st.Violations))
}
