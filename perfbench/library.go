package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/snapshot"
)

// coreConfig is the library instance configuration of a run.
func (r *run) coreConfig(parallelism int) core.Config {
	return core.Config{N: r.p.N, Phi: phi, Seed: r.seed, Parallelism: parallelism}
}

// window is one pass of update batches through ApplyBatch on one or more
// replicas of the same state.
type window struct {
	lat []float64 // per-batch latency, ms: the fastest replica's
	// step is each batch's wall-clock over all replicas divided by their
	// number, s; size is its number of updates.
	step []float64
	size []int
	// wall is the sum of the steps: the time one replica's pass took.
	wall          time.Duration
	before, after mpc.Stats // of the first replica
	updates       int       // per replica
	broken        bool      // a batch failed; no later batch was applied
}

// rate is the window's throughput in updates per second.
func (w window) rate() float64 { return sliceRate(w.step, w.size) }

// applyWindow applies batches in order to every replica, interleaved batch
// by batch, and times each call. A batch's latency is the fastest
// replica's, which filters out interference that hits one call and not its
// twin a few milliseconds later. That includes a GC assist or pause caused
// by either replica, so with two replicas the latency tails show only what
// every call of a batch pays; GC-driven stalls show in the service
// workload's HTTP tails, where one instance serves every request. After each batch the
// probe, if any, runs its share of the timed queries; that time is not
// window time. The replicas must end with identical Stats.
func (r *run) applyWindow(dcs []*core.DynamicConnectivity, batches []graph.Batch, q *probe) window {
	w := newWindow(dcs)
	r.applyMore(w, dcs, batches, q)
	r.closeWindow(w, dcs)
	return *w
}

// newWindow opens a window on replicas at the same state; applyMore then
// adds batches to it, in as many calls as the caller likes, and
// closeWindow ends it.
func newWindow(dcs []*core.DynamicConnectivity) *window {
	return &window{before: dcs[0].Cluster().Stats()}
}

// applyMore applies the next batches of a window, as applyWindow does. An
// apply error fails the run and ends the window: no later batch is
// attempted, since it may depend on the failed one.
func (r *run) applyMore(w *window, dcs []*core.DynamicConnectivity, batches []graph.Batch, q *probe) {
	for _, b := range batches {
		if w.broken {
			return
		}
		best := math.Inf(1)
		var err error
		start := time.Now()
		for _, dc := range dcs {
			t0 := time.Now()
			if e := dc.ApplyBatch(b); e != nil && err == nil {
				err = e
			}
			best = math.Min(best, ms(time.Since(t0)))
		}
		step := time.Since(start) / time.Duration(len(dcs))
		w.lat = append(w.lat, best)
		r.ops(1)
		if err != nil {
			r.fail("batch %d: %v", len(w.lat)-1, err)
			w.broken = true
			return
		}
		w.step = append(w.step, step.Seconds())
		w.size = append(w.size, len(b))
		w.wall += step
		w.updates += len(b)
		if q != nil {
			q.step()
		}
	}
}

// closeWindow reads the window's final Stats and checks that every replica
// ended with them.
func (r *run) closeWindow(w *window, dcs []*core.DynamicConnectivity) {
	w.after = dcs[0].Cluster().Stats()
	for i, dc := range dcs[1:] {
		r.ops(1)
		if st := dc.Cluster().Stats(); !reflect.DeepEqual(st, w.after) {
			r.fail("replica %d ended with Stats %+v, replica 0 with %+v", i+1, st, w.after)
		}
	}
}

// probe times cold ConnectedAll calls (the label cache invalidated first,
// as after an update) on an instance no update touches, each followed by
// the same call warm. Spreading the calls over the update window averages
// them over the host's slow and fast spells, as the batch latencies are.
type probe struct {
	dc      *core.DynamicConnectivity
	queries [][]core.Pair
	perStep int
	cold    []float64 // ms
	warm    []float64 // ns
	rounds  int       // of all cold calls
	answers []bool
	warmDst []bool
}

// newProbe spreads queries over steps calls of step.
func newProbe(dc *core.DynamicConnectivity, queries [][]core.Pair, steps int) *probe {
	return &probe{dc: dc, queries: queries, perStep: (len(queries) + steps - 1) / steps}
}

// step runs the next share of the queries.
func (q *probe) step() {
	for k := 0; k < q.perStep && len(q.cold) < len(q.queries); k++ {
		pairs := q.queries[len(q.cold)]
		q.dc.InvalidateQueryCache()
		before := q.dc.Cluster().Stats().Rounds
		t0 := time.Now()
		ans := q.dc.ConnectedAll(pairs)
		q.cold = append(q.cold, ms(time.Since(t0)))
		q.rounds += q.dc.Cluster().Stats().Rounds - before
		t1 := time.Now()
		q.warmDst = q.dc.ConnectedAllInto(q.warmDst, pairs)
		q.warm = append(q.warm, float64(time.Since(t1).Nanoseconds()))
		q.answers = append(q.answers, ans...)
	}
}

// checkProbe compares every answer the probe got with the oracle's on g,
// the graph the probed instance holds.
func (r *run) checkProbe(q *probe, g *graph.Graph) {
	var pairs [][2]int
	for _, qs := range q.queries[:len(q.cold)] {
		for _, p := range qs {
			pairs = append(pairs, [2]int{p.U, p.V})
		}
	}
	r.ops(len(q.cold))
	r.checkAnswers("timed queries", pairs, q.answers, oracleAnswers(g, pairs))
}

// putQueryLayers records the query engine's per-layer metrics.
func (r *run) putQueryLayers(q *probe) {
	r.put("core.query.cold_us", 1000*median(q.cold), "us")
	r.put("core.query.cold_rounds", float64(q.rounds)/float64(len(q.cold)), "rounds")
	r.put("core.query.warm_ns", median(q.warm), "ns")
}

// putCounters records the paper's resource metrics for a window: parallel
// time, communication, local and total memory. A cap violation or a peak
// above the local memory s fails the run.
func (r *run) putCounters(w window, localMemory int) {
	batches := float64(len(w.lat))
	r.put("rounds_per_batch", float64(w.after.Rounds-w.before.Rounds)/batches, "rounds")
	r.put("words_per_update", float64(w.after.WordsSent-w.before.WordsSent)/float64(w.updates), "words")
	r.put("peak_machine_frac", float64(w.after.PeakMachineWords)/float64(localMemory), "fraction")
	r.put("peak_total_words", float64(w.after.PeakTotalWords), "words")
	r.put("mpc.messages_per_batch", float64(w.after.Messages-w.before.Messages)/batches, "messages")
	r.put("mpc.max_recv_frac", float64(w.after.MaxRecvWords)/float64(localMemory), "fraction")
	r.put("mpc.max_send_frac", float64(w.after.MaxSendWords)/float64(localMemory), "fraction")
	r.put("mpc.violations", float64(len(w.after.Violations)), "count")
	r.ops(1)
	if n := len(w.after.Violations); n > 0 {
		r.fail("%d memory/communication cap violations, first: %s", n, w.after.Violations[0])
	}
	r.ops(1)
	if w.after.PeakMachineWords > localMemory {
		r.fail("peak machine memory %d words exceeds s = %d", w.after.PeakMachineWords, localMemory)
	}
}

// setupLibrary generates the stream and builds and prefills an instance,
// numSetups times anew; setup_s is the median. Every set-up's instance is
// returned.
func (r *run) setupLibrary(scenario string, sh streamShape) ([]*core.DynamicConnectivity, *stream, error) {
	var setups, gens []float64
	var dcs []*core.DynamicConnectivity
	var st *stream
	for i := 0; i < numSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		var gen time.Duration
		var err error
		if st, gen, err = timedStream(scenario, r.seed, sh); err != nil {
			return nil, nil, err
		}
		dc, err := r.newPrefilled(libraryParallelism, st.prefill)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, gen.Seconds())
		dcs = append(dcs, dc)
	}
	r.put("setup_s", median(setups), "s")
	r.put("workload.gen_s", median(gens), "s")
	r.note("setup: %d set-ups, median %.3fs", len(setups), median(setups))
	return dcs, st, nil
}

// newPrefilled builds an instance and applies the prefill batches to it.
func (r *run) newPrefilled(parallelism int, prefill []graph.Batch) (*core.DynamicConnectivity, error) {
	dc, err := core.NewDynamicConnectivity(r.coreConfig(parallelism))
	if err != nil {
		return nil, err
	}
	for j, b := range prefill {
		if err := dc.ApplyBatch(b); err != nil {
			return nil, fmt.Errorf("prefill batch %d: %w", j, err)
		}
	}
	return dc, nil
}

// libraryShape sizes a library workload's stream from --seconds.
func (r *run) libraryShape(scenario string) streamShape {
	cfg := r.coreConfig(1)
	return streamShape{
		n:            r.p.N,
		size:         cfg.MaxBatch(),
		prefill:      r.p.Prefill,
		batches:      int(math.Max(1, math.Round(r.seconds*r.p.BatchesPerSecond[scenario]))),
		queryBatches: r.p.QueryBatches,
		queryPairs:   queryPairs,
		checkPairs:   r.p.CheckPairs,
	}
}

// runLibrary drives the powerlaw and churn workloads: a closed loop of
// ApplyBatch calls over the pre-generated stream on two replicas, with cold
// queries on a third instance between batches, then the oracle checks. A
// traced run adds the per-layer passes.
func runLibrary(r *run) error {
	dcs, st, err := r.setupLibrary(r.workload, r.libraryShape(r.workload))
	if err != nil {
		return err
	}
	// The first set-up stays at the prefilled state as the query target;
	// the other two are the replicas the window measures.
	q := newProbe(dcs[0], st.queries, len(st.batches))
	dc := dcs[1]
	var img []byte
	if r.trace {
		if img, err = saveImage(dc); err != nil {
			return err
		}
	}
	runtime.GC()
	var w window
	prof, err := r.profile(func() { w = r.applyWindow(dcs[1:], st.batches, q) })
	if err != nil {
		return err
	}
	q.dc, dcs = nil, nil // the query target and the second replica are done
	r.putWindow(w)
	r.putCounters(w, dc.Cluster().LocalMemory())
	r.note("window: %d batches, %d updates, %.3fs per replica", len(w.lat), w.updates, w.wall.Seconds())
	r.checkProbe(q, st.prefilled)
	r.putLatency("query", q.cold)
	r.putQueryLayers(q)
	r.note("query latency: %d cold ConnectedAll samples of %d pairs", len(q.cold), queryPairs)
	r.checkFinal(dc, st)
	// A library call is never refused and has no queue behind it: every
	// batch is accepted, and the backlog is the pre-generated stream, which
	// drains at the window's rate.
	r.put("accepted_frac", 1, "fraction")
	r.put("refused_frac", 0, "fraction")
	r.put("backlog_drain_s", float64(w.updates)/w.rate(), "s")
	r.putLatency("update_ack", w.lat)
	if !r.trace {
		return nil
	}
	if err := r.putCPU(prof); err != nil {
		return err
	}
	if err := r.traceLayers(img, st, w, libraryParallelism, dc); err != nil {
		return err
	}
	return r.serveSidecar()
}

// putLatency records latencies in ms, in the order taken, under names
// prefixed by kind: the p50, p75 and p90 as the median over the sample's
// slices, and the p99, a tail only the whole sample has, over all of it.
func (r *run) putLatency(kind string, lat []float64) {
	for _, p := range []int{50, 75, 90} {
		r.put(fmt.Sprintf("%s_p%d_ms", kind, p), sliceQuantile(lat, float64(p)/100), "ms")
	}
	r.put(kind+"_p99_ms", quantile(lat, 0.99), "ms")
}

// putWindow records the window's throughput and latency metrics.
func (r *run) putWindow(w window) {
	r.put("updates_per_s", w.rate(), "1/s")
	r.put("batch_p50_ms", sliceQuantile(w.lat, 0.5), "ms")
	r.put("batch_p95_ms", sliceQuantile(w.lat, 0.95), "ms")
	r.note("batch latency: %d samples", len(w.lat))
}

// checkFinal checks the final state against the oracle: the whole component
// partition and the ConnectedAll sample.
func (r *run) checkFinal(dc *core.DynamicConnectivity, st *stream) {
	r.checkPartition("SnapshotComponents", dc.SnapshotComponents(), st.mix.Mirror())
	r.checkAnswers("ConnectedAll sample", st.check, dc.ConnectedAll(pairsOf(st.check)), st.mix.OracleAnswers(st.check))
}

// saveImage checkpoints an instance into memory.
func saveImage(dc *core.DynamicConnectivity) ([]byte, error) {
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, dc); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// loadImage restores an in-memory checkpoint into a fresh instance.
func (r *run) loadImage(img []byte, parallelism int) (*core.DynamicConnectivity, error) {
	dc, err := core.NewDynamicConnectivity(r.coreConfig(parallelism))
	if err != nil {
		return nil, err
	}
	if err := snapshot.Load(bytes.NewReader(img), dc); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	return dc, nil
}

// soloReplay restores img into a fresh instance at the given parallelism
// and applies batches to it alone.
func (r *run) soloReplay(img []byte, parallelism int, batches []graph.Batch) (window, error) {
	dc, err := r.loadImage(img, parallelism)
	if err != nil {
		return window{}, err
	}
	runtime.GC()
	return r.applyWindow([]*core.DynamicConnectivity{dc}, batches, nil), nil
}

// traceLayers runs the per-layer passes over the same stream, each from the
// prefill image: a solo replay at the window's parallelism refPar, the
// traced pass splitting every batch into its insertion and deletion
// ApplyBatch calls, and a replay at the other parallelism. All three must
// end with Stats identical to the window's. The window's replicas run
// interleaved and share caches and the heap, while these passes each run
// alone, so their wall-clock is compared with the solo replay's. Then the
// final state goes through a full Checkpoint/Restore.
func (r *run) traceLayers(img []byte, st *stream, win window, refPar int, final *core.DynamicConnectivity) error {
	ref, err := r.soloReplay(img, refPar, st.batches)
	if err != nil {
		return err
	}
	r.ops(1)
	if !reflect.DeepEqual(ref.after, win.after) {
		r.fail("solo replay Stats %+v differ from the window's %+v", ref.after, win.after)
	}
	tr := newTracer()
	dc, err := r.loadImage(img, refPar)
	if err != nil {
		return err
	}
	runtime.GC()
	sp := r.tracedPass(dc, st.batches, tr)
	r.ops(1)
	if !reflect.DeepEqual(dc.Cluster().Stats(), ref.after) {
		r.fail("traced pass Stats %+v differ from the window's %+v", dc.Cluster().Stats(), ref.after)
	}
	r.ops(1)
	if sp.ins.Rounds+sp.del.Rounds != ref.after.Rounds-ref.before.Rounds ||
		sp.ins.WordsSent+sp.del.WordsSent != ref.after.WordsSent-ref.before.WordsSent {
		r.fail("insert+delete counters (%d+%d rounds, %d+%d words) do not sum to the window's",
			sp.ins.Rounds, sp.del.Rounds, sp.ins.WordsSent, sp.del.WordsSent)
	}
	r.putSplit(sp, len(st.batches), ref.updates)
	r.put("trace.overhead_frac", (sp.wall.Seconds()-ref.wall.Seconds())/ref.wall.Seconds(), "fraction")
	if err := tr.write(r.spanPath()); err != nil {
		return err
	}

	// The other parallelism: 1 when the window ran parallel, else the
	// library default.
	other := 1
	if refPar <= 1 {
		other = libraryParallelism
	}
	w, err := r.soloReplay(img, other, st.batches)
	if err != nil {
		return err
	}
	same := reflect.DeepEqual(w.after, ref.after)
	r.ops(1)
	if !same {
		r.fail("Stats at parallelism %d %+v differ from parallelism %d %+v", other, w.after, refPar, ref.after)
	}
	r.put("mpc.identical_p1", boolFloat(same), "bool")
	p1, pN := w.wall, ref.wall
	if refPar <= 1 {
		p1, pN = ref.wall, w.wall
	}
	r.put("mpc.parallel_speedup", p1.Seconds()/pN.Seconds(), "x")
	r.note("parallel speedup: p1 %.3fs vs p%d %.3fs", p1.Seconds(), max(refPar, other), pN.Seconds())
	return r.putFullSnapshot(final)
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// putFullSnapshot times a full Checkpoint and Restore of the final state
// and checks the restored instance answers identically.
func (r *run) putFullSnapshot(dc *core.DynamicConnectivity) error {
	runtime.GC()
	t0 := time.Now()
	img, err := saveImage(dc)
	if err != nil {
		return err
	}
	save := time.Since(t0)
	t1 := time.Now()
	back, err := r.loadImage(img, dc.Config().Parallelism)
	if err != nil {
		return err
	}
	load := time.Since(t1)
	r.ops(1)
	if !reflect.DeepEqual(back.SnapshotComponents(), dc.SnapshotComponents()) {
		r.fail("restored instance's components differ from the checkpointed one's")
	}
	r.put("snapshot.full_bytes", float64(len(img)), "bytes")
	r.put("snapshot.full_ms", ms(save), "ms")
	r.put("snapshot.restore_ms", ms(load), "ms")
	return nil
}

// split is what the traced pass measures per sub-batch kind.
type split struct {
	ins, del       mpc.Stats // summed deltas (Rounds, Messages, WordsSent)
	insNs, delNs   int64
	insUpd, delUpd int
	delBatches     int // batches with deletions
	searchBatches  int // ... that cut a forest edge
	deletions      int
	treeCut        int // deleted edges that were forest edges
	replacements   int // forest edges added by the deletion sub-batch
	wall           time.Duration
}

// tracedPass applies every batch as its insertion sub-batch then its
// deletion sub-batch (exactly what ApplyBatch does inside), with a span
// around each call, and reads the forest between them to see how many
// forest edges each deletion sub-batch cut and replaced.
func (r *run) tracedPass(dc *core.DynamicConnectivity, batches []graph.Batch, tr *tracer) split {
	var sp split
	var ins, del graph.Batch
	start := time.Now()
	for i, b := range batches {
		ins, del = ins[:0], del[:0]
		for _, u := range b {
			if u.Op == graph.Insert {
				ins = append(ins, u)
			} else {
				del = append(del, u)
			}
		}
		bs := tr.begin("batch", 0)
		sp.insNs += r.tracedApply(dc, ins, "core.insert", bs, tr, &sp.ins, i)
		sp.insUpd += len(ins)
		if len(del) == 0 {
			tr.end(bs)
			continue
		}
		fs := tr.begin("forest.read", bs)
		mid := forestSet(dc)
		tr.end(fs)
		sp.delNs += r.tracedApply(dc, del, "core.delete", bs, tr, &sp.del, i)
		sp.delUpd += len(del)
		sp.delBatches++
		sp.deletions += len(del)
		cut := 0
		for _, u := range del {
			if mid[u.Edge.Canonical()] {
				cut++
			}
		}
		if cut > 0 {
			sp.searchBatches++
			sp.treeCut += cut
			fs := tr.begin("forest.read", bs)
			for _, e := range dc.SnapshotForest() {
				if !mid[e] {
					sp.replacements++
				}
			}
			tr.end(fs)
		}
		tr.end(bs)
	}
	sp.wall = time.Since(start)
	return sp
}

// tracedApply applies one sub-batch inside a span and adds its counter
// deltas to sum; it returns the call's duration in nanoseconds.
func (r *run) tracedApply(dc *core.DynamicConnectivity, b graph.Batch, name string, parent int, tr *tracer, sum *mpc.Stats, i int) int64 {
	if len(b) == 0 {
		return 0
	}
	before := dc.Cluster().Stats()
	s := tr.begin(name, parent)
	t0 := time.Now()
	err := dc.ApplyBatch(b)
	d := time.Since(t0)
	tr.end(s)
	r.ops(1)
	if err != nil {
		r.fail("traced %s of batch %d: %v", name, i, err)
	}
	after := dc.Cluster().Stats()
	sum.Rounds += after.Rounds - before.Rounds
	sum.Messages += after.Messages - before.Messages
	sum.WordsSent += after.WordsSent - before.WordsSent
	return d.Nanoseconds()
}

// forestSet reads the maintained spanning forest into a set.
func forestSet(dc *core.DynamicConnectivity) map[graph.Edge]bool {
	f := dc.SnapshotForest()
	set := make(map[graph.Edge]bool, len(f))
	for _, e := range f {
		set[e] = true
	}
	return set
}

// putSplit records the insertion/deletion split. Rounds are per batch and
// words per update of the whole stream, so the two kinds sum to the
// window's rounds_per_batch and words_per_update.
func (r *run) putSplit(sp split, batches, updates int) {
	total := float64(sp.insNs + sp.delNs)
	nb, nu := float64(batches), float64(updates)
	r.put("core.insert.share", ratio(float64(sp.insNs), total), "fraction")
	r.put("core.insert.us_per_update", ratio(float64(sp.insNs)/1e3, float64(sp.insUpd)), "us")
	r.put("core.insert.rounds_per_batch", float64(sp.ins.Rounds)/nb, "rounds")
	r.put("core.insert.words_per_update", float64(sp.ins.WordsSent)/nu, "words")
	r.put("core.delete.share", ratio(float64(sp.delNs), total), "fraction")
	r.put("core.delete.us_per_update", ratio(float64(sp.delNs)/1e3, float64(sp.delUpd)), "us")
	r.put("core.delete.rounds_per_batch", float64(sp.del.Rounds)/nb, "rounds")
	r.put("core.delete.words_per_update", float64(sp.del.WordsSent)/nu, "words")
	r.put("core.delete.search_batch_frac", ratio(float64(sp.searchBatches), float64(sp.delBatches)), "fraction")
	r.put("core.delete.tree_edge_frac", ratio(float64(sp.treeCut), float64(sp.deletions)), "fraction")
	r.put("core.delete.replacement_yield", ratio(float64(sp.replacements), float64(sp.treeCut)), "fraction")
}
