package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

// served is one running service: the server behind a loopback listener and
// the checkpoint directory it owns.
type served struct {
	srv *server.Server
	hs  *httptest.Server
	dir string
}

// stop stops the listener (waiting for in-flight requests) and shuts the
// server down gracefully: drain plus a checkpoint into its directory.
func (s *served) stop() error {
	s.hs.Close()
	return s.srv.Close()
}

// close stops the server and removes its directory.
func (s *served) close() error {
	err := s.stop()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// client returns an HTTP client holding at most one connection.
func client() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// post sends a JSON body and returns the status and response body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// queueDepth is the server's default update queue bound.
const queueDepth = 16

// Series of instance 0 the benchmark reads.
const (
	mApplied      = `mpcserve_update_batches_applied_total{instance="0"}`
	mRejected     = `mpcserve_update_batches_rejected_total{instance="0"}`
	mHits         = `mpcserve_query_cache_hits_total{instance="0"}`
	mMisses       = `mpcserve_query_cache_misses_total{instance="0"}`
	mApplySum     = `mpcserve_batch_apply_seconds_sum{instance="0"}`
	mApplyCount   = `mpcserve_batch_apply_seconds_count{instance="0"}`
	mCkptFull     = `mpcserve_checkpoint_total{instance="0",kind="full"}`
	mCkptDelta    = `mpcserve_checkpoint_total{instance="0",kind="delta"}`
	mCkptBytesF   = `mpcserve_checkpoint_bytes_total{instance="0",kind="full"}`
	mCkptBytesD   = `mpcserve_checkpoint_bytes_total{instance="0",kind="delta"}`
	mCkptSecFull  = `mpcserve_checkpoint_seconds_total{instance="0",kind="full"}`
	mCkptSecDelta = `mpcserve_checkpoint_seconds_total{instance="0",kind="delta"}`
	mHealthy      = `mpcserve_instance_healthy{instance="0"}`
)

// encodeUpdates pre-encodes a batch as a POST /updates body.
func encodeUpdates(b graph.Batch) []byte {
	req := server.UpdateRequest{Updates: make([]server.WireUpdate, len(b))}
	for i, u := range b {
		op := "insert"
		if u.Op == graph.Delete {
			op = "delete"
		}
		req.Updates[i] = server.WireUpdate{Op: op, U: u.Edge.U, V: u.Edge.V, Weight: u.Weight}
	}
	data, _ := json.Marshal(req) // plain structs of ints and strings cannot fail
	return data
}

// encodeQuery pre-encodes a POST /query body.
func encodeQuery(q []core.Pair) []byte {
	req := server.QueryRequest{Pairs: make([][2]int, len(q))}
	for i, p := range q {
		req.Pairs[i] = [2]int{p.U, p.V}
	}
	data, _ := json.Marshal(req) // cannot fail, as above
	return data
}

// session is one service run: its stream, pre-encoded bodies, and what the
// open-loop window measured.
type session struct {
	st      *stream
	updates [][]byte // the scheduled batches, then the burst
	burst   int
	queries [][]byte
	// writeDue and queryDue are the scheduled batches' and the queries'
	// due times, as offsets from the window's start; span is the length of
	// the schedule.
	writeDue, queryDue []time.Duration
	span               time.Duration
	svc                *served
	// every is the period of the server's checkpoints, nextCkpt when the
	// next one is due and ckpts how many /metrics showed last.
	every    time.Duration
	nextCkpt time.Time
	ckpts    float64
	setups   float64            // median set-up time, s
	gen      float64            // median stream generation time, s
	before   map[string]float64 // /metrics at window start
	after    map[string]float64 // ... once the scheduled batches are applied
	final    map[string]float64 // ... once the burst is applied and checkpointed
	ack      []float64          // per accepted update batch, ms from due time to 202
	query    []float64          // per query batch, ms from due time to answer
	late     []float64          // generator lateness per send, ms
	refused  int
	sends    int // update POSTs attempted, refusals included
	// drain and drained are, per group of the final burst, the time it took
	// to drain and its number of updates.
	drain   []float64
	drained []int
	wall    time.Duration // the segments' time, each from its start until its batches are applied and its queries answered
	applied int           // updates in the scheduled batches
}

// startSession sets a service run up `setups` times anew: stream
// generation and body encoding, server.New with periodic checkpoints, the
// prefill over HTTP, and a graceful restart. The last set-up stays
// running.
func (r *run) startSession(scenario string, seconds, writeRate, queryRate float64, burst, setups int) (*session, error) {
	writeDue := schedule(int(math.Max(1, math.Round(seconds*writeRate))), writeRate, nil)
	queryDue := schedule(int(math.Max(1, math.Round(seconds*queryRate))), queryRate, rand.New(rand.NewPCG(r.seed, 2)))
	sh := streamShape{
		n:            r.p.N,
		size:         r.coreConfig(1).MaxBatch(),
		prefill:      r.p.Prefill,
		batches:      len(writeDue) + burst,
		queryBatches: len(queryDue),
		queryPairs:   queryPairs,
		checkPairs:   r.p.CheckPairs,
	}
	// The first periodic checkpoint after the restart is due about two
	// thirds into the run, the next after its end. openLoop waits for it
	// between timed phases (a quiesce pause of a few hundred milliseconds
	// inside one would otherwise set both p99s).
	every := time.Duration(1.4 * seconds * float64(time.Second))
	var s *session
	var times, gens []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.svc.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		st, gen, err := timedStream(scenario, r.seed, sh)
		if err != nil {
			return nil, err
		}
		gens = append(gens, gen.Seconds())
		s = &session{st: st, burst: burst, writeDue: writeDue, queryDue: queryDue,
			span: time.Duration(seconds * float64(time.Second)), every: every}
		for _, b := range st.batches {
			s.updates = append(s.updates, encodeUpdates(b))
		}
		for _, q := range st.queries {
			s.queries = append(s.queries, encodeQuery(q))
		}
		dir := filepath.Join(r.workdir, fmt.Sprintf("ckpt-%s", scenario))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if s.svc, err = r.startServer(dir, every); err != nil {
			return nil, err
		}
		err = r.prefillServer(s.svc, st.prefill)
		// A graceful restart writes the full base checkpoint and restores
		// from it, so the periodic checkpoint is a delta.
		if serr := s.svc.stop(); err == nil {
			err = serr
		}
		if err == nil {
			s.svc, err = r.startServer(dir, every)
			s.nextCkpt = time.Now().Add(every)
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	s.setups, s.gen = median(times), median(gens)
	return s, nil
}

// startServer starts one single-instance server checkpointing into dir
// every period, restoring whatever checkpoint chain dir holds.
func (r *run) startServer(dir string, every time.Duration) (*served, error) {
	srv, err := server.New(server.Config{
		Instances:       1,
		N:               r.p.N,
		Phi:             phi,
		Seed:            r.seed,
		Parallelism:     1,
		QueueDepth:      queueDepth,
		CheckpointDir:   dir,
		CheckpointEvery: every,
		MaxDeltaChain:   1 << 10,
	})
	if err != nil {
		return nil, err
	}
	return &served{srv: srv, hs: httptest.NewServer(srv), dir: dir}, nil
}

// prefillServer posts the prefill batches in a closed loop, then waits
// until they are applied.
func (r *run) prefillServer(svc *served, prefill []graph.Batch) error {
	c := client()
	defer c.CloseIdleConnections()
	url := svc.hs.URL + "/instances/0/updates"
	for i, b := range prefill {
		body := encodeUpdates(b)
		for {
			code, data, err := post(c, url, body)
			if err != nil {
				return err
			}
			if code == http.StatusAccepted {
				break
			}
			if code != http.StatusTooManyRequests {
				return fmt.Errorf("prefill batch %d: status %d: %s", i, code, data)
			}
			time.Sleep(time.Millisecond)
		}
	}
	_, err := waitMetrics(c, svc.hs.URL, func(m map[string]float64) bool {
		return m[mApplied] >= float64(len(prefill))
	})
	return err
}

// waitMetrics polls /metrics until done holds (or a minute passes) and
// returns the last scrape.
func waitMetrics(c *http.Client, base string, done func(map[string]float64) bool) (map[string]float64, error) {
	deadline := time.Now().Add(time.Minute)
	for {
		m, err := scrape(c, base)
		if err != nil {
			return nil, err
		}
		if m[mHealthy] != 1 {
			return nil, fmt.Errorf("instance 0 unhealthy")
		}
		if done(m) {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("timed out waiting on /metrics")
		}
		time.Sleep(time.Millisecond)
	}
}

// sleepUntil sleeps until t and returns how late it woke, in ms.
func sleepUntil(t time.Time) float64 {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
	return ms(time.Since(t))
}

// schedule returns n due times at the given rate, as offsets from the
// window's start: the i-th at i/rate, or with jitter drawn uniformly from
// its period. The writes are periodic, so they never queue up behind one
// another. The queries are jittered: two periodic schedules lock in phase
// (at 120 and 100 per second every fifth query would arrive with a write,
// the next 1.7 ms after one), and the share of queries that wait behind an
// apply would then jump whenever applies got a little slower than such a
// gap; with jitter it grows smoothly with the apply time.
func schedule(n int, rate float64, jitter *rand.Rand) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t := float64(i)
		if jitter != nil {
			t += jitter.Float64()
		}
		out[i] = time.Duration(t / rate * float64(time.Second))
	}
	return out
}

// segment is the length the schedule is cut into: openLoop runs it one
// segment at a time.
const segment = 2 * time.Second

// ckptMargin is how long before a periodic checkpoint is due a timed phase
// must have ended.
const ckptMargin = 500 * time.Millisecond

// checkpoints is the number of checkpoints /metrics counts.
func checkpoints(m map[string]float64) float64 { return m[mCkptDelta] + m[mCkptFull] }

// quiet comes before every timed phase, each at most a segment long: when
// a periodic checkpoint is due before the phase could end, it waits until
// that checkpoint has completed, so none quiesces the instance while a
// phase is timed. With force it waits for the next checkpoint regardless.
func (s *session) quiet(c *http.Client, force bool) error {
	if !force && time.Until(s.nextCkpt) > segment+ckptMargin {
		return nil
	}
	m, err := waitMetrics(c, s.svc.hs.URL, func(m map[string]float64) bool { return checkpoints(m) > s.ckpts })
	if err != nil {
		return err
	}
	s.ckpts = checkpoints(m)
	s.nextCkpt = s.nextCkpt.Add(s.every)
	return nil
}

// openLoop runs the window, cutting the schedule into segments of about
// two seconds. In each, one writer posts the segment's update batches and
// one reader its query batches, each on its own connection, each request
// sent at and timed from its due time; a refused batch is posted again one
// write period later. A segment ends once its accepted batches are
// applied and its queries answered. After the schedule, the burst goes in
// groups of one queue's worth: each group is posted back-to-back into the
// empty queue and timed until /metrics shows it applied. After every
// segment and every tenth of the burst, with the server idle, between (if
// not nil) gets the range of batches just applied. It returns once every
// batch is applied and the server has checkpointed once.
func (r *run) openLoop(s *session, writeRate float64, tr *tracer, between func(lo, hi int)) error {
	base := s.svc.hs.URL
	ctl, wc, qc := client(), client(), client()
	defer ctl.CloseIdleConnections()
	defer wc.CloseIdleConnections()
	defer qc.CloseIdleConnections()
	var err error
	if s.before, err = scrape(ctl, base); err != nil {
		return err
	}
	s.ckpts = checkpoints(s.before)
	var mu sync.Mutex // guards s.late and the failure count across the two loops
	failf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		r.fail(format, args...)
	}
	applied := func(n int) func(map[string]float64) bool {
		return func(m map[string]float64) bool { return m[mApplied] >= s.before[mApplied]+float64(n) }
	}
	// ready precedes every timed phase of the service: no checkpoint is
	// due during it, and the garbage of the phases before is collected.
	ready := func() error {
		if err := s.quiet(ctl, false); err != nil {
			return err
		}
		runtime.GC()
		return nil
	}
	pause := func(lo, hi int) error {
		if between == nil || lo == hi {
			return nil
		}
		if err := s.quiet(ctl, false); err != nil {
			return err
		}
		between(lo, hi)
		return nil
	}

	url := base + "/instances/0/updates"
	scheduled := len(s.updates) - s.burst
	segs := max(1, int(math.Round(float64(s.span)/float64(segment))))
	length := s.span / time.Duration(segs)
	for k, w, q := 0, 0, 0; k < segs && err == nil; k++ {
		wEnd, qEnd := scheduled, len(s.queries)
		if k < segs-1 {
			end := time.Duration(k+1) * length
			wEnd = sort.Search(scheduled, func(i int) bool { return s.writeDue[i] >= end })
			qEnd = sort.Search(len(s.queries), func(i int) bool { return s.queryDue[i] >= end })
		}
		if err = ready(); err != nil {
			break
		}
		// Due times are offsets from the schedule's start; the segment
		// starts at offset k × length.
		begin := time.Now().Add(10 * time.Millisecond)
		start := begin.Add(-time.Duration(k) * length)
		var wg sync.WaitGroup
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for j := lo; j < hi; j++ {
				due := start.Add(s.queryDue[j])
				late := sleepUntil(due)
				mu.Lock()
				s.late = append(s.late, late)
				mu.Unlock()
				sp := tr.begin("http.query", 0)
				code, data, err := post(qc, base+"/instances/0/query", s.queries[j])
				s.query = append(s.query, ms(time.Since(due)))
				tr.end(sp)
				var resp server.QueryResponse
				switch {
				case err != nil:
					failf("query %d: %v", j, err)
				case code != http.StatusOK:
					failf("query %d: status %d: %s", j, code, data)
				case json.Unmarshal(data, &resp) != nil || len(resp.Connected) != queryPairs:
					failf("query %d: malformed answer %s", j, data)
				}
			}
		}(q, qEnd)
		for i := w; i < wEnd; i++ {
			due := start.Add(s.writeDue[i])
			late := sleepUntil(due)
			mu.Lock()
			s.late = append(s.late, late)
			mu.Unlock()
			for {
				s.sends++
				sp := tr.begin("http.update", 0)
				code, data, err := post(wc, url, s.updates[i])
				tr.end(sp)
				if err == nil && code == http.StatusTooManyRequests {
					// Refused: the batch must still land before the next
					// one, which may depend on it. Retry after one write
					// period.
					s.refused++
					time.Sleep(time.Duration(float64(time.Second) / writeRate))
					continue
				}
				if err != nil || code != http.StatusAccepted {
					failf("update batch %d: status %d: %v %s", i, code, err, data)
				} else {
					s.ack = append(s.ack, ms(time.Since(due)))
				}
				break
			}
		}
		s.after, err = waitMetrics(ctl, base, applied(wEnd))
		wg.Wait()
		s.wall += time.Since(begin)
		if err == nil {
			err = pause(w, wEnd)
		}
		w, q = wEnd, qEnd
	}
	for _, b := range s.st.batches[:scheduled] {
		s.applied += len(b)
	}

	// The burst, in tenths of its groups.
	groups := (s.burst + queueDepth - 1) / queueDepth
	perTenth := max(1, (groups+maxSlices-1)/maxSlices) * queueDepth
	for lo := scheduled; lo < len(s.updates) && err == nil; lo += perTenth {
		hi := min(lo+perTenth, len(s.updates))
		if err = ready(); err != nil {
			break
		}
		for g := lo; g < hi && err == nil; g += queueDepth {
			end := min(g+queueDepth, hi)
			t0 := time.Now()
			for i, body := range s.updates[g:end] {
				for {
					code, data, perr := post(wc, url, body)
					if perr == nil && code == http.StatusTooManyRequests {
						time.Sleep(time.Millisecond)
						continue
					}
					if perr != nil || code != http.StatusAccepted {
						failf("burst batch %d: status %d: %v %s", g+i, code, perr, data)
					}
					break
				}
			}
			_, err = waitMetrics(ctl, base, applied(end))
			s.drain = append(s.drain, time.Since(t0).Seconds())
			n := 0
			for _, b := range s.st.batches[g:end] {
				n += len(b)
			}
			s.drained = append(s.drained, n)
		}
		if err == nil {
			err = pause(lo, hi)
		}
	}
	if err == nil && s.ckpts == checkpoints(s.before) {
		err = s.quiet(ctl, true)
	}
	if err == nil {
		s.final, err = scrape(ctl, base)
	}
	if err != nil {
		return err
	}
	r.ops(len(s.updates) + len(s.queries))
	return nil
}

// checkServed checks the drained service against the oracle over HTTP: a
// query sample and the full component partition.
func (r *run) checkServed(s *session) error {
	c := client()
	defer c.CloseIdleConnections()
	base := s.svc.hs.URL
	code, data, err := post(c, base+"/instances/0/query", encodeQuery(pairsOf(s.st.check)))
	if err != nil {
		return err
	}
	var qr server.QueryResponse
	if code != http.StatusOK || json.Unmarshal(data, &qr) != nil {
		r.ops(1)
		r.fail("check query: status %d: %s", code, data)
	} else {
		r.checkAnswers("HTTP query sample", s.st.check, qr.Connected, s.st.mix.OracleAnswers(s.st.check))
	}
	vs := make([]string, r.p.N)
	for v := range vs {
		vs[v] = strconv.Itoa(v)
	}
	resp, err := c.Get(base + "/instances/0/components?vertices=" + strings.Join(vs, ","))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var cr server.ComponentsResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&cr) != nil {
		r.ops(1)
		r.fail("components readout: status %d", resp.StatusCode)
		return nil
	}
	r.checkPartition("HTTP components", cr.Labels, s.st.mix.Mirror())
	return nil
}

// putServerLayers records the per-layer metrics read from /metrics: the
// server's over the schedule, the checkpoint's over the whole window (the
// periodic checkpoint falls between timed phases), and the load
// generator's lateness.
func (r *run) putServerLayers(s *session) {
	d := func(m map[string]float64, k string) float64 { return m[k] - s.before[k] }
	r.put("server.apply_ms_mean", 1000*ratio(d(s.after, mApplySum), d(s.after, mApplyCount)), "ms")
	r.put("server.cache_hit_ratio", ratio(d(s.after, mHits), d(s.after, mHits)+d(s.after, mMisses)), "fraction")
	r.put("server.rejected_batches", d(s.after, mRejected), "count")
	ckpts := d(s.final, mCkptFull) + d(s.final, mCkptDelta)
	r.put("snapshot.checkpoints", ckpts, "count")
	r.put("snapshot.ckpt_ms_mean", 1000*ratio(d(s.final, mCkptSecFull)+d(s.final, mCkptSecDelta), ckpts), "ms")
	r.put("snapshot.ckpt_bytes_mean", ratio(d(s.final, mCkptBytesF)+d(s.final, mCkptBytesD), ckpts), "bytes")
	r.put("loadgen.late_p99_ms", quantile(s.late, 0.99), "ms")
}

// runServe drives the serve workload: the open-loop window against the
// service, the drain, the oracle checks over HTTP, and a twin replay of the
// accepted stream through the library for the exact counters and the batch
// latencies. The twin replays each segment's batches right after the
// service applied them, so that its latencies, like the service's, are
// sampled over the whole run, and host spells weigh on both alike. On a
// traced run, whose CPU profile must cover the service alone, it replays
// them all after the window.
func runServe(r *run) error {
	s, err := r.startSession("churn", r.seconds, r.p.WriteRate, r.p.QueryRate, r.p.Burst, numSetups)
	if err != nil {
		return err
	}
	r.put("setup_s", s.setups, "s")
	r.put("workload.gen_s", s.gen, "s")
	r.note("setup: %d set-ups, median %.3fs", numSetups, s.setups)
	// The twin: the same stream through the library at the server's
	// configuration, on two replicas as in the library workloads.
	var twins []*core.DynamicConnectivity
	for range 2 {
		dc, err := r.newPrefilled(1, s.st.prefill)
		if err != nil {
			s.svc.close()
			return fmt.Errorf("twin: %w", err)
		}
		twins = append(twins, dc)
	}
	twin := twins[0]
	var img []byte
	if r.trace {
		if img, err = saveImage(twin); err != nil {
			s.svc.close()
			return err
		}
	}
	tw := newWindow(twins)
	replayed := 0
	between := func(lo, hi int) {
		r.applyMore(tw, twins, s.st.batches[lo:hi], nil)
		replayed = hi
	}
	var tr *tracer
	if r.trace {
		tr, between = newTracer(), nil
	}
	prof, err := r.profile(func() { err = r.openLoop(s, r.p.WriteRate, tr, between) })
	if err == nil {
		err = r.checkServed(s)
	}
	if cerr := s.svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.putLatency("query", s.query)
	r.putLatency("update_ack", s.ack)
	r.put("accepted_frac", ratio(float64(len(s.ack)), float64(s.sends)), "fraction")
	r.put("refused_frac", ratio(float64(s.refused), float64(s.sends)), "fraction")
	// The burst's updates over the drain rate, as on the library
	// workloads.
	burst := 0
	for _, n := range s.drained {
		burst += n
	}
	r.put("backlog_drain_s", float64(burst)/sliceRate(s.drain, s.drained), "s")
	r.putServerLayers(s)
	r.note("window: %d update batches at %.0f/s, %d query batches at %.0f/s, %d burst groups",
		len(s.updates), r.p.WriteRate, len(s.query), r.p.QueryRate, len(s.drain))

	if replayed < len(s.st.batches) {
		runtime.GC()
		r.applyMore(tw, twins, s.st.batches[replayed:], nil)
	}
	r.closeWindow(tw, twins)
	w := *tw
	r.putWindow(w)
	r.put("updates_per_s", float64(s.applied)/s.wall.Seconds(), "1/s")
	r.putCounters(w, twin.Cluster().LocalMemory())
	r.checkFinal(twin, s.st)
	if !r.trace {
		return nil
	}
	if err := tr.write(filepath.Join(r.workdir, "spans-serve-http.jsonl")); err != nil {
		return err
	}
	if err := r.putCPU(prof); err != nil {
		return err
	}
	q := newProbe(twin, s.st.queries, 1)
	q.step()
	r.checkProbe(q, s.st.mix.Mirror())
	r.putQueryLayers(q)
	return r.traceLayers(img, s.st, w, 1, twin)
}

// serveSidecar measures the service layers on a traced library run's own
// scenario: a short open-loop service window at a rate the scenario
// sustains.
func (r *run) serveSidecar() error {
	s, err := r.startSession(r.workload, r.p.SidecarSeconds, r.p.SidecarRate, r.p.QueryRate, queueDepth, 1)
	if err != nil {
		return err
	}
	err = r.openLoop(s, r.p.SidecarRate, nil, nil)
	if cerr := s.svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.putServerLayers(s)
	return nil
}
