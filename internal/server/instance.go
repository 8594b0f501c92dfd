package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// latencyBuckets are the upper bounds, in seconds, of the batch-apply
// latency histogram (one overflow bucket is added for +Inf).
var latencyBuckets = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// Admission errors the HTTP layer maps onto status codes.
var (
	errQueueFull = errors.New("update queue full")
	errDraining  = errors.New("instance is draining (server shutting down)")
)

// badBatchError marks a batch the admission validator refused; the HTTP
// layer reports it as 422 rather than 500.
type badBatchError struct{ err error }

func (e *badBatchError) Error() string { return e.err.Error() }
func (e *badBatchError) Unwrap() error { return e.err }

// instance is one independently served graph: a durable session (engine,
// admission mirror, journal, checkpoint state) behind the
// single-writer/many-reader lock, a bounded update queue drained by one
// applier goroutine, and the instance's metrics. The session admits every
// batch against its mirror before it is queued, so queued batches are valid
// by construction.
type instance struct {
	id  int
	cfg core.Config

	// sess is the instance's durable state. Its admission half (Admit: the
	// mirror and the journal) is guarded by adm, its engine half (Apply) by
	// mu; checkpoints and resizes hold both.
	sess *session.Session

	// adm serializes admission: the mirror check, the mirror apply, and the
	// enqueue happen atomically, so the queue always holds batches that are
	// valid in queue order and the len(queue) capacity check cannot race
	// (only the applier removes elements).
	adm       sync.Mutex
	accepting bool
	queue     chan graph.Batch

	// chain is the on-disk checkpoint chain (nil when checkpointing is off).
	// Only the quiesced checkpoint path touches it.
	chain *snapshot.Chain

	// pending counts batches enqueued but not yet fully applied; the
	// quiesced checkpoint path waits on it (with admission locked) so the
	// mirror and the cluster state agree when the checkpoint is cut.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pending  int

	// mu is the instance's single-writer/many-reader contract lock: the
	// applier applies batches under Lock, handlers answer queries under
	// RLock (see the core query engine's concurrency contract). dc mirrors
	// the session's engine in an atomic pointer because an elastic resize
	// swaps in a fresh fleet (holding both adm and mu) while lock-free
	// paths — MaxBatch sizing in admission, metric scrapes — read it
	// concurrently.
	mu sync.RWMutex
	dc atomic.Pointer[core.DynamicConnectivity]

	// quiesced is true while admission is deliberately paused (a quiesced
	// checkpoint or a resize); per-instance readiness reports 503 for its
	// duration so load balancers steer around the pause.
	quiesced atomic.Bool

	wg      sync.WaitGroup
	failure atomic.Pointer[applyFailure]

	// Metrics, all atomics so /metrics scrapes never take the locks.
	batchesApplied  atomic.Uint64
	updatesApplied  atomic.Uint64
	batchesRejected atomic.Uint64
	queryBatches    atomic.Uint64
	rounds          atomic.Int64
	applyNanos      atomic.Int64
	applyCount      atomic.Uint64
	applyBuckets    [len(latencyBuckets) + 1]atomic.Uint64
	// drainEWMA tracks the smoothed per-batch apply time (nanoseconds); the
	// 429 path scales its Retry-After hint by it so clients back off in
	// proportion to how fast the queue actually drains.
	drainEWMA atomic.Int64
	// Elastic resize metrics.
	reshardCount atomic.Uint64
	reshardNanos atomic.Int64
	// Checkpoint metrics, split by container kind (full vs delta).
	ckptFullCount  atomic.Uint64
	ckptFullBytes  atomic.Uint64
	ckptFullNanos  atomic.Int64
	ckptDeltaCount atomic.Uint64
	ckptDeltaBytes atomic.Uint64
	ckptDeltaNanos atomic.Int64
}

// applyFailure records the first applier error; the instance refuses all
// traffic afterwards (its state may be mid-batch).
type applyFailure struct{ err error }

// newInstance builds an instance over a fresh session and starts its
// applier.
func newInstance(id int, cfg core.Config, queueDepth int) (*instance, error) {
	sess, err := session.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: instance %d: %w", id, err)
	}
	return startInstance(id, cfg, sess, nil, queueDepth), nil
}

// openInstance resumes instance id from its checkpoint chain under dir, or
// starts it fresh when the chain has no base. A restored session must echo
// the instance's configured N, Phi and Seed.
func openInstance(id int, cfg core.Config, dir string, maxDeltas, queueDepth int) (*instance, error) {
	path := instancePath(dir, id)
	sess, chain, err := session.Resume(path, maxDeltas, cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("server: restore instance %d from %s: %w", id, path, err)
	}
	if sess == nil {
		if sess, err = session.New(cfg); err != nil {
			return nil, fmt.Errorf("server: instance %d: %w", id, err)
		}
	} else if got := sess.Config(); got.N != cfg.N || got.Phi != cfg.Phi || got.Seed != cfg.Seed {
		return nil, fmt.Errorf("server: restore instance %d from %s: server: snapshot holds (n=%d, phi=%v, seed=%d), instance %d is configured (n=%d, phi=%v, seed=%d)",
			id, path, got.N, got.Phi, got.Seed, id, cfg.N, cfg.Phi, cfg.Seed)
	}
	return startInstance(id, cfg, sess, chain, queueDepth), nil
}

// startInstance wraps sess and starts the applier.
func startInstance(id int, cfg core.Config, sess *session.Session, chain *snapshot.Chain, queueDepth int) *instance {
	in := &instance{
		id:        id,
		cfg:       cfg,
		sess:      sess,
		accepting: true,
		queue:     make(chan graph.Batch, queueDepth),
		chain:     chain,
	}
	in.dc.Store(sess.DC())
	in.pendCond = sync.NewCond(&in.pendMu)
	in.wg.Add(1)
	go in.applier()
	return in
}

// applier is the instance's single writer: it drains the queue and applies
// each batch under the exclusive lock. Admission already validated every
// queued batch against the mirror, so an apply error here means corrupted
// state — the instance is marked failed and refuses traffic, but the loop
// keeps draining so shutdown never hangs.
func (in *instance) applier() {
	defer in.wg.Done()
	for b := range in.queue {
		start := time.Now()
		in.mu.Lock()
		err := in.sess.Apply(b)
		rounds := in.sess.DC().Cluster().Stats().Rounds
		in.mu.Unlock()
		in.observeApply(time.Since(start))
		in.rounds.Store(int64(rounds))
		if err != nil {
			in.failure.CompareAndSwap(nil, &applyFailure{err: err})
		} else {
			in.batchesApplied.Add(1)
			in.updatesApplied.Add(uint64(len(b)))
		}
		in.pendMu.Lock()
		in.pending--
		in.pendMu.Unlock()
		in.pendCond.Broadcast()
	}
}

// observeApply records one batch-apply latency sample and folds it into the
// drain-rate estimate (an EWMA with a 1/8 step).
func (in *instance) observeApply(d time.Duration) {
	in.applyNanos.Add(int64(d))
	in.applyCount.Add(1)
	if ew := in.drainEWMA.Load(); ew == 0 {
		in.drainEWMA.Store(int64(d))
	} else {
		in.drainEWMA.Store((7*ew + int64(d)) / 8)
	}
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			in.applyBuckets[i].Add(1)
			return
		}
	}
	in.applyBuckets[len(latencyBuckets)].Add(1)
}

// retryAfterSeconds estimates, from the drain-rate EWMA and the current
// queue depth, how long a 429'd client should wait before the queue has
// room — clamped to [1, 30] seconds, and 1 before any batch has been
// applied (no estimate yet).
func (in *instance) retryAfterSeconds() int {
	ew := in.drainEWMA.Load()
	if ew <= 0 {
		return 1
	}
	wait := time.Duration(ew) * time.Duration(len(in.queue)+1)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// machines is the instance's current fleet size (changes on resize).
func (in *instance) machines() int {
	return in.dc.Load().Config().MachineCount()
}

// failed returns the instance's terminal error, if any.
func (in *instance) failed() error {
	if f := in.failure.Load(); f != nil {
		return fmt.Errorf("instance %d failed: %w", in.id, f.err)
	}
	return nil
}

// offer admits b into the session and enqueues it for the applier. It
// returns errQueueFull (backpressure: the caller retries), errDraining
// (shutdown), a *badBatchError (the batch is invalid against the current
// graph), or nil on a successful enqueue.
func (in *instance) offer(b graph.Batch) error {
	if err := in.failed(); err != nil {
		return err
	}
	in.adm.Lock()
	defer in.adm.Unlock()
	if !in.accepting {
		return errDraining
	}
	if len(in.queue) == cap(in.queue) {
		in.batchesRejected.Add(1)
		return errQueueFull
	}
	if err := in.sess.Admit(b); err != nil {
		return &badBatchError{err}
	}
	// Count the batch pending before the applier can see it, so pending
	// never dips below the number of batches not yet applied.
	in.pendMu.Lock()
	in.pending++
	in.pendMu.Unlock()
	in.queue <- b
	return nil
}

// waitIdle blocks until every enqueued batch has been applied. The caller
// must hold adm (so no new batch can be admitted while waiting); it must NOT
// hold mu, which the applier needs to make progress.
func (in *instance) waitIdle() {
	in.pendMu.Lock()
	for in.pending > 0 {
		in.pendCond.Wait()
	}
	in.pendMu.Unlock()
}

// drain stops admission (new offers get errDraining) and waits until every
// queued batch has been applied. Idempotent.
func (in *instance) drain() {
	in.adm.Lock()
	if in.accepting {
		in.accepting = false
		close(in.queue)
	}
	in.adm.Unlock()
	in.wg.Wait()
}

// instancePath is the snapshot file of instance id under dir.
func instancePath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("instance-%03d.snap", id))
}

// quiesce pauses the instance for exclusive access to its session:
// admission is held, readiness reports 503, every enqueued batch is
// applied, and the write lock is taken. It returns the instance's terminal
// error instead when the instance has failed. The returned func resumes
// serving.
func (in *instance) quiesce() (func(), error) {
	in.adm.Lock()
	in.quiesced.Store(true)
	in.waitIdle()
	if err := in.failed(); err != nil {
		in.quiesced.Store(false)
		in.adm.Unlock()
		return nil, err
	}
	in.mu.Lock()
	return func() {
		in.mu.Unlock()
		in.quiesced.Store(false)
		in.adm.Unlock()
	}, nil
}

// checkpointQuiesced cuts a checkpoint (full or delta, the chain decides)
// with the instance quiesced but still live: admission is held and the
// applier drained of in-flight batches, so the mirror, the journal, and the
// cluster state agree, but the instance resumes serving as soon as the
// checkpoint is cut. No-op when checkpointing is off (nil chain).
func (in *instance) checkpointQuiesced() error {
	if in.chain == nil {
		return nil
	}
	resume, err := in.quiesce()
	if err != nil {
		return fmt.Errorf("skipping checkpoint: %w", err)
	}
	defer resume()
	return in.checkpoint()
}

// checkpoint writes the chain's next container and records it in the
// metrics by kind. A write failure marks the instance failed. The caller
// holds the instance quiesced.
func (in *instance) checkpoint() error {
	start := time.Now()
	kind, bytes, err := in.chain.Checkpoint(in.sess)
	nanos := int64(time.Since(start))
	if err != nil {
		in.failure.CompareAndSwap(nil, &applyFailure{err: fmt.Errorf("checkpoint: %w", err)})
		return fmt.Errorf("instance %d checkpoint: %w", in.id, err)
	}
	switch kind {
	case snapshot.KindDelta:
		in.ckptDeltaCount.Add(1)
		in.ckptDeltaBytes.Add(uint64(bytes))
		in.ckptDeltaNanos.Add(nanos)
	default:
		in.ckptFullCount.Add(1)
		in.ckptFullBytes.Add(uint64(bytes))
		in.ckptFullNanos.Add(nanos)
	}
	return nil
}

// resize migrates the instance onto a fleet of exactly machines machines
// (session.Resize) while quiesced. A refused resize — a *session.ResizeError
// — leaves the instance serving at its old shape. On success the on-disk
// chain (if any) is re-based with a full checkpoint at the new shape, so a
// restart resumes there and no delta ever extends old-shape containers.
func (in *instance) resize(machines int) error {
	resume, err := in.quiesce()
	if err != nil {
		return err
	}
	defer resume()
	start := time.Now()
	if err := in.sess.Resize(machines); err != nil {
		return fmt.Errorf("instance %d resize to %d machines: %w", in.id, machines, err)
	}
	in.dc.Store(in.sess.DC())
	in.reshardCount.Add(1)
	in.reshardNanos.Add(int64(time.Since(start)))
	if in.chain == nil {
		return nil
	}
	in.chain.Rebase()
	return in.checkpoint() // always full after Rebase
}
