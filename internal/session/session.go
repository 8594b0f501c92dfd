// Package session is the one durable-instance lifecycle of the repository:
// a dynamic-connectivity engine plus everything needed to checkpoint it,
// restore it, and migrate it onto a different machine count. Both front
// ends drive the same Session — mpcserve (internal/server) wraps each served
// instance around one, adding only its concurrency and metrics, and
// mpcstream replays its generated, text and binary-trace streams through
// one — so an instance checkpoint has one layout wherever it is written.
//
// A Session owns:
//
//   - the core.DynamicConnectivity engine;
//   - the admission mirror, a plain graph that every admitted batch is
//     validated against before it reaches the engine;
//   - the update journal: every update admitted since the last acknowledged
//     checkpoint, which is what a delta checkpoint ships instead of the
//     whole mirror. Only a checkpoint chain writes deltas, and a chain's
//     first container is always a full base, so the session journals only
//     once a chain is attached — once a chain has restored it or
//     acknowledged one of its checkpoints. A session no chain ever touches
//     (mpcserve without -checkpoint-dir) keeps no journal;
//   - the config echo (N, Phi, Seed and the live VerticesPerMachine), the
//     applied-batch counter and the restore-cycle counter.
//
// # Snapshot layout
//
// A Session is a snapshot.DeltaState. Its sections precede the engine's:
//
//	full   tagMeta (echo), tagMirror (mirror edge set), engine sections
//	delta  tagMetaDelta (echo), tagJournal (update journal), engine delta sections
//
// The echo is n, phi, seed, VerticesPerMachine, applied batches and restore
// cycles. It is sanity-checked (n in [2, 2^31], phi in (0, 1],
// VerticesPerMachine in [0, n], applied >= 0) before anything is sized from
// it, so a malformed snapshot is a diagnostic, never a make() panic. A
// delta's echo must also match the restored base — same n, phi, seed and
// shape, applied never going backwards — because deltas never span a
// resize: every resize re-bases the chain with a full checkpoint.
package session

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Section tags of the session layer of an instance snapshot.
const (
	tagMeta      = 0x50
	tagMirror    = 0x51
	tagMetaDelta = 0x52
	tagJournal   = 0x53
)

// Session is one durable dynamic-connectivity instance. It is not safe for
// concurrent use on its own: Admit touches only the mirror and the journal,
// Apply only the engine and the applied counter, so a caller may run the
// two under separate locks, but a checkpoint or Resize needs both.
type Session struct {
	// cfg is the live engine configuration; VerticesPerMachine follows
	// every Resize and restore, so it is the shape the echo persists.
	cfg           core.Config
	dc            *core.DynamicConnectivity
	mirror        *graph.Graph
	journal       graph.Batch
	journaling    bool // a chain is attached: see the package comment
	applied       int
	restoreCycles uint64
}

// New starts an empty session over a fresh engine built from cfg.
func New(cfg core.Config) (*Session, error) {
	dc, err := core.NewDynamicConnectivity(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, dc: dc, mirror: graph.New(cfg.N)}, nil
}

// Resume reopens the checkpoint chain rooted at path: stale temp files of an
// interrupted checkpoint are swept, then the full base and every delta
// linked to it are restored into one engine built at the persisted shape.
// The engine runs at the given parallelism, which is not state. It returns
// a nil Session, with the chain ready for a first full checkpoint, when path
// holds no base.
func Resume(path string, maxDeltas, parallelism int) (*Session, *snapshot.Chain, error) {
	if _, err := snapshot.SweepStaleTemps(path); err != nil {
		return nil, nil, err
	}
	chain := snapshot.OpenChain(path, maxDeltas)
	s := &Session{cfg: core.Config{Parallelism: parallelism}}
	ok, err := chain.Restore(s)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, chain, nil
	}
	return s, chain, nil
}

// DC returns the live engine. Resize replaces it.
func (s *Session) DC() *core.DynamicConnectivity { return s.dc }

// Mirror returns the admission mirror: the graph of every admitted update.
func (s *Session) Mirror() *graph.Graph { return s.mirror }

// Config returns the live engine configuration, including the current
// VerticesPerMachine.
func (s *Session) Config() core.Config { return s.cfg }

// Applied counts the batches applied since the stream began, across
// checkpoint/restore cycles.
func (s *Session) Applied() int { return s.applied }

// RestoreCycles counts the checkpoint/restore cycles the session survived.
func (s *Session) RestoreCycles() uint64 { return s.restoreCycles }

// Admit validates b against the mirror as one atomic batch (see
// validateBatch), then applies it to the mirror and, while a checkpoint
// chain is attached, journals it. An invalid batch leaves the session
// unchanged.
func (s *Session) Admit(b graph.Batch) error {
	if err := validateBatch(s.mirror, b); err != nil {
		return err
	}
	if err := s.mirror.Apply(b); err != nil {
		// Unreachable after validateBatch; fail loudly rather than desync.
		return fmt.Errorf("session: admission mirror diverged: %w", err)
	}
	if s.journaling {
		s.journal = append(s.journal, b...)
	}
	return nil
}

// Apply feeds one admitted batch to the engine in chunks of at most
// MaxBatch updates and counts it as one applied batch.
func (s *Session) Apply(b graph.Batch) error {
	for len(b) > 0 {
		k := min(s.dc.MaxBatch(), len(b))
		if err := s.dc.ApplyBatch(b[:k]); err != nil {
			return err
		}
		b = b[k:]
	}
	s.applied++
	return nil
}

// ResizeError is a Resize refused with the session untouched. OverBudget
// tells the two causes apart: false when no equal-range partition realizes
// the requested machine count, true when the migrated state does not fit
// the target fleet's per-machine memory budget.
type ResizeError struct {
	OverBudget bool
	Err        error
}

func (e *ResizeError) Error() string { return e.Err.Error() }
func (e *ResizeError) Unwrap() error { return e.Err }

// Resize migrates the engine onto a fleet of exactly machines machines: the
// live state is checkpointed in memory and re-shard-restored into a fresh
// engine at the target shape, which then replaces the old one. On any
// error the session keeps serving at its old shape. A caller holding a
// checkpoint chain must Rebase it afterwards: its links describe the old
// shape.
func (s *Session) Resize(machines int) error {
	tcfg, err := core.ResizeConfig(s.cfg, machines)
	if err != nil {
		return &ResizeError{Err: err}
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, s.dc); err != nil {
		return fmt.Errorf("session: resize checkpoint: %w", err)
	}
	fresh, err := core.NewDynamicConnectivity(tcfg)
	if err != nil {
		return err
	}
	if err := snapshot.Reshard(bytes.NewReader(buf.Bytes()), fresh); err != nil {
		return &ResizeError{OverBudget: true, Err: err}
	}
	s.dc, s.cfg = fresh, tcfg
	return nil
}

// meta is the decoded config echo of one container.
type meta struct {
	n       int
	phi     float64
	seed    uint64
	vpm     int
	applied int
	cycles  uint64
}

// writeMeta opens section tag with the session's config echo.
func (s *Session) writeMeta(e *snapshot.Encoder, tag uint64) {
	e.Begin(tag)
	e.Int(s.cfg.N)
	e.F64(s.cfg.Phi)
	e.U64(s.cfg.Seed)
	e.Int(s.cfg.VerticesPerMachine)
	e.Int(s.applied)
	e.U64(s.restoreCycles)
}

// readMeta decodes the config echo of section tag and sanity-checks it
// before anything is sized from it.
func readMeta(d *snapshot.Decoder, tag uint64) (meta, error) {
	d.Begin(tag)
	m := meta{n: d.Int(), phi: d.F64(), seed: d.U64(), vpm: d.Int(), applied: d.Int(), cycles: d.U64()}
	if err := d.Err(); err != nil {
		return m, err
	}
	switch {
	case m.n < 2 || m.n > 1<<31:
		return m, fmt.Errorf("session: snapshot declares %d vertices (want 2..2^31)", m.n)
	case !(m.phi > 0 && m.phi <= 1):
		return m, fmt.Errorf("session: snapshot declares Phi=%v (want (0,1])", m.phi)
	case m.vpm < 0 || m.vpm > m.n:
		return m, fmt.Errorf("session: snapshot declares VerticesPerMachine=%d (want 0..%d)", m.vpm, m.n)
	case m.applied < 0:
		return m, fmt.Errorf("session: snapshot declares %d applied batches (want >= 0)", m.applied)
	}
	return m, nil
}

// Checkpoint implements snapshot.Checkpointer. The caller must hold the
// session exclusively: no admission or apply in flight.
func (s *Session) Checkpoint(e *snapshot.Encoder) {
	s.writeMeta(e, tagMeta)
	e.Begin(tagMirror)
	snapshot.EncodeGraph(e, s.mirror)
	s.dc.Checkpoint(e)
}

// Restore implements snapshot.Restorer: the echo is the configuration
// source, so the mirror and exactly one engine are built at the persisted
// shape. Fields the echo does not carry (Parallelism, SketchCopies, Strict)
// keep the session's current values. The restore-cycle counter is bumped.
func (s *Session) Restore(d *snapshot.Decoder) error {
	m, err := readMeta(d, tagMeta)
	if err != nil {
		return err
	}
	cfg := s.cfg
	cfg.N, cfg.Phi, cfg.Seed, cfg.VerticesPerMachine = m.n, m.phi, m.seed, m.vpm
	d.Begin(tagMirror)
	mirror := graph.New(m.n)
	if err := snapshot.DecodeGraphInto(d, mirror); err != nil {
		return err
	}
	dc, err := core.NewDynamicConnectivity(cfg)
	if err != nil {
		return err
	}
	if err := dc.Restore(d); err != nil {
		return err
	}
	s.cfg, s.dc, s.mirror, s.journal, s.journaling = cfg, dc, mirror, nil, true
	s.applied, s.restoreCycles = m.applied, m.cycles+1
	return nil
}

// CheckpointDelta implements snapshot.DeltaCheckpointer: the echo is
// repeated in full (it is tiny and keeps every container self-validating),
// the mirror ships only as the journal. Same exclusivity as Checkpoint.
func (s *Session) CheckpointDelta(e *snapshot.Encoder) {
	s.writeMeta(e, tagMetaDelta)
	e.Begin(tagJournal)
	snapshot.EncodeUpdates(e, s.journal)
	s.dc.CheckpointDelta(e)
}

// RestoreDelta implements snapshot.DeltaRestorer: it replays one delta on
// top of the restored base (and earlier deltas). The tip delta's counters
// win, so deltas appended after a restart carry the post-restart count.
func (s *Session) RestoreDelta(d *snapshot.Decoder) error {
	if s.dc == nil {
		return errors.New("session: delta restored before its base")
	}
	m, err := readMeta(d, tagMetaDelta)
	if err != nil {
		return err
	}
	c := s.cfg
	if m.n != c.N || m.phi != c.Phi || m.seed != c.Seed {
		return fmt.Errorf("session: delta declares (n=%d, phi=%v, seed=%d), base restored (n=%d, phi=%v, seed=%d)",
			m.n, m.phi, m.seed, c.N, c.Phi, c.Seed)
	}
	if m.vpm != c.VerticesPerMachine {
		return fmt.Errorf("session: delta written at VerticesPerMachine=%d cannot extend a base restored at %d", m.vpm, c.VerticesPerMachine)
	}
	if m.applied < s.applied {
		return fmt.Errorf("session: delta says %d batches applied but the chain so far says %d: links out of order", m.applied, s.applied)
	}
	d.Begin(tagJournal)
	if err := snapshot.DecodeUpdatesInto(d, s.mirror); err != nil {
		return err
	}
	if err := s.dc.RestoreDelta(d); err != nil {
		return err
	}
	s.applied, s.restoreCycles = m.applied, m.cycles+1
	return nil
}

// AckCheckpoint implements snapshot.DeltaState: the chain calls it once the
// container is durably on disk, making the written state the new delta
// baseline. From then on the session journals its admitted updates.
func (s *Session) AckCheckpoint() {
	s.journal, s.journaling = nil, true
	s.dc.AckCheckpoint()
}

// validateBatch checks that b applies cleanly to g as one atomic batch:
// every vertex in range, no self-loops, each edge touched at most once (so
// sequential validity equals independent validity), inserts only of absent
// edges, deletes only of present ones.
func validateBatch(g *graph.Graph, b graph.Batch) error {
	touched := make(map[graph.Edge]bool, len(b))
	for i, up := range b {
		e := up.Edge.Canonical()
		if e.U == e.V {
			return fmt.Errorf("update %d: self-loop {%d,%d}", i, e.U, e.V)
		}
		if e.U < 0 || e.V >= g.N() {
			return fmt.Errorf("update %d: edge {%d,%d} outside vertex range [0,%d)", i, e.U, e.V, g.N())
		}
		if touched[e] {
			return fmt.Errorf("update %d: edge {%d,%d} touched twice in one batch", i, e.U, e.V)
		}
		touched[e] = true
		switch up.Op {
		case graph.Insert:
			if g.Has(e.U, e.V) {
				return fmt.Errorf("update %d: insert of present edge {%d,%d}", i, e.U, e.V)
			}
		case graph.Delete:
			if !g.Has(e.U, e.V) {
				return fmt.Errorf("update %d: delete of absent edge {%d,%d}", i, e.U, e.V)
			}
		default:
			return fmt.Errorf("update %d: unknown op %v", i, up.Op)
		}
	}
	return nil
}
