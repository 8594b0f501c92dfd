package session

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

func testConfig(par int) core.Config {
	return core.Config{N: 64, Phi: 0.6, Seed: 17, Parallelism: par}
}

// feed steps k churn batches (plus a warm query batch each, so the label
// cache rides the checkpoints) through every session in lockstep.
func feed(t *testing.T, mix *workload.QueryMix, k int, ss ...*Session) {
	t.Helper()
	for i := 0; i < k; i++ {
		b := mix.Next(ss[0].DC().MaxBatch())
		pairs := toPairs(mix.NextQueries(16))
		for _, s := range ss {
			if err := s.Admit(b); err != nil {
				t.Fatal(err)
			}
			if err := s.Apply(b); err != nil {
				t.Fatal(err)
			}
			s.DC().ConnectedAll(pairs)
		}
	}
}

func toPairs(raw [][2]int) []core.Pair {
	out := make([]core.Pair, len(raw))
	for i, q := range raw {
		out[i] = core.Pair{U: q[0], V: q[1]}
	}
	return out
}

// requireSame fails unless two sessions hold bit-identical state: Stats,
// components, forest, mirror, and the batch counter.
func requireSame(t *testing.T, ctx string, want, got *Session) {
	t.Helper()
	if !reflect.DeepEqual(want.DC().Cluster().Stats(), got.DC().Cluster().Stats()) {
		t.Fatalf("%s: Stats differ:\n  want %+v\n  got  %+v", ctx, want.DC().Cluster().Stats(), got.DC().Cluster().Stats())
	}
	if !reflect.DeepEqual(want.DC().SnapshotComponents(), got.DC().SnapshotComponents()) {
		t.Fatalf("%s: components differ", ctx)
	}
	if !reflect.DeepEqual(want.DC().SnapshotForest(), got.DC().SnapshotForest()) {
		t.Fatalf("%s: forest differs", ctx)
	}
	if !reflect.DeepEqual(sortedEdges(want.Mirror()), sortedEdges(got.Mirror())) {
		t.Fatalf("%s: mirrors differ", ctx)
	}
	if want.Applied() != got.Applied() {
		t.Fatalf("%s: applied %d, want %d", ctx, got.Applied(), want.Applied())
	}
}

func sortedEdges(g *graph.Graph) []graph.WeightedEdge {
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// TestChainRoundTripBitIdentical checkpoints a live session into an on-disk
// chain (a full base, then deltas), resumes it, and continues both in
// lockstep: the resumed session must stay bit-identical to the
// uninterrupted one at parallelism 1 and 8.
func TestChainRoundTripBitIdentical(t *testing.T) {
	for _, par := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "inst.snap")
		live, err := New(testConfig(par))
		if err != nil {
			t.Fatal(err)
		}
		mix := workload.NewQueryMix(workload.NewChurn(workload.Config{N: 64, Seed: 18, InsertBias: 0.6}), 64, 19)
		chain := snapshot.OpenChain(path, 8)
		feed(t, mix, 4, live)
		for k := 0; k < 4; k++ {
			kind, _, err := chain.Checkpoint(live)
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]string{true: snapshot.KindFull, false: snapshot.KindDelta}[k == 0]; kind != want {
				t.Fatalf("par %d: checkpoint %d is %s, want %s", par, k, kind, want)
			}
			feed(t, mix, 2, live)
		}
		// The last two batches are past the tip: the live session runs ahead
		// until the resumed one catches up on the same batches.
		resumed, rchain, err := Resume(path, 8, par)
		if err != nil {
			t.Fatal(err)
		}
		if rchain.Len() != 3 {
			t.Fatalf("par %d: resumed chain length %d, want 3", par, rchain.Len())
		}
		if got := resumed.RestoreCycles(); got != 1 {
			t.Errorf("par %d: restore cycles %d, want 1", par, got)
		}
		if got, want := resumed.Applied(), live.Applied()-2; got != want {
			t.Fatalf("par %d: resumed at %d applied batches, want %d", par, got, want)
		}

		twin, err := New(testConfig(par))
		if err != nil {
			t.Fatal(err)
		}
		mix2 := workload.NewQueryMix(workload.NewChurn(workload.Config{N: 64, Seed: 18, InsertBias: 0.6}), 64, 19)
		feed(t, mix2, 4+4*2-2, twin)
		requireSame(t, "resumed vs twin at the tip", twin, resumed)
		feed(t, mix2, 2, twin, resumed)
		requireSame(t, "resumed vs live after catching up", live, resumed)
		feed(t, mix, 3, live, resumed)
		requireSame(t, "resumed vs live after continuing", live, resumed)
	}
}

// TestResumeEmpty pins the fresh-start contract: no base, no session, and
// a chain ready for its first full checkpoint.
func TestResumeEmpty(t *testing.T) {
	s, chain, err := Resume(filepath.Join(t.TempDir(), "none.snap"), 4, 1)
	if err != nil || s != nil || chain == nil {
		t.Fatalf("Resume of an empty path = (%v, %v, %v), want (nil, chain, nil)", s, chain, err)
	}
}

// saveBase writes s as a full base container.
func saveBase(t *testing.T, s *Session) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	id, err := snapshot.SaveBase(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), id
}

// TestRestoreRejects feeds mismatched and malformed containers to a
// restoring session: each must fail with a diagnostic, never panic.
func TestRestoreRejects(t *testing.T) {
	src, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.NewQueryMix(workload.NewChurn(workload.Config{N: 64, Seed: 18, InsertBias: 0.6}), 64, 19)
	feed(t, mix, 3, src)
	base, baseID := saveBase(t, src)

	// Malformed echoes in a full base: caught before anything is sized.
	for name, mut := range map[string]func(s *Session){
		"n<2":           func(s *Session) { s.cfg.N = 1 },
		"phi=0":         func(s *Session) { s.cfg.Phi = 0 },
		"phi>1":         func(s *Session) { s.cfg.Phi = 1.5 },
		"phi=NaN":       func(s *Session) { s.cfg.Phi = math.NaN() },
		"vpm<0":         func(s *Session) { s.cfg.VerticesPerMachine = -1 },
		"vpm>n":         func(s *Session) { s.cfg.VerticesPerMachine = 65 },
		"applied<0":     func(s *Session) { s.applied = -1 },
		"n out of 2^31": func(s *Session) { s.cfg.N = 1<<31 + 1 },
	} {
		bad := *src
		mut(&bad)
		img, _ := saveBase(t, &bad)
		if _, err := snapshot.LoadBase(bytes.NewReader(img), &Session{}); err == nil {
			t.Errorf("%s: malformed base accepted", name)
		}
	}

	// Deltas whose echo disagrees with the restored base.
	for name, mut := range map[string]func(s *Session){
		"n mismatch":        func(s *Session) { s.cfg.N = 32 },
		"phi mismatch":      func(s *Session) { s.cfg.Phi = 0.5 },
		"seed mismatch":     func(s *Session) { s.cfg.Seed++ },
		"shape mismatch":    func(s *Session) { s.cfg.VerticesPerMachine = 8 },
		"applied backwards": func(s *Session) { s.applied-- },
		"malformed phi":     func(s *Session) { s.cfg.Phi = -1 },
	} {
		bad := *src
		mut(&bad)
		var buf bytes.Buffer
		link := snapshot.ChainLink{Base: baseID, Prev: baseID, Seq: 1}
		if _, err := snapshot.SaveDelta(&buf, link, &bad); err != nil {
			t.Fatal(err)
		}
		dst := &Session{}
		if _, err := snapshot.LoadBase(bytes.NewReader(base), dst); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.LoadDelta(bytes.NewReader(buf.Bytes()), link, dst); err == nil {
			t.Errorf("%s: delta accepted", name)
		}
	}

	// A delta with no base restored underneath it.
	var buf bytes.Buffer
	link := snapshot.ChainLink{Base: baseID, Prev: baseID, Seq: 1}
	if _, err := snapshot.SaveDelta(&buf, link, src); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.LoadDelta(bytes.NewReader(buf.Bytes()), link, &Session{}); err == nil {
		t.Error("delta accepted without a base")
	}
}

// TestResize pins the migration and its two refusal classes: a count no
// partition realizes (not over budget), and a shrink whose state overflows
// the target's per-machine budget (over budget). Refusals leave the session
// serving at its old shape; a successful resize persists its shape.
func TestResize(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.NewQueryMix(workload.NewChurn(workload.Config{N: 64, Seed: 18, InsertBias: 0.6}), 64, 19)
	feed(t, mix, 3, s)
	was := s.DC().Config().MachineCount()
	var re *ResizeError
	if err := s.Resize(10); !errors.As(err, &re) || re.OverBudget || !strings.Contains(err.Error(), "nearest realizable") {
		t.Fatalf("unrealizable resize: %v, want a *ResizeError that is not over budget", err)
	}
	if got := s.DC().Config().MachineCount(); got != was {
		t.Fatalf("refused resize moved the fleet %d -> %d", was, got)
	}

	before := s.DC().SnapshotComponents()
	if err := s.Resize(9); err != nil {
		t.Fatal(err)
	}
	if got := s.DC().Config().MachineCount(); got != 9 || s.Config().VerticesPerMachine != 8 {
		t.Fatalf("resize to 9: %d machines at VerticesPerMachine=%d", got, s.Config().VerticesPerMachine)
	}
	if !reflect.DeepEqual(before, s.DC().SnapshotComponents()) {
		t.Fatal("resize changed the components")
	}
	path := filepath.Join(t.TempDir(), "inst.snap")
	if _, _, err := snapshot.OpenChain(path, 4).Checkpoint(s); err != nil {
		t.Fatal(err)
	}
	r, _, err := Resume(path, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.DC().Config().MachineCount(); got != 9 {
		t.Fatalf("resumed at %d machines, want the persisted 9", got)
	}

	// Over budget: a star with its full label cache warm does not fit one
	// vertex per machine at a single sketch copy.
	const hn = 64
	heavy, err := New(core.Config{N: hn, Phi: 0.6, SketchCopies: 1, Seed: 23, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var star graph.Batch
	warm := make([]core.Pair, 0, hn-1)
	for v := 1; v < hn; v++ {
		star = append(star, graph.Ins(0, v))
		warm = append(warm, core.Pair{U: 0, V: v})
	}
	if err := heavy.Admit(star); err != nil {
		t.Fatal(err)
	}
	if err := heavy.Apply(star); err != nil {
		t.Fatal(err)
	}
	heavy.DC().ConnectedAll(warm)
	was = heavy.DC().Config().MachineCount()
	if err := heavy.Resize(hn + 1); !errors.As(err, &re) || !re.OverBudget || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("cap-violating shrink: %v, want an over-budget *ResizeError", err)
	}
	if got := heavy.DC().Config().MachineCount(); got != was {
		t.Fatalf("refused shrink moved the fleet %d -> %d", was, got)
	}
	if !heavy.DC().Connected(0, hn-1) {
		t.Fatal("star answers wrong after a refused shrink")
	}
}

// TestAdmitApply pins the admission contract: an invalid batch leaves the
// mirror and journal untouched, and Apply feeds a batch larger than
// MaxBatch in chunks while counting it once.
func TestAdmitApply(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Attach a chain so admitted updates are journaled.
	if _, _, err := snapshot.OpenChain(filepath.Join(t.TempDir(), "s.snap"), 4).Checkpoint(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(graph.Batch{graph.Ins(2, 3), graph.Del(2, 3)}); err == nil {
		t.Fatal("batch touching an edge twice admitted")
	}
	if s.Mirror().M() != 0 || len(s.journal) != 0 {
		t.Fatal("refused batch changed the mirror or the journal")
	}
	var b graph.Batch
	for v := 1; len(b) <= s.DC().MaxBatch(); v++ {
		b = append(b, graph.Ins(0, v))
	}
	if err := s.Admit(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	if s.Applied() != 1 || s.DC().NumComponents() != 64-len(b) || len(s.journal) != len(b) {
		t.Fatalf("applied=%d components=%d journal=%d after one oversized batch", s.Applied(), s.DC().NumComponents(), len(s.journal))
	}
}

// TestJournalOnlyWithChain: a session no checkpoint chain touches keeps no
// journal however much it admits; once a chain acknowledges a checkpoint
// (or restores the session) it journals until the next acknowledgement.
func TestJournalOnlyWithChain(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		u, v := i%64, (i+1+i/64)%64
		if u == v {
			v = (v + 1) % 64
		}
		op := graph.Ins(u, v)
		if s.Mirror().Has(u, v) {
			op = graph.Del(u, v)
		}
		if err := s.Admit(graph.Batch{op}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if len(s.journal) != 0 || cap(s.journal) != 0 {
		t.Fatalf("1000 admits without a chain left a journal of %d updates (cap %d)", len(s.journal), cap(s.journal))
	}
	path := filepath.Join(t.TempDir(), "s.snap")
	chain := snapshot.OpenChain(path, 4)
	if kind, _, err := chain.Checkpoint(s); err != nil || kind != snapshot.KindFull {
		t.Fatalf("first checkpoint: kind %q, err %v", kind, err)
	}
	var b graph.Batch
	for v := 1; len(b) < 2; v++ {
		if !s.Mirror().Has(0, v) {
			b = append(b, graph.Ins(0, v))
		}
	}
	if err := s.Admit(b); err != nil {
		t.Fatal(err)
	}
	if len(s.journal) != len(b) {
		t.Fatalf("journal holds %d updates after attaching a chain, want %d", len(s.journal), len(b))
	}
	if kind, _, err := chain.Checkpoint(s); err != nil || kind != snapshot.KindDelta {
		t.Fatalf("second checkpoint: kind %q, err %v", kind, err)
	}
	if len(s.journal) != 0 {
		t.Fatalf("journal holds %d updates after an acknowledged delta", len(s.journal))
	}
	r, _, err := Resume(path, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mirror().Has(0, b[1].Edge.V) || r.Mirror().M() != s.Mirror().M() {
		t.Fatal("the delta did not carry the journaled updates")
	}
	if err := r.Admit(graph.Batch{graph.Del(0, b[0].Edge.V)}); err != nil {
		t.Fatal(err)
	}
	if len(r.journal) != 1 {
		t.Fatalf("a resumed session journals %d updates, want 1", len(r.journal))
	}
}

func TestValidateBatch(t *testing.T) {
	g := graph.New(8)
	if err := g.Insert(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	ok := graph.Batch{graph.Ins(2, 3), graph.Del(0, 1)}
	if err := validateBatch(g, ok); err != nil {
		t.Errorf("valid batch refused: %v", err)
	}
	for name, b := range map[string]graph.Batch{
		"dup insert":    {graph.Ins(0, 1)},
		"absent delete": {graph.Del(4, 5)},
		"touch twice":   {graph.Ins(2, 3), graph.Del(2, 3)},
		"out of range":  {{Op: graph.Insert, Edge: graph.Edge{U: 0, V: 99}}},
		"negative":      {{Op: graph.Insert, Edge: graph.Edge{U: -1, V: 2}}},
	} {
		if err := validateBatch(g, b); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
	}
	// validateBatch never mutates the graph.
	if g.M() != 1 {
		t.Errorf("validation mutated the graph: M = %d", g.M())
	}
}
