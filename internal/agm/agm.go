// Package agm implements the Ahn–Guha–McGregor sketch-based streaming
// connectivity algorithm as an MPC baseline (Section 2.1 and 4.1 of the
// paper). It maintains only the vertex sketches — no explicit spanning
// forest — so each update batch costs O(1) rounds, but answering a
// spanning-forest query requires O(log n) Borůvka rounds of distributed
// sketch merging. The paper's contribution (package core) removes exactly
// this query cost; experiment E3 measures the two against each other.
package agm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/sketch"
	"repro/internal/sketchcodec"
)

// Store slots.
const (
	slotShard = "agm"
	slotBcast = "b"
)

// shard is one machine's vertex range: the vertex sketches (one contiguous
// arena) and the transient query labels.
type shard struct {
	lo, hi int
	n      int
	arena  *sketch.Arena
	labels []int
}

// Words implements mpc.Sized.
func (s *shard) Words() int { return s.arena.Words() + len(s.labels) + 2 }

// Connectivity is the AGM baseline instance.
type Connectivity struct {
	n     int
	cl    *mpc.Cluster
	part  mpc.Partition
	coord int
	// copies[r] is the single-copy range [r, r+1) of the vertex sketches'
	// space: Borůvka round r reads copy r only, so it ships only that copy.
	copies []*sketch.Space
}

// Config parameterizes the baseline; it mirrors core.Config.
type Config struct {
	N                  int
	Phi                float64
	SketchCopies       int
	Seed               uint64
	Strict             bool
	VerticesPerMachine int
	// Parallelism is passed through to the cluster's execution engine
	// (see mpc.Config.Parallelism).
	Parallelism int
}

// New creates the baseline for an empty graph on cfg.N vertices.
func New(cfg Config) (*Connectivity, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("agm: N = %d", cfg.N)
	}
	if cfg.Phi <= 0 || cfg.Phi > 1 {
		return nil, fmt.Errorf("agm: Phi = %v", cfg.Phi)
	}
	vpm := cfg.VerticesPerMachine
	if vpm == 0 {
		vpm = ceilPow(cfg.N, cfg.Phi)
	}
	t := cfg.SketchCopies
	if t == 0 {
		t = 2*ceilLog2(cfg.N) + 8
	}
	prg := hash.NewPRG(cfg.Seed)
	space := sketch.NewGraphSpace(cfg.N, t, prg)
	m := (cfg.N+vpm-1)/vpm + 1
	cl := mpc.NewCluster(mpc.Config{
		Machines:    m,
		LocalMemory: vpm * (64 + space.SketchWords()),
		Strict:      cfg.Strict,
		Parallelism: cfg.Parallelism,
	})
	c := &Connectivity{
		n:     cfg.N,
		cl:    cl,
		part:  mpc.Partition{N: cfg.N, Machines: m - 1},
		coord: m - 1,
	}
	for r := 0; r < t; r++ {
		c.copies = append(c.copies, space.Range(r, r+1))
	}
	cl.LocalAll(func(mm *mpc.Machine) {
		if mm.ID == c.coord {
			return
		}
		lo, hi := c.part.Range(mm.ID)
		sh := &shard{lo: lo, hi: hi, n: cfg.N, arena: space.NewArena(hi - lo)}
		mm.Set(slotShard, sh)
	})
	return c, nil
}

// Cluster exposes the cluster for metering.
func (c *Connectivity) Cluster() *mpc.Cluster { return c.cl }

// batchPayload is the broadcast update batch.
type batchPayload struct{ b graph.Batch }

func (p batchPayload) Words() int { return 3 * len(p.b) }

// ApplyBatch updates the sketches for a batch of insertions and deletions:
// one broadcast, O(1) rounds — this is all the AGM baseline does per phase.
func (c *Connectivity) ApplyBatch(b graph.Batch) error {
	c.cl.Broadcast(c.coord, slotBcast, batchPayload{b: b})
	c.cl.LocalAll(func(mm *mpc.Machine) {
		sh, ok := mm.Get(slotShard).(*shard)
		if !ok {
			return
		}
		for _, u := range mm.Get(slotBcast).(batchPayload).b {
			e := u.Edge.Canonical()
			for _, v := range []int{e.U, e.V} {
				if v >= sh.lo && v < sh.hi {
					sh.arena.VertexAt(v-sh.lo, sh.n).ApplyEdge(v, e, u.Op)
				}
			}
		}
	})
	return nil
}

// QueryComponents extracts the connected components with the O(log n)-round
// Borůvka of Section 4.1: in each round, supernode sketches are merged by
// label, each supernode samples an outgoing edge from its round-r sketch
// copy, endpoint labels are resolved, and supernodes hook onto minimum
// neighbor labels. It returns the vertex labels (minimum vertex id per
// component) and the number of Borůvka rounds executed.
func (c *Connectivity) QueryComponents() ([]int, int) {
	labels, rounds, _ := c.query(false)
	return labels, rounds
}

// QuerySpanningForest additionally returns the forest edges assembled from
// the hooking edges of every Borůvka level (still O(log n) rounds).
func (c *Connectivity) QuerySpanningForest() ([]int, int, []graph.Edge) {
	return c.query(true)
}

// query runs the Borůvka extraction, optionally collecting forest edges.
func (c *Connectivity) query(wantForest bool) ([]int, int, []graph.Edge) {
	// Initialize labels.
	c.cl.LocalAll(func(mm *mpc.Machine) {
		sh, ok := mm.Get(slotShard).(*shard)
		if !ok {
			return
		}
		sh.labels = make([]int, sh.hi-sh.lo)
		for v := sh.lo; v < sh.hi; v++ {
			sh.labels[v-sh.lo] = v
		}
	})
	rounds := 0
	var forest []graph.Edge
	for _, copyR := range c.copies {
		rounds++
		merged := c.mergeSupernodeSketches(copyR)
		// Each supernode samples one outgoing edge with its copy-r sketch,
		// copy 0 of the single-copy range.
		hooks := map[int]int{}           // label -> candidate neighbor label
		hookEdge := map[int]graph.Edge{} // label -> the sampled edge used
		var candidates []graph.Edge
		var labelsOfCand []int
		hadFail := false
		for _, lab := range sortedIntKeys(merged) {
			e, res := merged[lab].Query(0)
			switch res {
			case sketch.Found:
				candidates = append(candidates, graph.EdgeFromID(e, c.n))
				labelsOfCand = append(labelsOfCand, lab)
			case sketch.Fail:
				hadFail = true
			}
		}
		if len(candidates) == 0 {
			if hadFail {
				continue // retry with the next independent copy
			}
			break // every supernode is isolated: done
		}
		// Resolve endpoint labels distributively.
		var endpoints []int
		for _, e := range candidates {
			endpoints = append(endpoints, e.U, e.V)
		}
		lab := c.lookupLabels(endpoints)
		for i, e := range candidates {
			a, b := lab[e.U], lab[e.V]
			self := labelsOfCand[i]
			other := a
			if a == self {
				other = b
			}
			if other == self {
				continue
			}
			if cur, ok := hooks[self]; !ok || other < cur {
				hooks[self] = other
				hookEdge[self] = e
			}
		}
		if len(hooks) == 0 {
			continue
		}
		if wantForest {
			// Two supernodes can hook along the same edge, and hooks can
			// form cycles among labels; emit an edge only when it truly
			// merges two supernodes this round.
			parent := map[int]int{}
			var find func(int) int
			find = func(x int) int {
				if p, ok := parent[x]; ok && p != x {
					r := find(p)
					parent[x] = r
					return r
				}
				return x
			}
			for _, self := range sortedIntKeys(hooks) {
				ra, rb := find(self), find(hooks[self])
				if ra == rb {
					continue
				}
				parent[rb] = ra
				forest = append(forest, hookEdge[self])
			}
		}
		// Contract the hook forest locally at the coordinator (its size is
		// bounded by the number of active supernodes) and broadcast the
		// label remapping.
		remap := contractHooks(hooks)
		c.cl.Broadcast(c.coord, slotBcast, mpc.Value{V: remap, N: 2 * len(remap)})
		c.cl.LocalAll(func(mm *mpc.Machine) {
			sh, ok := mm.Get(slotShard).(*shard)
			if !ok {
				return
			}
			m := mm.Get(slotBcast).(mpc.Value).V.(map[int]int)
			for i, l := range sh.labels {
				if nl, ok := m[l]; ok {
					sh.labels[i] = nl
				}
			}
		})
	}
	// Read out the labels (driver-level readout of the collective output).
	out := make([]int, c.n)
	c.cl.LocalAll(func(mm *mpc.Machine) {
		sh, ok := mm.Get(slotShard).(*shard)
		if !ok {
			return
		}
		for i, l := range sh.labels {
			out[sh.lo+i] = l
		}
	})
	sort.Slice(forest, func(i, j int) bool {
		if forest[i].U != forest[j].U {
			return forest[i].U < forest[j].U
		}
		return forest[i].V < forest[j].V
	})
	return out, rounds, forest
}

// mergeSupernodeSketches sums the copies in wave (a copy range of the
// vertex sketches' space) of the vertex sketches by current label and
// gathers the per-label sums to the coordinator as [label, cells...] frames
// of the batched message codec. (The volume is bounded by the number of
// active supernodes; the experiments use graphs whose supernode count
// shrinks geometrically, the regime AGM is designed for.)
func (c *Connectivity) mergeSupernodeSketches(wave *sketch.Space) map[int]sketch.Sketch {
	return sketchcodec.AggregateByLabel(c.cl, c.coord, wave,
		func(mm *mpc.Machine, add func(label int, sk sketch.Sketch)) {
			sh, ok := mm.Get(slotShard).(*shard)
			if !ok {
				return
			}
			for i, l := range sh.labels {
				add(l, wave.ViewOf(sh.arena.At(i)))
			}
		})
}

// lookupLabels resolves current labels for the given vertices.
func (c *Connectivity) lookupLabels(vertices []int) map[int]int {
	q := uniqueInts(vertices)
	c.cl.Broadcast(c.coord, slotBcast, mpc.Ints(q))
	res := c.cl.Aggregate(c.coord,
		func(mm *mpc.Machine) mpc.Sized {
			sh, ok := mm.Get(slotShard).(*shard)
			if !ok {
				return nil
			}
			out := map[int]int{}
			for _, v := range mm.Get(slotBcast).(mpc.Ints) {
				if v >= sh.lo && v < sh.hi {
					out[v] = sh.labels[v-sh.lo]
				}
			}
			if len(out) == 0 {
				return nil
			}
			return mpc.Value{V: out, N: 2 * len(out)}
		},
		func(a, b mpc.Sized) mpc.Sized {
			am := a.(mpc.Value).V.(map[int]int)
			for k, v := range b.(mpc.Value).V.(map[int]int) {
				am[k] = v
			}
			return mpc.Value{V: am, N: 2 * len(am)}
		},
	)
	if res == nil {
		return map[int]int{}
	}
	return res.(mpc.Value).V.(map[int]int)
}

// contractHooks turns the hook graph (label -> neighbor label) into a full
// remapping onto component-minimum labels.
func contractHooks(hooks map[int]int) map[int]int {
	parent := map[int]int{}
	var find func(int) int
	find = func(x int) int {
		if p, ok := parent[x]; ok && p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		return x
	}
	for a, b := range hooks {
		ra, rb := find(a), find(b)
		if ra == rb {
			continue
		}
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	remap := map[int]int{}
	for a := range hooks {
		remap[a] = find(a)
	}
	for _, b := range hooks {
		if _, ok := remap[b]; !ok {
			remap[b] = find(b)
		}
	}
	// Drop identity entries to keep the broadcast minimal.
	for k, v := range remap {
		if k == v {
			delete(remap, k)
		}
	}
	return remap
}

func uniqueInts(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}

func ceilPow(n int, phi float64) int {
	v := int(math.Ceil(math.Pow(float64(n), phi)))
	if v < 2 {
		v = 2
	}
	return v
}
