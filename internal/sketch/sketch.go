// Package sketch implements the linear ℓ0-sampling sketches of
// Cormode–Jowhari (Lemma 3.1 of the paper) and the AGM vertex-incidence
// sketches built from them (Section 3.1): compact, mergeable summaries of
// dynamically changing vectors over {-1, 0, +1}^N from which a uniformly
// random nonzero coordinate can be recovered.
//
// A Space fixes the shared randomness (hash functions) for a family of
// sketches; sketches from the same Space are linear: adding two sketches
// cell-wise yields a sketch of the sum of the underlying vectors. This is
// the property that makes the connectivity algorithm work — summing the
// vertex sketches of a set A cancels all edges internal to A and leaves
// exactly the edges of the cut E(A, V \ A) (Lemma 3.3).
//
// # Representation
//
// Sketch state is stored flat: every sketch is a run of SketchWords()
// machine words (t copies × (levels+1) cells × 3 words per cell), and a
// Sketch value is a cheap view — a Space pointer plus a word slice — not a
// heap object of its own. Views come from four places:
//
//   - an Arena, which backs all the vertex sketches of one machine shard
//     with a single contiguous allocation (see arena.go);
//   - Space.NewSketch, a standalone one-allocation sketch;
//   - Space.Scratch, a sync.Pool-backed buffer for the transient
//     merge-and-query work of the recovery paths, returned with
//     Space.Release;
//   - Space.ViewOf on a Space.Range, which cuts a run of copies out of any
//     of the above, so a reader that queries only some copies can ship and
//     sum only those.
//
// Update, Add, Query and the cell-recovery scan all operate on the word
// slices in place and perform no allocation, which is what keeps the
// simulator's sketch hot path allocation-free at steady state.
package sketch

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/hash"
)

// QueryResult classifies the outcome of an ℓ0-sampler query.
type QueryResult int

// Query outcomes.
const (
	// Empty means the sketched vector is zero (the ⊥ outcome of Lemma 3.1
	// for ℓ0(X) = 0).
	Empty QueryResult = iota
	// Found means a nonzero coordinate was recovered.
	Found
	// Fail means the sampler could not recover a coordinate this time; the
	// caller should retry with an independent copy.
	Fail
)

// String implements fmt.Stringer.
func (r QueryResult) String() string {
	switch r {
	case Empty:
		return "empty"
	case Found:
		return "found"
	default:
		return "fail"
	}
}

// One cell is a one-sparse recovery structure — exact counter, index sum and
// a random linear fingerprint, all linear in the underlying vector — stored
// as three consecutive machine words. The counter word holds an int64 bit
// pattern; isum and fp are elements of F_p.
const (
	cellWords = 3
	offCount  = 0
	offIsum   = 1
	offFp     = 2
)

func cellZero(w []uint64) bool { return w[offCount]|w[offIsum]|w[offFp] == 0 }

func cellUpdate(w []uint64, idx, hfp uint64, delta int) {
	w[offCount] = uint64(int64(w[offCount]) + int64(delta))
	if delta > 0 {
		w[offIsum] = addModP(w[offIsum], idx%hash.Prime)
		w[offFp] = addModP(w[offFp], hfp)
	} else {
		w[offIsum] = subModP(w[offIsum], idx%hash.Prime)
		w[offFp] = subModP(w[offFp], hfp)
	}
}

func addModP(a, b uint64) uint64 {
	s := a + b
	if s >= hash.Prime {
		s -= hash.Prime
	}
	return s
}

func subModP(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + hash.Prime - b
}

// cellRecover attempts one-sparse recovery on the cell at w. It succeeds
// only when the cell contains exactly one coordinate with value ±1 (the only
// values arising from simple-graph incidence vectors), verified against the
// fingerprint, so false positives occur with probability at most 1/Prime.
func cellRecover(w []uint64, fpHash *hash.Family, idSpace uint64) (idx uint64, ok bool) {
	switch int64(w[offCount]) {
	case 1:
		idx = w[offIsum]
	case -1:
		idx = subModP(0, w[offIsum])
	default:
		return 0, false
	}
	if idx >= idSpace {
		return 0, false
	}
	want := fpHash.Hash(idx)
	if int64(w[offCount]) == -1 {
		want = subModP(0, want)
	}
	if w[offFp] != want {
		return 0, false
	}
	return idx, true
}

// Space holds the shared randomness for a family of mergeable sketches: t
// independent copies, each with its own level hash and fingerprint hash.
// Every sketch that is ever added to another must come from the same Space.
//
// A Space made by Range is a copy-range view of its parent: it shares the
// parent's hash functions for copies [lo, hi), and its sketches are the
// matching contiguous run of a parent sketch's words (see ViewOf).
type Space struct {
	idSpace uint64
	t       int
	levels  int
	stride  int // SketchWords(), cached
	levelH  []*hash.Family
	fpH     []*hash.Family
	scratch sync.Pool // *[]uint64 of stride words, see Scratch/Release

	parent *Space // nil unless made by Range
	lo     int    // first parent copy of a Range space
}

// NewSpace creates a space for vectors indexed by [0, idSpace) with t
// independent sampler copies per sketch, drawing randomness from prg.
func NewSpace(idSpace uint64, t int, prg *hash.PRG) *Space {
	if idSpace == 0 {
		panic("sketch: empty id space")
	}
	if t < 1 {
		panic(fmt.Sprintf("sketch: t = %d", t))
	}
	levels := 1
	for v := uint64(1); v < idSpace; v *= 2 {
		levels++
		if levels > 64 {
			break
		}
	}
	levelH := make([]*hash.Family, t)
	fpH := make([]*hash.Family, t)
	for i := 0; i < t; i++ {
		levelH[i] = hash.NewFourwise(prg)
		fpH[i] = hash.NewFourwise(prg)
	}
	return newSpace(idSpace, levels, levelH, fpH)
}

func newSpace(idSpace uint64, levels int, levelH, fpH []*hash.Family) *Space {
	t := len(levelH)
	s := &Space{idSpace: idSpace, t: t, levels: levels, levelH: levelH, fpH: fpH}
	s.stride = t * (levels + 1) * cellWords
	s.scratch.New = func() any {
		buf := make([]uint64, s.stride)
		return &buf
	}
	return s
}

// Range returns a view space of copies [lo, hi): copy c of a Range sketch
// is copy lo+c of the parent sketch it was cut from. Because a sketch is
// laid out copy-major, ViewOf cuts that run out of a parent sketch without
// copying, and by linearity the sum of the views equals the view of the
// sum, so shipping and adding only the copies a reader will query gives
// bit-identical answers for those copies. Every call returns a distinct
// space with its own scratch pool; sketches of two Range spaces never mix,
// even over the same copies.
func (s *Space) Range(lo, hi int) *Space {
	if lo < 0 || hi > s.t || lo >= hi {
		panic(fmt.Sprintf("sketch: copy range [%d,%d) of %d", lo, hi, s.t))
	}
	r := newSpace(s.idSpace, s.levels, s.levelH[lo:hi:hi], s.fpH[lo:hi:hi])
	r.parent, r.lo = s, lo
	return r
}

// ViewOf returns copies [lo, hi) of sk, a sketch of the parent of this
// Range space, as a sketch of this space. The view aliases sk's words
// (full-sliced, so it cannot spill into the copies around it): adding into
// it updates those copies of sk and leaves the rest untouched.
func (s *Space) ViewOf(sk Sketch) Sketch {
	if s.parent == nil || sk.space != s.parent {
		panic("sketch: ViewOf a sketch that is not from the range's parent space")
	}
	off := s.lo * (s.levels + 1) * cellWords
	return Sketch{space: s, cells: sk.cells[off : off+s.stride : off+s.stride]}
}

// NewGraphSpace creates a space for the edge-incidence vectors of graphs on
// n vertices (index space n^2) with t copies.
func NewGraphSpace(n, t int, prg *hash.PRG) *Space {
	return NewSpace(graph.IDSpace(n), t, prg)
}

// Copies returns the number of independent sampler copies per sketch.
func (s *Space) Copies() int { return s.t }

// Levels returns the number of subsampling levels per copy.
func (s *Space) Levels() int { return s.levels }

// SketchWords returns the size in machine words of one sketch from this
// space; it is O(log^2 N) words: t copies of (levels+1) cells.
func (s *Space) SketchWords() int { return s.stride }

// Sketch is a linear ℓ0-sampling sketch of a vector in {-1,0,+1}^idSpace.
// It is a view: a Space pointer plus the SketchWords() backing words, which
// may live in an Arena, a standalone allocation, or a pooled scratch buffer.
// Copying a Sketch value aliases the same cells; use Clone for an
// independent copy. The zero value is not usable; see Valid.
type Sketch struct {
	space *Space
	cells []uint64
}

// NewSketch returns a standalone sketch of the zero vector (one allocation).
func (s *Space) NewSketch() Sketch {
	return Sketch{space: s, cells: make([]uint64, s.stride)}
}

// Scratch returns a zeroed sketch whose backing comes from the space's
// sync.Pool. It serves the transient merge-and-query work of the recovery
// paths (summing fragment or supernode sketches before Query) without
// allocating at steady state. The caller must hand the sketch back with
// Release once done and must not use it afterwards.
func (s *Space) Scratch() Sketch {
	buf := s.scratch.Get().(*[]uint64)
	clear(*buf)
	return Sketch{space: s, cells: *buf}
}

// Release returns a Scratch-obtained sketch to the pool. Releasing a sketch
// that is still referenced — or one backed by an Arena — corrupts whoever
// still holds the cells; only pass sketches obtained from Scratch whose last
// use has passed.
func (s *Space) Release(sk Sketch) {
	if sk.space != s {
		panic("sketch: Release of a sketch from a different space")
	}
	cells := sk.cells
	s.scratch.Put(&cells)
}

// Space returns the space the sketch belongs to.
func (sk Sketch) Space() *Space { return sk.space }

// Valid reports whether the view is usable (the zero Sketch is not).
func (sk Sketch) Valid() bool { return sk.space != nil }

// Words returns the sketch's size in machine words.
func (sk Sketch) Words() int { return len(sk.cells) }

// Cells exposes the raw backing words for codec use (encoding a sketch into
// a message frame). The slice must be treated as the sketch's private state:
// mutating it directly bypasses the cell invariants.
func (sk Sketch) Cells() []uint64 { return sk.cells }

// View wraps raw backing words (for example a decoded message frame) as a
// sketch of this space. The slice must be exactly SketchWords() long and
// must contain cell words previously produced by sketches of an identical
// space (same idSpace, copies, and PRG draws).
func (s *Space) View(cells []uint64) Sketch {
	if len(cells) != s.stride {
		panic(fmt.Sprintf("sketch: view of %d words, stride %d", len(cells), s.stride))
	}
	return Sketch{space: s, cells: cells}
}

// Update applies X[idx] += delta; delta must be +1 or -1.
func (sk Sketch) Update(idx uint64, delta int) {
	if delta != 1 && delta != -1 {
		panic(fmt.Sprintf("sketch: delta %d", delta))
	}
	if idx >= sk.space.idSpace {
		panic(fmt.Sprintf("sketch: index %d out of space %d", idx, sk.space.idSpace))
	}
	L := sk.space.levels
	for c := 0; c < sk.space.t; c++ {
		lvl := sk.space.levelH[c].Level(idx, L)
		hfp := sk.space.fpH[c].Hash(idx)
		base := c * (L + 1) * cellWords
		// Design: level l holds all items whose sampling level is >= l, so
		// level 0 always holds the full vector and level l subsamples with
		// probability 2^-l.
		for l := 0; l <= lvl; l++ {
			cellUpdate(sk.cells[base+l*cellWords:], idx, hfp, delta)
		}
	}
}

// Add merges other into sk cell-wise. Both sketches must come from the same
// Space; afterwards sk summarizes the sum of the two vectors.
func (sk Sketch) Add(other Sketch) {
	if sk.space != other.space {
		panic("sketch: adding sketches from different spaces")
	}
	a, b := sk.cells, other.cells
	for i := 0; i < len(a); i += cellWords {
		// Two's-complement wrap-around makes uint64 addition exactly the
		// int64 counter addition of the original cell representation.
		a[i+offCount] += b[i+offCount]
		a[i+offIsum] = addModP(a[i+offIsum], b[i+offIsum])
		a[i+offFp] = addModP(a[i+offFp], b[i+offFp])
	}
}

// CopyFrom overwrites sk's cells with other's. Both must share a Space.
func (sk Sketch) CopyFrom(other Sketch) {
	if sk.space != other.space {
		panic("sketch: copying a sketch from a different space")
	}
	copy(sk.cells, other.cells)
}

// Zero resets the sketch to the zero vector in place.
func (sk Sketch) Zero() { clear(sk.cells) }

// Clone returns an independent deep copy of the sketch (one allocation; for
// an allocation-free transient copy use Space.Scratch plus CopyFrom).
func (sk Sketch) Clone() Sketch {
	c := Sketch{space: sk.space, cells: make([]uint64, len(sk.cells))}
	copy(c.cells, sk.cells)
	return c
}

// Sum returns a fresh sketch equal to the cell-wise sum of the arguments,
// which must be non-empty and share a Space. Each operand's space is checked
// against the first operand's, and a mismatch names the offending argument
// index.
func Sum(sketches ...Sketch) Sketch {
	if len(sketches) == 0 {
		panic("sketch: Sum of nothing")
	}
	out := sketches[0].Clone()
	for i, s := range sketches[1:] {
		if s.space != out.space {
			panic(fmt.Sprintf("sketch: Sum argument %d is from a different space than argument 0", i+1))
		}
		out.Add(s)
	}
	return out
}

// Query attempts to recover a nonzero coordinate using copy c. Each copy is
// an independent sampler: it fails with at most constant probability, so
// querying different copies for the same vector boosts success. Copies
// consumed by one Borůvka-style round must not be reused in later rounds of
// the same extraction (the vector then depends on the copy's randomness).
func (sk Sketch) Query(c int) (idx uint64, res QueryResult) {
	if c < 0 || c >= sk.space.t {
		panic(fmt.Sprintf("sketch: copy %d of %d", c, sk.space.t))
	}
	L := sk.space.levels
	base := c * (L + 1) * cellWords
	if cellZero(sk.cells[base:]) {
		return 0, Empty
	}
	// Scan from the sparsest level down; the first one-sparse cell yields
	// the sample.
	for l := L; l >= 0; l-- {
		if idx, ok := cellRecover(sk.cells[base+l*cellWords:], sk.space.fpH[c], sk.space.idSpace); ok {
			return idx, Found
		}
	}
	return 0, Fail
}

// QueryAny tries all copies starting from startCopy and returns the first
// decisive outcome. It reports Fail only if every copy fails.
func (sk Sketch) QueryAny(startCopy int) (idx uint64, res QueryResult) {
	t := sk.space.t
	for off := 0; off < t; off++ {
		c := (startCopy + off) % t
		idx, r := sk.Query(c)
		if r != Fail {
			return idx, r
		}
	}
	return 0, Fail
}

// EdgeSign returns the sign with which edge e contributes to the incidence
// vector X_w of vertex w: +1 when w is the larger endpoint, -1 when it is
// the smaller (Section 3.1). It panics if w is not an endpoint of e.
func EdgeSign(w int, e graph.Edge) int {
	c := e.Canonical()
	switch w {
	case c.V:
		return 1
	case c.U:
		return -1
	default:
		panic(fmt.Sprintf("sketch: vertex %d not an endpoint of %v", w, e))
	}
}

// VertexSketch is an AGM sketch of the incidence vector X_v of one vertex:
// a Sketch view plus the vertex count needed to map edges to coordinates.
// Like Sketch it is a value; copying it aliases the same cells.
type VertexSketch struct {
	Sketch
	n int
}

// NewVertexSketch returns the sketch of an isolated vertex in a graph on n
// vertices. space must have been built over id space n^2.
func NewVertexSketch(space *Space, n int) VertexSketch {
	if space.idSpace != graph.IDSpace(n) {
		panic("sketch: space does not match vertex count")
	}
	return VertexSketch{Sketch: space.NewSketch(), n: n}
}

// VertexView wraps an existing sketch view (typically an Arena slot) as the
// vertex sketch of a graph on n vertices.
func VertexView(sk Sketch, n int) VertexSketch {
	if sk.space.idSpace != graph.IDSpace(n) {
		panic("sketch: space does not match vertex count")
	}
	return VertexSketch{Sketch: sk, n: n}
}

// ApplyEdge updates the sketch of vertex w for an insertion (op =
// graph.Insert) or deletion of edge e incident to w.
func (vs VertexSketch) ApplyEdge(w int, e graph.Edge, op graph.Op) {
	sign := EdgeSign(w, e)
	if op == graph.Delete {
		sign = -sign
	}
	vs.Update(e.ID(vs.n), sign)
}
