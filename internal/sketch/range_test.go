package sketch

import (
	"slices"
	"testing"

	"repro/internal/hash"
)

// denseSketches returns k sketches of one space, each holding a few
// hundred random ±1 coordinates, so every copy has cells on many levels.
func denseSketches(sp *Space, k int, seed uint64) []Sketch {
	prg := hash.NewPRG(seed)
	out := make([]Sketch, k)
	for i := range out {
		out[i] = sp.NewSketch()
		for j := 0; j < 300; j++ {
			delta := 1
			if prg.Next()&1 == 0 {
				delta = -1
			}
			out[i].Update(prg.NextN(sp.idSpace), delta)
		}
	}
	return out
}

// TestRangeQueryMatchesParent: copy c-lo of a range view answers exactly
// like copy c of the full sketch, for every copy and every way of cutting
// the copies, both on a single sketch and on a sum built from range views.
func TestRangeQueryMatchesParent(t *testing.T) {
	sp := newTestSpace(1<<12, 10, 21)
	sks := denseSketches(sp, 3, 22)
	full := Sum(sks...)
	for _, cut := range [][2]int{{0, 10}, {0, 1}, {0, 4}, {4, 10}, {3, 7}, {9, 10}} {
		lo, hi := cut[0], cut[1]
		r := sp.Range(lo, hi)
		if r.Copies() != hi-lo || r.Levels() != sp.Levels() || r.SketchWords() != (hi-lo)*sp.SketchWords()/sp.Copies() {
			t.Fatalf("[%d,%d): range shape copies=%d levels=%d words=%d", lo, hi, r.Copies(), r.Levels(), r.SketchWords())
		}
		sum := r.Scratch()
		for _, sk := range sks {
			sum.Add(r.ViewOf(sk))
		}
		if !slices.Equal(sum.Cells(), r.ViewOf(full).Cells()) {
			t.Fatalf("[%d,%d): sum of range views differs from the range view of the sum", lo, hi)
		}
		for c := lo; c < hi; c++ {
			wantIdx, wantRes := full.Query(c)
			for _, view := range []Sketch{r.ViewOf(full), sum} {
				idx, res := view.Query(c - lo)
				if res != wantRes || idx != wantIdx {
					t.Fatalf("[%d,%d) copy %d: range query (%d, %v), full query (%d, %v)", lo, hi, c, idx, res, wantIdx, wantRes)
				}
			}
		}
		r.Release(sum)
	}
}

// TestRangeAddLeavesOtherCopies: adding into a range view changes exactly
// the copies in the range and leaves the parent's other copies untouched.
func TestRangeAddLeavesOtherCopies(t *testing.T) {
	sp := newTestSpace(1<<12, 8, 23)
	sks := denseSketches(sp, 2, 24)
	a, b := sks[0], sks[1]
	before := a.Clone()
	want := Sum(a, b)
	r := sp.Range(2, 5)
	r.ViewOf(a).Add(r.ViewOf(b))
	perCopy := sp.SketchWords() / sp.Copies()
	for c := 0; c < sp.Copies(); c++ {
		got := a.Cells()[c*perCopy : (c+1)*perCopy]
		ref := before.Cells()[c*perCopy : (c+1)*perCopy]
		if c >= 2 && c < 5 {
			ref = want.Cells()[c*perCopy : (c+1)*perCopy]
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("copy %d: after a range add the cells are wrong (in range: %v)", c, c >= 2 && c < 5)
		}
	}
	// Updating through the view updates the parent's copies.
	v := r.ViewOf(a)
	v.Update(77, 1)
	v.Update(77, -1)
	if !slices.Equal(r.ViewOf(a).Cells(), r.ViewOf(want).Cells()) {
		t.Fatal("an update and its inverse through a range view changed the parent")
	}
}

// TestRangeMixingSpacesPanics: a range space and its parent, two ranges of
// the same copies, and a range of another space never mix.
func TestRangeMixingSpacesPanics(t *testing.T) {
	sp := newTestSpace(1<<10, 8, 25)
	other := newTestSpace(1<<10, 8, 25)
	r1, r2 := sp.Range(0, 4), sp.Range(0, 4)
	sk := sp.NewSketch()
	for name, fn := range map[string]func(){
		"range add into parent":  func() { sk.Add(r1.ViewOf(sk)) },
		"parent add into range":  func() { r1.ViewOf(sk).Add(sk) },
		"two equal ranges":       func() { r1.ViewOf(sk).Add(r2.ViewOf(sk)) },
		"view of another space":  func() { r1.ViewOf(other.NewSketch()) },
		"view of a range sketch": func() { r1.ViewOf(r1.NewSketch()) },
		"view from a root space": func() { sp.ViewOf(sk) },
		"release into parent":    func() { sp.Release(r1.Scratch()) },
		"empty range":            func() { sp.Range(3, 3) },
		"range past the copies":  func() { sp.Range(4, 9) },
		"query past the range":   func() { r1.ViewOf(sk).Query(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestRangeOfRange: a range of a range space views the same parent copies
// as the equivalent range of the root.
func TestRangeOfRange(t *testing.T) {
	sp := newTestSpace(1<<12, 10, 26)
	sk := denseSketches(sp, 1, 27)[0]
	outer := sp.Range(2, 9)
	inner := outer.Range(1, 4) // root copies [3, 6)
	direct := sp.Range(3, 6)
	if !slices.Equal(inner.ViewOf(outer.ViewOf(sk)).Cells(), direct.ViewOf(sk).Cells()) {
		t.Fatal("range of a range views different words than the direct range")
	}
}
