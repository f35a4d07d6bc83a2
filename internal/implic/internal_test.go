package implic

import (
	"math"
	"slices"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/library"
)

// InFanoutCone reports whether net lies in origin's precomputed fanout
// cone. It exists for the external tests, which compare the cones with a
// reference walk.
func (e *Engine) InFanoutCone(origin, net int) bool {
	return inCone(e.cone(origin), net)
}

// TestAddConstMatchesRebase replays the closure build's direct sweep,
// round after round until it proves no new constant, on circuits whose
// sweeps do prove constants. After each new constant it compares the
// incrementally extended base with the fixpoint rebase recomputes from
// scratch over the same constant set.
func TestAddConstMatchesRebase(t *testing.T) {
	lib := library.OSU018Like()
	for _, name := range []string{"systemcaes", "aes_core", "sparc_fpu", "synth1k"} {
		c := bench.MustBuild(name, lib)
		e := &Engine{c: c, constVal: make([]int8, len(c.Nets))}
		for i := range e.constVal {
			e.constVal[i] = -1
		}
		p := newProp(e)
		added := 0
		for grew := true; grew; {
			p.rebase()
			grew = false
			for l := Lit(0); int(l) < 2*len(c.Nets); l++ {
				if e.constVal[l.Net()] >= 0 {
					continue
				}
				if _, ok := p.consequences(l); ok {
					continue
				}
				ref := &Engine{c: c, constVal: slices.Clone(e.constVal)}
				ref.setConst(l.Net(), l.Val()^1)
				p.addConst(l.Net(), l.Val()^1)
				q := newProp(ref)
				q.rebase()
				if !slices.Equal(p.base, q.base) || !slices.Equal(e.constVal, ref.constVal) {
					t.Fatalf("%s: base after constant %d=%d differs from a from-scratch rebase",
						name, l.Net(), l.Val()^1)
				}
				added++
				grew = true
			}
		}
		if added == 0 {
			t.Errorf("%s: the direct sweep proved no constant; the circuit no longer exercises addConst", name)
		}
	}
}

// TestScratchEpochWrap checks that a mark stamped long ago cannot read as
// reached once the epoch counter wraps back to the stamp's value.
func TestScratchEpochWrap(t *testing.T) {
	s := &scratch{stamp: make([]uint32, 8)}
	s.begin()
	s.visit(3)
	s.visit(5)
	if s.epoch != 1 || !s.reached(3) || !s.reached(5) || s.reached(4) {
		t.Fatalf("first query: epoch %d, marks %v", s.epoch, s.stamp)
	}
	s.epoch = math.MaxUint32 - 1
	s.begin()
	s.visit(4)
	if s.reached(3) || !s.reached(4) {
		t.Fatalf("query at epoch %d: marks %v", s.epoch, s.stamp)
	}
	s.begin() // wraps to epoch 1, the first query's stamp
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	for n := range s.stamp {
		if s.reached(n) {
			t.Errorf("net %d still reached after the epoch wrapped", n)
		}
	}
	if len(s.queue) != 0 {
		t.Errorf("queue not reset: %v", s.queue)
	}
}
