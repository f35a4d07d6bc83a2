// Package sim provides 64-bit parallel-pattern good-circuit simulation:
// each call evaluates 64 test patterns at once, with bit p of every word
// holding the value of the signal under pattern p.
package sim

import (
	"math/rand"

	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
)

// Simulator evaluates a fixed circuit on 64-pattern words.
type Simulator struct {
	c     *netlist.Circuit
	order []*netlist.Gate
}

// New prepares a simulator for the circuit (levelizes once).
func New(c *netlist.Circuit) *Simulator {
	return &Simulator{c: c, order: c.Levelize()}
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *netlist.Circuit { return s.c }

// Order returns the topological gate order used by the simulator.
func (s *Simulator) Order() []*netlist.Gate { return s.order }

// Run simulates the circuit on the given per-PI pattern words (indexed as
// c.PIs) and returns one word per net (indexed by net ID).
func (s *Simulator) Run(pi []logic.Word) []logic.Word {
	if len(pi) != len(s.c.PIs) {
		panic("sim: PI word count mismatch")
	}
	vals := make([]logic.Word, len(s.c.Nets))
	for i, n := range s.c.PIs {
		vals[n.ID] = pi[i]
	}
	s.RunInto(vals)
	return vals
}

// RunInto simulates using and updating the provided per-net value slice;
// PI values must already be filled in. This avoids reallocation in loops.
func (s *Simulator) RunInto(vals []logic.Word) {
	var buf [8]logic.Word
	for _, g := range s.order {
		in := buf[:len(g.Fanin)]
		for i, f := range g.Fanin {
			in[i] = vals[f.ID]
		}
		vals[g.Out.ID] = g.Type.TT.EvalWord(in)
	}
}

// RunSingle simulates one fully-specified pattern given as a bit per PI
// (indexed as c.PIs) and returns a bit per net.
func (s *Simulator) RunSingle(pi []uint8) []uint8 {
	words := make([]logic.Word, len(pi))
	for i, b := range pi {
		if b&1 == 1 {
			words[i] = 1
		}
	}
	vals := s.Run(words)
	out := make([]uint8, len(vals))
	for i, w := range vals {
		out[i] = uint8(w & 1)
	}
	return out
}

// RandomWords generates one random 64-pattern word per PI.
func RandomWords(rng *rand.Rand, numPI int) []logic.Word {
	w := make([]logic.Word, numPI)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// PatternsToWords packs up to 64 patterns (each a bit per PI) into per-PI
// words; pattern p occupies bit p.
func PatternsToWords(patterns [][]uint8, numPI int) []logic.Word {
	if len(patterns) > 64 {
		panic("sim: more than 64 patterns per word")
	}
	w := make([]logic.Word, numPI)
	for p, pat := range patterns {
		for i := 0; i < numPI; i++ {
			if pat[i]&1 == 1 {
				w[i] |= 1 << uint(p)
			}
		}
	}
	return w
}
