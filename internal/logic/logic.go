// Package logic provides the value systems used throughout dfmresyn:
// two-valued 64-bit parallel-pattern words for simulation, the five-valued
// PODEM algebra (0, 1, X, D, DBar) for test generation, and small truth
// tables for library-cell functions.
package logic

import (
	"fmt"
	"math/bits"
)

// V5 is a five-valued logic value used by the PODEM test generator.
// D means 1 in the good circuit and 0 in the faulty circuit; DBar is the
// opposite. X is unassigned/unknown.
type V5 uint8

// The five PODEM logic values.
const (
	X V5 = iota
	Zero
	One
	D
	DBar
)

// String returns the conventional textual form of v.
func (v V5) String() string {
	switch v {
	case X:
		return "X"
	case Zero:
		return "0"
	case One:
		return "1"
	case D:
		return "D"
	case DBar:
		return "D'"
	}
	return fmt.Sprintf("V5(%d)", uint8(v))
}

// Good returns the good-circuit binary value of v, and false if v is X.
func (v V5) Good() (bit uint8, known bool) {
	switch v {
	case Zero, DBar:
		return 0, true
	case One, D:
		return 1, true
	}
	return 0, false
}

// Faulty returns the faulty-circuit binary value of v, and false if v is X.
func (v V5) Faulty() (bit uint8, known bool) {
	switch v {
	case Zero, D:
		return 0, true
	case One, DBar:
		return 1, true
	}
	return 0, false
}

// IsError reports whether v carries a fault effect (D or DBar).
func (v V5) IsError() bool { return v == D || v == DBar }

// Not returns the five-valued complement of v.
func (v V5) Not() V5 {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	case D:
		return DBar
	case DBar:
		return D
	}
	return X
}

// FromBits builds a V5 from separate good and faulty binary values.
func FromBits(good, faulty uint8) V5 {
	switch {
	case good == 0 && faulty == 0:
		return Zero
	case good == 1 && faulty == 1:
		return One
	case good == 1 && faulty == 0:
		return D
	default:
		return DBar
	}
}

// FromBit builds a fault-free V5 (Zero or One) from a binary value.
func FromBit(b uint8) V5 {
	if b == 0 {
		return Zero
	}
	return One
}

// Word is a 64-pattern parallel simulation word: bit i holds the value of
// the signal under pattern i.
type Word = uint64

// AllOnes is the Word with every pattern slot set to 1.
const AllOnes Word = ^Word(0)

// TT is a truth table over up to 6 inputs, stored with one bit per minterm:
// bit j of Bits holds the output for the input assignment whose binary
// encoding is j (input 0 is the least-significant position).
type TT struct {
	Inputs int
	Bits   uint64
}

// NewTT builds a truth table for n inputs from an evaluation function.
func NewTT(n int, eval func(assignment uint) uint8) TT {
	if n < 0 || n > 6 {
		panic(fmt.Sprintf("logic: truth table inputs out of range: %d", n))
	}
	var bits uint64
	for j := uint(0); j < 1<<uint(n); j++ {
		if eval(j)&1 == 1 {
			bits |= 1 << j
		}
	}
	return TT{Inputs: n, Bits: bits}
}

// Eval returns the table output for the given input assignment.
func (t TT) Eval(assignment uint) uint8 {
	return uint8(t.Bits >> (assignment & (1<<uint(t.Inputs) - 1)) & 1)
}

// Minterms returns the number of input assignments producing output 1.
func (t TT) Minterms() int {
	mask := uint64(1)<<(1<<uint(t.Inputs)) - 1
	if t.Inputs == 6 {
		mask = ^uint64(0)
	}
	return bits.OnesCount64(t.Bits & mask)
}

// IsConst reports whether the table is constant, and the constant value.
func (t TT) IsConst() (val uint8, ok bool) {
	m := t.Minterms()
	if m == 0 {
		return 0, true
	}
	if m == 1<<uint(t.Inputs) {
		return 1, true
	}
	return 0, false
}

// DependsOn reports whether the table output depends on input i.
func (t TT) DependsOn(i int) bool {
	n := uint(1) << uint(t.Inputs)
	for j := uint(0); j < n; j++ {
		if t.Eval(j) != t.Eval(j^(1<<uint(i))) {
			return true
		}
	}
	return false
}

// EvalWord evaluates the table on parallel-pattern input words.
func (t TT) EvalWord(in []Word) Word {
	if len(in) != t.Inputs {
		panic(fmt.Sprintf("logic: EvalWord got %d inputs, table has %d", len(in), t.Inputs))
	}
	var out Word
	// Shannon-style evaluation: for each minterm with output 1, AND the
	// matching input literals together and OR into the result. For <=6
	// inputs this is at most 64 minterms; fast enough and branch-free per
	// minterm.
	n := uint(1) << uint(t.Inputs)
	for j := uint(0); j < n; j++ {
		if t.Bits>>j&1 == 0 {
			continue
		}
		term := AllOnes
		for i := 0; i < t.Inputs; i++ {
			if j>>uint(i)&1 == 1 {
				term &= in[i]
			} else {
				term &= ^in[i]
			}
		}
		out |= term
	}
	return out
}

// EvalV5 evaluates the table over five-valued inputs by evaluating the good
// and faulty binary projections separately. If any input needed for the
// result is X in a projection, the corresponding projection is unknown and
// the result is X unless the table output is insensitive to the unknown
// inputs under the known assignment.
func (t TT) EvalV5(in []V5) V5 {
	gb, gok := t.evalProjection(in, true)
	fb, fok := t.evalProjection(in, false)
	if !gok || !fok {
		return X
	}
	return FromBits(gb, fb)
}

// evalProjection evaluates one binary projection (good or faulty) allowing
// unknowns: it enumerates all completions of the X inputs and returns ok
// only if every completion agrees.
func (t TT) evalProjection(in []V5, good bool) (uint8, bool) {
	var base uint
	var xmask uint
	for i, v := range in {
		var b uint8
		var known bool
		if good {
			b, known = v.Good()
		} else {
			b, known = v.Faulty()
		}
		if !known {
			xmask |= 1 << uint(i)
			continue
		}
		base |= uint(b) << uint(i)
	}
	if xmask == 0 {
		return t.Eval(base), true
	}
	// Enumerate completions of the X positions.
	first := t.Eval(base | xmask)
	sub := xmask
	for {
		if t.Eval(base|sub) != first {
			return 0, false
		}
		if sub == 0 {
			break
		}
		sub = (sub - 1) & xmask
	}
	return first, true
}

// V5Table caches EvalV5 over every combination of five-valued inputs for a
// fixed truth table, turning the per-gate implication step of the test
// generator into a single lookup. Inputs are encoded base-5 (input 0 is the
// least-significant digit).
type V5Table struct {
	Inputs int
	vals   []V5
}

// BuildV5Table precomputes the table (5^Inputs entries).
func (t TT) BuildV5Table() *V5Table {
	k := t.Inputs
	size := 1
	for i := 0; i < k; i++ {
		size *= 5
	}
	tab := &V5Table{Inputs: k, vals: make([]V5, size)}
	in := make([]V5, k)
	for code := 0; code < size; code++ {
		c := code
		for i := 0; i < k; i++ {
			in[i] = V5(c % 5)
			c /= 5
		}
		tab.vals[code] = t.EvalV5(in)
	}
	return tab
}

// Eval looks up the cached value for the given five-valued inputs.
func (tab *V5Table) Eval(in []V5) V5 {
	code := 0
	mul := 1
	for i := 0; i < tab.Inputs; i++ {
		code += int(in[i]) * mul
		mul *= 5
	}
	return tab.vals[code]
}
