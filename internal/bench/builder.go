// Package bench generates the benchmark circuits of the paper's evaluation
// at reduced scale: the OpenCores designs (tv80, systemcaes, aes_core,
// wb_conmax, des_perf) and the OpenSPARC T1 logic blocks (spu, ffu, exu,
// ifu, tlu, lsu, fpu). The original RTL is not redistributable inside this
// repository and would be far too large for a single-core reproduction, so
// each generator builds *real* logic of the same character — S-box rounds,
// adders, multipliers, shifters, crossbars, decoders, control logic — with
// fixed structure and deliberate reconvergence/redundancy, which is what
// produces undetectable DFM faults and their clusters.
package bench

import (
	"fmt"

	"dfmresyn/internal/library"
	"dfmresyn/internal/logic"
	"dfmresyn/internal/netlist"
)

// B is a gate-level circuit builder over the standard library.
type B struct {
	C   *netlist.Circuit
	lib *library.Library
	n   int
}

// NewB creates a builder for a named circuit.
func NewB(name string, lib *library.Library) *B {
	return &B{C: netlist.New(name, lib), lib: lib}
}

func (b *B) name() string {
	b.n++
	return fmt.Sprintf("u%d", b.n)
}

// PI adds a primary input.
func (b *B) PI(name string) *netlist.Net { return b.C.AddPI(name) }

// PIs adds a named bus of primary inputs.
func (b *B) PIs(prefix string, n int) []*netlist.Net {
	out := make([]*netlist.Net, n)
	for i := range out {
		out[i] = b.C.AddPI(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// PO marks nets as primary outputs.
func (b *B) PO(nets ...*netlist.Net) {
	for _, n := range nets {
		b.C.MarkPO(n)
	}
}

func (b *B) gate(cell string, ins ...*netlist.Net) *netlist.Net {
	return b.C.AddGate(b.name(), b.lib.ByName(cell), ins...)
}

// Basic gates. The builder deliberately mixes drive strengths and complex
// cells the way a commercial synthesis run would.

// Not returns the complement.
func (b *B) Not(x *netlist.Net) *netlist.Net { return b.gate("INVX1", x) }

// Buf returns a buffered copy.
func (b *B) Buf(x *netlist.Net) *netlist.Net { return b.gate("BUFX2", x) }

// And returns x AND y.
func (b *B) And(x, y *netlist.Net) *netlist.Net { return b.gate("AND2X2", x, y) }

// Or returns x OR y.
func (b *B) Or(x, y *netlist.Net) *netlist.Net { return b.gate("OR2X2", x, y) }

// Nand returns NOT(x AND y).
func (b *B) Nand(x, y *netlist.Net) *netlist.Net { return b.gate("NAND2X1", x, y) }

// Xor returns x XOR y.
func (b *B) Xor(x, y *netlist.Net) *netlist.Net { return b.gate("XOR2X1", x, y) }

// Xnor returns NOT(x XOR y).
func (b *B) Xnor(x, y *netlist.Net) *netlist.Net { return b.gate("XNOR2X1", x, y) }

// Aoi21 returns NOT(x*y + z).
func (b *B) Aoi21(x, y, z *netlist.Net) *netlist.Net { return b.gate("AOI21X1", x, y, z) }

// Oai21 returns NOT((x+y) * z).
func (b *B) Oai21(x, y, z *netlist.Net) *netlist.Net { return b.gate("OAI21X1", x, y, z) }

// Aoi22 returns NOT(a*b + c*d).
func (b *B) Aoi22(a, bb, c, d *netlist.Net) *netlist.Net { return b.gate("AOI22X1", a, bb, c, d) }

// Mux returns s ? hi : lo.
func (b *B) Mux(lo, hi, s *netlist.Net) *netlist.Net { return b.gate("MUX2X1", lo, hi, s) }

// AndN reduces a bus with a balanced AND tree (NAND/NOR mix).
func (b *B) AndN(xs []*netlist.Net) *netlist.Net {
	return b.tree(xs, b.And)
}

// OrN reduces a bus with a balanced OR tree.
func (b *B) OrN(xs []*netlist.Net) *netlist.Net {
	return b.tree(xs, b.Or)
}

// XorN reduces a bus with a balanced XOR tree (parity).
func (b *B) XorN(xs []*netlist.Net) *netlist.Net {
	return b.tree(xs, b.Xor)
}

func (b *B) tree(xs []*netlist.Net, op func(x, y *netlist.Net) *netlist.Net) *netlist.Net {
	if len(xs) == 0 {
		panic("bench: empty reduction")
	}
	for len(xs) > 1 {
		var next []*netlist.Net
		for i := 0; i+1 < len(xs); i += 2 {
			next = append(next, op(xs[i], xs[i+1]))
		}
		if len(xs)%2 == 1 {
			next = append(next, xs[len(xs)-1])
		}
		xs = next
	}
	return xs[0]
}

// FullAdder returns (sum, carry) built from XOR/AOI cells.
func (b *B) FullAdder(x, y, cin *netlist.Net) (sum, cout *netlist.Net) {
	t := b.Xor(x, y)
	sum = b.Xor(t, cin)
	// cout = x*y + t*cin  (majority via AOI22 + INV).
	n := b.Aoi22(x, y, t, cin)
	cout = b.Not(n)
	return sum, cout
}

// Adder returns the ripple-carry sum of two equal-width buses plus carry.
func (b *B) Adder(x, y []*netlist.Net, cin *netlist.Net) (sum []*netlist.Net, cout *netlist.Net) {
	if len(x) != len(y) {
		panic("bench: adder width mismatch")
	}
	c := cin
	for i := range x {
		var s *netlist.Net
		if c == nil {
			s = b.Xor(x[i], y[i])
			c = b.And(x[i], y[i])
		} else {
			s, c = b.FullAdder(x[i], y[i], c)
		}
		sum = append(sum, s)
	}
	return sum, c
}

// Mul returns the array-multiplier product of two buses (truncated to
// len(x)+len(y) bits).
func (b *B) Mul(x, y []*netlist.Net) []*netlist.Net {
	var rows [][]*netlist.Net
	for j := range y {
		row := make([]*netlist.Net, len(x)+j)
		for i := range x {
			row[i+j] = b.And(x[i], y[j])
		}
		rows = append(rows, row)
	}
	acc := rows[0]
	for _, row := range rows[1:] {
		w := len(row)
		if len(acc) < w {
			pad := make([]*netlist.Net, w-len(acc))
			acc = append(acc, pad...)
		}
		var c *netlist.Net
		out := make([]*netlist.Net, w)
		for i := 0; i < w; i++ {
			xi, yi := acc[i], row[i]
			switch {
			case xi == nil && yi == nil:
				if c != nil {
					out[i], c = c, nil
				}
			case xi == nil:
				if c == nil {
					out[i] = yi
				} else {
					out[i] = b.Xor(yi, c)
					c = b.And(yi, c)
				}
			case yi == nil:
				if c == nil {
					out[i] = xi
				} else {
					out[i] = b.Xor(xi, c)
					c = b.And(xi, c)
				}
			default:
				if c == nil {
					out[i] = b.Xor(xi, yi)
					c = b.And(xi, yi)
				} else {
					out[i], c = b.FullAdder(xi, yi, c)
				}
			}
		}
		if c != nil {
			out = append(out, c)
		}
		acc = out
	}
	return acc
}

// MuxBus selects between two buses.
func (b *B) MuxBus(lo, hi []*netlist.Net, s *netlist.Net) []*netlist.Net {
	out := make([]*netlist.Net, len(lo))
	for i := range lo {
		out[i] = b.Mux(lo[i], hi[i], s)
	}
	return out
}

// Rotate barrel-rotates a bus left by a 2-bit (or wider) shift amount using
// mux stages.
func (b *B) Rotate(x []*netlist.Net, sh []*netlist.Net) []*netlist.Net {
	cur := x
	for k, s := range sh {
		amt := 1 << uint(k)
		rot := make([]*netlist.Net, len(cur))
		for i := range cur {
			rot[i] = cur[(i+amt)%len(cur)]
		}
		cur = b.MuxBus(cur, rot, s)
	}
	return cur
}

// FromTT builds an arbitrary function of up to 4 inputs using Shannon
// decomposition with MUX2 cells and base gates.
func (b *B) FromTT(tt logic.TT, ins []*netlist.Net) *netlist.Net {
	if len(ins) != tt.Inputs {
		panic("bench: FromTT arity mismatch")
	}
	if c, ok := tt.IsConst(); ok {
		// Constants tie through x AND NOT x; avoided by generators but
		// kept total.
		x := ins[0]
		z := b.And(x, b.Not(x))
		if c == 1 {
			return b.Not(z)
		}
		return z
	}
	if tt.Inputs == 1 {
		if tt.Eval(0) == 0 && tt.Eval(1) == 1 {
			return ins[0]
		}
		return b.Not(ins[0])
	}
	v := tt.Inputs - 1
	neg, pos := cofactorPair(tt, v)
	if neg.Bits == pos.Bits {
		return b.FromTT(logic.TT{Inputs: tt.Inputs - 1, Bits: squeeze(neg.Bits, tt.Inputs)}, ins[:v])
	}
	f0 := b.FromTT(logic.TT{Inputs: tt.Inputs - 1, Bits: squeeze(neg.Bits, tt.Inputs)}, ins[:v])
	f1 := b.FromTT(logic.TT{Inputs: tt.Inputs - 1, Bits: squeeze(pos.Bits, tt.Inputs)}, ins[:v])
	return b.Mux(f0, f1, ins[v])
}

// cofactorPair splits on the top variable, keeping full-width tables.
func cofactorPair(tt logic.TT, v int) (neg, pos logic.TT) {
	n := uint(1) << uint(tt.Inputs)
	var nb, pb uint64
	for j := uint(0); j < n; j++ {
		bit := uint64(tt.Bits >> j & 1)
		if j>>uint(v)&1 == 1 {
			pb |= bit << j
		} else {
			nb |= bit << j
		}
	}
	return logic.TT{Inputs: tt.Inputs, Bits: nb}, logic.TT{Inputs: tt.Inputs, Bits: pb}
}

// squeeze drops the top variable from a cofactor's bit layout.
func squeeze(bits uint64, inputs int) uint64 {
	half := uint(1) << uint(inputs-1)
	var out uint64
	for j := uint(0); j < half; j++ {
		out |= (bits>>j&1 | bits>>(j+half)&1) << j
	}
	return out
}

// SBox4 applies a 4-bit substitution box to a nibble.
func (b *B) SBox4(table [16]uint8, in []*netlist.Net) []*netlist.Net {
	if len(in) != 4 {
		panic("bench: SBox4 needs 4 inputs")
	}
	out := make([]*netlist.Net, 4)
	for bit := 0; bit < 4; bit++ {
		tt := logic.NewTT(4, func(a uint) uint8 { return table[a] >> uint(bit) & 1 })
		out[bit] = b.FromTT(tt, in)
	}
	return out
}

// Decoder builds a one-hot decoder of the input bus.
func (b *B) Decoder(sel []*netlist.Net) []*netlist.Net {
	inv := make([]*netlist.Net, len(sel))
	for i, s := range sel {
		inv[i] = b.Not(s)
	}
	out := make([]*netlist.Net, 1<<uint(len(sel)))
	for v := range out {
		terms := make([]*netlist.Net, len(sel))
		for i := range sel {
			if v>>uint(i)&1 == 1 {
				terms[i] = sel[i]
			} else {
				terms[i] = inv[i]
			}
		}
		out[v] = b.AndN(terms)
	}
	return out
}

// Equal compares two buses for equality.
func (b *B) Equal(x, y []*netlist.Net) *netlist.Net {
	terms := make([]*netlist.Net, len(x))
	for i := range x {
		terms[i] = b.Xnor(x[i], y[i])
	}
	return b.AndN(terms)
}

// InjectConsensus adds classic consensus-redundant cover logic:
// out = x*y + ~x*z + y*z, where the y*z term is redundant. Generators
// sprinkle these over control signals to seed realistic undetectable
// faults.
func (b *B) InjectConsensus(x, y, z *netlist.Net) *netlist.Net {
	t1 := b.And(x, y)
	t2 := b.And(b.Not(x), z)
	t3 := b.And(y, z) // redundant consensus term
	return b.Or(b.Or(t1, t2), t3)
}

// DupMerge duplicates a signal's recomputation and merges the copies —
// logic that is functionally idle but present in real synthesized netlists
// after timing fixes; it creates undetectable-fault habitat.
func (b *B) DupMerge(x, y *netlist.Net) *netlist.Net {
	a1 := b.And(x, y)
	a2 := b.Nand(x, y)
	// a1 OR NOT a2 == a1 (since NOT a2 == a1): the OR gate is redundant.
	return b.Or(a1, b.Not(a2))
}
