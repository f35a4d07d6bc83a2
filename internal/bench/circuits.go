package bench

import (
	"fmt"

	"dfmresyn/internal/library"
	"dfmresyn/internal/netlist"
)

// Names lists the twelve benchmark circuits of the paper's Table II, in the
// paper's order.
var Names = []string{
	"tv80", "systemcaes", "aes_core", "wb_conmax", "des_perf",
	"sparc_spu", "sparc_ffu", "sparc_exu", "sparc_ifu", "sparc_tlu",
	"sparc_lsu", "sparc_fpu",
}

// TableINames lists the circuits of Table I.
var TableINames = []string{"aes_core", "des_perf", "sparc_exu", "sparc_fpu"}

// Build generates the named benchmark circuit over the library.
func Build(name string, lib *library.Library) (*netlist.Circuit, error) {
	switch name {
	case "tv80":
		return buildTV80(lib), nil
	case "systemcaes":
		return buildSystemCAES(lib), nil
	case "aes_core":
		return buildAESCore(lib), nil
	case "wb_conmax":
		return buildWBConmax(lib), nil
	case "des_perf":
		return buildDESPerf(lib), nil
	case "sparc_spu":
		return buildSparcSPU(lib), nil
	case "sparc_ffu":
		return buildSparcFFU(lib), nil
	case "sparc_exu":
		return buildSparcEXU(lib), nil
	case "sparc_ifu":
		return buildSparcIFU(lib), nil
	case "sparc_tlu":
		return buildSparcTLU(lib), nil
	case "sparc_lsu":
		return buildSparcLSU(lib), nil
	case "sparc_fpu":
		return buildSparcFPU(lib), nil
	case "synth1k":
		return buildSynth1K(lib), nil
	case "synth10k":
		return buildSynth10K(lib), nil
	}
	return nil, fmt.Errorf("bench: unknown circuit %q", name)
}

// MustBuild is Build, panicking on unknown names.
func MustBuild(name string, lib *library.Library) *netlist.Circuit {
	c, err := Build(name, lib)
	if err != nil {
		panic(err)
	}
	return c
}

// AES-style 4-bit S-box (the PRESENT cipher S-box: cryptographically real,
// strongly nonlinear).
var presentSBox = [16]uint8{0xC, 5, 6, 0xB, 9, 0, 0xA, 0xD, 3, 0xE, 0xF, 8, 4, 7, 1, 2}

// DES S1 S-box row 0 (4-bit slice of the real DES S1 table).
var desSBox = [16]uint8{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7}

// A third nonlinear box (Skinny-64 S-box).
var skinnySBox = [16]uint8{0xC, 6, 9, 0, 1, 0xA, 2, 0xB, 3, 8, 5, 0xD, 4, 0xE, 7, 0xF}

// buildTV80 models the tv80 (Z80) core slice: an 8-bit ALU with add/sub,
// logic ops, an op-select mux tree and flag generation.
func buildTV80(lib *library.Library) *netlist.Circuit {
	b := NewB("tv80", lib)
	a := b.PIs("a", 8)
	d := b.PIs("d", 8)
	op := b.PIs("op", 2)
	ci := b.PI("ci")

	// Add and subtract (two's complement via inverted operand).
	sum, cout := b.Adder(a, d, ci)
	dn := make([]*netlist.Net, len(d))
	for i := range d {
		dn[i] = b.Not(d[i])
	}
	diff, bout := b.Adder(a, dn, b.Not(ci))

	// Logic unit.
	andv := make([]*netlist.Net, 8)
	xorv := make([]*netlist.Net, 8)
	for i := 0; i < 8; i++ {
		andv[i] = b.And(a[i], d[i])
		xorv[i] = b.Xor(a[i], d[i])
	}

	// Result mux by op.
	res := make([]*netlist.Net, 8)
	for i := 0; i < 8; i++ {
		lo := b.Mux(sum[i], diff[i], op[0])
		hi := b.Mux(andv[i], xorv[i], op[0])
		res[i] = b.Mux(lo, hi, op[1])
	}

	// Flags: zero, parity, carry-select, plus consensus-redundant
	// "documented quirk" logic as found in legacy cores.
	nz := make([]*netlist.Net, 8)
	for i := range res {
		nz[i] = b.Not(res[i])
	}
	zero := b.AndN(nz)
	parity := b.XorN(res)
	carry := b.Mux(cout, bout, op[0])
	q1 := b.InjectConsensus(op[0], carry, res[3])
	q2 := b.DupMerge(res[0], carry)

	b.PO(res...)
	b.PO(zero, parity, carry, q1, q2)
	return b.C
}

// buildSystemCAES models the systemcaes block: one scaled AES-like round
// over 16 bits: key xor, 4 S-boxes, a mix layer, and round-constant logic.
func buildSystemCAES(lib *library.Library) *netlist.Circuit {
	b := NewB("systemcaes", lib)
	st := b.PIs("s", 16)
	key := b.PIs("k", 16)

	// AddRoundKey.
	x := make([]*netlist.Net, 16)
	for i := range st {
		x[i] = b.Xor(st[i], key[i])
	}
	// SubBytes: 4 nibbles through the PRESENT S-box.
	var sb []*netlist.Net
	for n := 0; n < 4; n++ {
		sb = append(sb, b.SBox4(presentSBox, x[4*n:4*n+4])...)
	}
	// ShiftRows-like wire permutation.
	perm := make([]*netlist.Net, 16)
	for i := range sb {
		perm[i] = sb[(i*5)%16]
	}
	// MixColumns-like XOR spreading.
	mix := make([]*netlist.Net, 16)
	for i := range perm {
		mix[i] = b.Xor(perm[i], b.Xor(perm[(i+4)%16], perm[(i+8)%16]))
	}
	// Key schedule fragment with deliberate redundancy.
	ks := make([]*netlist.Net, 4)
	for i := 0; i < 4; i++ {
		ks[i] = b.InjectConsensus(key[i], key[i+4], key[i+8])
	}
	b.PO(mix...)
	b.PO(ks...)
	return b.C
}

// buildAESCore models aes_core: a wider AES-like round (32-bit state, 8
// S-boxes) plus key-schedule xors.
func buildAESCore(lib *library.Library) *netlist.Circuit {
	b := NewB("aes_core", lib)
	st := b.PIs("s", 32)
	key := b.PIs("k", 32)

	x := make([]*netlist.Net, 32)
	for i := range st {
		x[i] = b.Xor(st[i], key[i])
	}
	var sb []*netlist.Net
	for n := 0; n < 8; n++ {
		box := presentSBox
		if n%2 == 1 {
			box = skinnySBox
		}
		sb = append(sb, b.SBox4(box, x[4*n:4*n+4])...)
	}
	perm := make([]*netlist.Net, 32)
	for i := range sb {
		perm[i] = sb[(i*13)%32]
	}
	mix := make([]*netlist.Net, 32)
	for i := range perm {
		mix[i] = b.Xor(perm[i], b.Xor(perm[(i+8)%32], perm[(i+16)%32]))
	}
	// Key schedule: rotate + sbox + rcon.
	kr := b.Rotate(key[:8], b.PIs("rot", 2))
	ksb := b.SBox4(presentSBox, kr[:4])
	for i, k := range ksb {
		mix[i] = b.Xor(mix[i], k)
	}
	// Redundancy habitat.
	r1 := b.InjectConsensus(key[0], st[0], st[16])
	r2 := b.DupMerge(st[1], key[1])
	b.PO(mix...)
	b.PO(r1, r2)
	return b.C
}

// buildWBConmax models the wb_conmax interconnect: a 4x4 crossbar with
// priority arbiters and address decoders.
func buildWBConmax(lib *library.Library) *netlist.Circuit {
	b := NewB("wb_conmax", lib)
	const masters, slaves, width = 4, 4, 6
	var mdat [][]*netlist.Net
	var mreq []*netlist.Net
	var maddr [][]*netlist.Net
	for m := 0; m < masters; m++ {
		mdat = append(mdat, b.PIs(fmt.Sprintf("m%dd", m), width))
		mreq = append(mreq, b.PI(fmt.Sprintf("m%dreq", m)))
		maddr = append(maddr, b.PIs(fmt.Sprintf("m%da", m), 2))
	}

	for s := 0; s < slaves; s++ {
		// Which masters address slave s.
		var want []*netlist.Net
		for m := 0; m < masters; m++ {
			dec := b.Decoder(maddr[m])
			want = append(want, b.And(dec[s], mreq[m]))
		}
		// Fixed-priority arbiter: grant[m] = want[m] & none before.
		grant := make([]*netlist.Net, masters)
		block := b.Not(want[0]) // "no earlier grant" chain
		grant[0] = want[0]
		for m := 1; m < masters; m++ {
			grant[m] = b.And(want[m], block)
			block = b.And(block, b.Not(want[m]))
		}
		// Data mux onto the slave bus.
		bus := mdat[0]
		for m := 1; m < masters; m++ {
			bus = b.MuxBus(bus, mdat[m], grant[m])
		}
		b.PO(bus...)
		b.PO(b.OrN(grant))
		// Arbiter corner logic with redundancy (retry/timeout paths).
		b.PO(b.InjectConsensus(grant[0], want[1], want[2]))
	}
	return b.C
}

// buildDESPerf models des_perf: the heavily pipelined DES core. Under the
// full-scan abstraction each pipeline round is bounded by scan flops, so
// the block appears as two *independent* round instances whose inputs and
// outputs are pseudo-PIs/POs — exactly how scan ATPG sees the real design.
func buildDESPerf(lib *library.Library) *netlist.Circuit {
	b := NewB("des_perf", lib)
	l := b.PIs("l", 16)
	r := b.PIs("r", 16)
	k1 := b.PIs("k1", 16)
	// Pseudo-PIs of the second pipeline stage (scan-captured state).
	l2in := b.PIs("p2l", 16)
	r2in := b.PIs("p2r", 16)
	k2 := b.PIs("k2", 16)

	round := func(l, r, k []*netlist.Net) ([]*netlist.Net, []*netlist.Net) {
		// Expansion-lite: xor with rotated self, then key.
		x := make([]*netlist.Net, 16)
		for i := range r {
			x[i] = b.Xor(b.Xor(r[i], r[(i+3)%16]), k[i])
		}
		var sb []*netlist.Net
		for n := 0; n < 4; n++ {
			box := desSBox
			if n%2 == 1 {
				box = presentSBox
			}
			sb = append(sb, b.SBox4(box, x[4*n:4*n+4])...)
		}
		// P permutation.
		p := make([]*netlist.Net, 16)
		for i := range sb {
			p[i] = sb[(i*7)%16]
		}
		nl := r
		nr := make([]*netlist.Net, 16)
		for i := range l {
			nr[i] = b.Xor(l[i], p[i])
		}
		return nl, nr
	}
	l1, r1 := round(l, r, k1)
	b.PO(l1...)
	b.PO(r1...)
	l2, r2 := round(l2in, r2in, k2)
	b.PO(l2...)
	b.PO(r2...)
	b.PO(b.InjectConsensus(k1[0], k2[0], l[0]), b.DupMerge(r[2], k1[2]))
	return b.C
}

// buildSparcSPU models the stream processing unit: SHA-like mixing — modular
// adds, rotations and choice/majority functions.
func buildSparcSPU(lib *library.Library) *netlist.Circuit {
	b := NewB("sparc_spu", lib)
	x := b.PIs("x", 8)
	y := b.PIs("y", 8)
	z := b.PIs("z", 8)
	w := b.PIs("w", 8)

	// Ch(x,y,z) and a nonlinear mixing function, bitwise.
	ch := make([]*netlist.Net, 8)
	maj := make([]*netlist.Net, 8)
	for i := 0; i < 8; i++ {
		ch[i] = b.Mux(z[i], y[i], x[i])
		m := b.Aoi22(x[i], y[i], x[i], z[i])
		maj[i] = b.Aoi21(y[i], z[i], m) // (xy+xz) AND NOT(yz): SHA-like mixer
	}
	s1, _ := b.Adder(ch, w, nil)
	rot := b.Rotate(maj, b.PIs("r", 2))
	s2, co := b.Adder(s1, rot, nil)
	b.PO(s2...)
	b.PO(co)
	b.PO(b.InjectConsensus(x[7], y[7], z[7]))
	return b.C
}

// buildSparcFFU models the FPU frontend: exponent compare, mantissa align
// shift and sticky logic.
func buildSparcFFU(lib *library.Library) *netlist.Circuit {
	b := NewB("sparc_ffu", lib)
	ea := b.PIs("ea", 5)
	eb := b.PIs("eb", 5)
	ma := b.PIs("ma", 8)
	mb := b.PIs("mb", 8)

	// Exponent difference.
	ebn := make([]*netlist.Net, 5)
	for i := range eb {
		ebn[i] = b.Not(eb[i])
	}
	one := b.Not(b.And(ea[0], b.Not(ea[0]))) // constant 1 habitat (redundant)
	diff, aGE := b.Adder(ea, ebn, one)

	// Align the smaller mantissa by the low diff bits.
	mbs := b.Rotate(mb, diff[:3])
	sel := make([]*netlist.Net, 8)
	for i := range sel {
		sel[i] = b.Mux(ma[i], mbs[i], aGE)
	}
	// Sticky bits: OR of shifted-out positions.
	sticky := b.OrN(mbs[:4])
	sum, co := b.Adder(sel, mbs, nil)
	zero := b.Not(b.OrN(sum))
	b.PO(sum...)
	b.PO(co, sticky, zero, aGE)
	b.PO(b.DupMerge(ea[0], eb[0]))
	return b.C
}

// buildSparcEXU models the execution unit: 8-bit ALU with bypass network
// and condition codes.
func buildSparcEXU(lib *library.Library) *netlist.Circuit {
	b := NewB("sparc_exu", lib)
	rs1 := b.PIs("rs1", 8)
	rs2 := b.PIs("rs2", 8)
	fwd := b.PIs("fwd", 8) // forwarded result
	sel := b.PIs("sel", 2)
	op := b.PIs("op", 2)

	// Bypass muxes.
	a := b.MuxBus(rs1, fwd, sel[0])
	d := b.MuxBus(rs2, fwd, sel[1])

	sum, cout := b.Adder(a, d, nil)
	dn := make([]*netlist.Net, 8)
	for i := range d {
		dn[i] = b.Not(d[i])
	}
	diff, _ := b.Adder(a, dn, b.Not(b.And(a[0], b.Not(a[0])))) // +1 via constant-1
	logicOut := make([]*netlist.Net, 8)
	for i := 0; i < 8; i++ {
		logicOut[i] = b.Mux(b.And(a[i], d[i]), b.Xor(a[i], d[i]), op[0])
	}
	res := make([]*netlist.Net, 8)
	for i := 0; i < 8; i++ {
		arith := b.Mux(sum[i], diff[i], op[0])
		res[i] = b.Mux(arith, logicOut[i], op[1])
	}
	// Condition codes.
	nz := make([]*netlist.Net, 8)
	for i := range res {
		nz[i] = b.Not(res[i])
	}
	ccZ := b.AndN(nz)
	ccN := b.Buf(res[7])
	ccV := b.Xor(cout, b.Xor(a[7], d[7]))
	b.PO(res...)
	b.PO(ccZ, ccN, ccV)
	b.PO(b.InjectConsensus(op[0], res[2], ccN), b.InjectConsensus(sel[0], rs1[3], fwd[3]))
	return b.C
}

// buildSparcIFU models instruction fetch: PC increment, branch target adder,
// and instruction decode PLA.
func buildSparcIFU(lib *library.Library) *netlist.Circuit {
	b := NewB("sparc_ifu", lib)
	pc := b.PIs("pc", 10)
	off := b.PIs("off", 10)
	inst := b.PIs("inst", 8)
	taken := b.PI("taken")

	// PC + 1.
	oneVec := make([]*netlist.Net, 10)
	k0 := b.And(pc[0], b.Not(pc[0]))
	k1 := b.Not(k0)
	oneVec[0] = k1
	for i := 1; i < 10; i++ {
		oneVec[i] = k0
	}
	inc, _ := b.Adder(pc, oneVec, nil)
	// Branch target.
	tgt, _ := b.Adder(pc, off, nil)
	next := b.MuxBus(inc, tgt, taken)

	// Decode PLA: opcode classes from instruction bits.
	dec := b.Decoder(inst[:3])
	cls := make([]*netlist.Net, 6)
	cls[0] = b.And(dec[0], inst[3])
	cls[1] = b.Or(dec[1], dec[2])
	cls[2] = b.And(dec[3], b.Not(inst[4]))
	cls[3] = b.Aoi21(dec[4], inst[5], dec[5])
	cls[4] = b.Oai21(dec[6], inst[6], dec[7])
	cls[5] = b.InjectConsensus(inst[7], cls[1], cls[2])
	b.PO(next...)
	b.PO(cls...)
	return b.C
}

// buildSparcTLU models the trap logic unit: priority encoding of trap
// sources and trap-level comparison.
func buildSparcTLU(lib *library.Library) *netlist.Circuit {
	b := NewB("sparc_tlu", lib)
	req := b.PIs("req", 16)
	lvl := b.PIs("lvl", 4)
	cur := b.PIs("cur", 4)
	en := b.PI("en")

	// Priority encoder over trap requests.
	enc := make([]*netlist.Net, 4)
	var blocked []*netlist.Net
	notBefore := b.Not(req[0])
	taken := []*netlist.Net{req[0]}
	for i := 1; i < len(req); i++ {
		t := b.And(req[i], notBefore)
		taken = append(taken, t)
		notBefore = b.And(notBefore, b.Not(req[i]))
		blocked = append(blocked, notBefore)
	}
	for bit := 0; bit < 4; bit++ {
		var terms []*netlist.Net
		for i := 0; i < len(req); i++ {
			if i>>uint(bit)&1 == 1 {
				terms = append(terms, taken[i])
			}
		}
		enc[bit] = b.OrN(terms)
	}
	// Level comparator: take trap when lvl > cur.
	lvlGT := b.greaterThan(lvl, cur)
	fire := b.And(b.And(lvlGT, en), b.OrN(req))
	b.PO(enc...)
	b.PO(fire, blocked[len(blocked)-1])
	b.PO(b.InjectConsensus(en, req[0], req[1]), b.DupMerge(lvl[0], cur[0]))
	return b.C
}

// greaterThan builds an unsigned comparator x > y.
func (b *B) greaterThan(x, y []*netlist.Net) *netlist.Net {
	// From MSB down: gt = x_i & ~y_i | (x_i == y_i) & gt_below.
	var gt *netlist.Net
	for i := len(x) - 1; i >= 0; i-- {
		here := b.And(x[i], b.Not(y[i]))
		if gt == nil {
			gt = here
			continue
		}
		eq := b.Xnor(x[i], y[i])
		gt = b.Or(here, b.And(eq, gt))
	}
	return gt
}

// buildSparcLSU models the load/store unit: address add, tag compare, byte
// alignment and mask generation.
func buildSparcLSU(lib *library.Library) *netlist.Circuit {
	b := NewB("sparc_lsu", lib)
	base := b.PIs("base", 10)
	off := b.PIs("off", 10)
	tag := b.PIs("tag", 6)
	sz := b.PIs("sz", 2)
	data := b.PIs("data", 8)

	addr, _ := b.Adder(base, off, nil)
	hit := b.Equal(addr[4:10], tag)
	// Byte mask from size and low address bits.
	dec := b.Decoder(sz)
	mask := make([]*netlist.Net, 4)
	mask[0] = b.OrN([]*netlist.Net{dec[0], dec[1], dec[2], dec[3]})
	mask[1] = b.OrN([]*netlist.Net{dec[1], dec[2], dec[3]})
	mask[2] = b.Or(dec[2], dec[3])
	mask[3] = b.Buf(dec[3])
	// Alignment rotate of store data.
	rot := b.Rotate(data, addr[:2])
	out := make([]*netlist.Net, 8)
	for i := 0; i < 8; i++ {
		out[i] = b.And(rot[i], mask[i/2])
	}
	b.PO(addr...)
	b.PO(out...)
	b.PO(hit)
	b.PO(b.InjectConsensus(hit, mask[0], mask[1]))
	return b.C
}

// buildSparcFPU models the floating-point unit: a 6x6 mantissa multiplier,
// exponent adder and a normalization shifter — the largest block, as in the
// paper.
func buildSparcFPU(lib *library.Library) *netlist.Circuit {
	b := NewB("sparc_fpu", lib)
	ma := b.PIs("ma", 8)
	mb := b.PIs("mb", 8)
	ea := b.PIs("ea", 6)
	eb := b.PIs("eb", 6)
	sa := b.PI("sa")
	sb := b.PI("sb")

	prod := b.Mul(ma, mb)
	esum, eco := b.Adder(ea, eb, nil)
	sign := b.Xor(sa, sb)
	// Normalize: if the top product bit is 0, shift left by one and
	// decrement the exponent.
	top := prod[len(prod)-1]
	norm := make([]*netlist.Net, len(prod))
	for i := range prod {
		lo := prod[i]
		var hi *netlist.Net
		if i == 0 {
			hi = b.And(prod[0], b.Not(prod[0])) // shift in zero
		} else {
			hi = prod[i-1]
		}
		norm[i] = b.Mux(hi, lo, top)
	}
	// Exponent select with redundancy habitat.
	edec := make([]*netlist.Net, 6)
	for i := range esum {
		edec[i] = b.Mux(b.Xor(esum[i], b.cOne(ea[0])), esum[i], top)
	}
	sticky := b.OrN(norm[:4])
	b.PO(norm...)
	b.PO(edec...)
	b.PO(sign, eco, sticky)
	b.PO(b.InjectConsensus(sa, ma[0], mb[0]), b.DupMerge(ea[1], eb[1]))
	return b.C
}

// cOne builds a constant-1 net derived from x (redundant logic habitat).
func (b *B) cOne(x *netlist.Net) *netlist.Net {
	return b.Nand(x, b.Not(x))
}
