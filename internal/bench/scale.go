package bench

import (
	"fmt"

	"dfmresyn/internal/library"
	"dfmresyn/internal/netlist"
)

// ScaleNames lists the synthetic large-tier circuits. They are not part of
// the paper's twelve benchmarks (Names); they exist to exercise the spatial
// index at a scale where the asymptotic win is visible — the paper's
// circuits top out at a few hundred gates, where a full-die scan is cheap.
var ScaleNames = []string{"synth1k", "synth10k"}

// buildScale generates a large benchmark as independent cipher-round blocks
// of ~360 gates each: key xor, S-box substitution, a wire permutation, XOR
// spreading and a final adder, plus the consensus/duplicate redundancy the
// small generators use. The blocks share no nets, so ATPG cones stay block-
// local and total analysis time scales linearly in the block count — the
// property that makes a 10k-gate full analyze tractable in the benchmark
// flow while still giving the physical stages one big shared die.
func buildScale(name string, lib *library.Library, blocks int) *netlist.Circuit {
	b := NewB(name, lib)
	boxes := [3][16]uint8{presentSBox, desSBox, skinnySBox}
	strides := [4]int{5, 7, 11, 13} // coprime to 16: true permutations
	for k := 0; k < blocks; k++ {
		st := b.PIs(fmt.Sprintf("b%d_s", k), 16)
		key := b.PIs(fmt.Sprintf("b%d_k", k), 16)
		x := make([]*netlist.Net, 16)
		for i := range st {
			x[i] = b.Xor(st[i], key[i])
		}
		var sb []*netlist.Net
		for n := 0; n < 4; n++ {
			sb = append(sb, b.SBox4(boxes[(k+n)%3], x[4*n:4*n+4])...)
		}
		stride := strides[k%4]
		perm := make([]*netlist.Net, 16)
		for i := range sb {
			perm[i] = sb[(i*stride)%16]
		}
		mix := make([]*netlist.Net, 16)
		for i := range perm {
			mix[i] = b.Xor(perm[i], b.Xor(perm[(i+4)%16], perm[(i+8)%16]))
		}
		sum, co := b.Adder(mix[:8], mix[8:], nil)
		b.PO(sum...)
		b.PO(mix[8:]...)
		b.PO(co)
		b.PO(b.InjectConsensus(key[k%16], st[(k+3)%16], st[(k+9)%16]))
		b.PO(b.DupMerge(st[k%16], key[(k+5)%16]))
	}
	return b.C
}

func buildSynth1K(lib *library.Library) *netlist.Circuit {
	return buildScale("synth1k", lib, 3)
}

func buildSynth10K(lib *library.Library) *netlist.Circuit {
	return buildScale("synth10k", lib, 28)
}
