package fault

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"dfmresyn/internal/netlist"
	"dfmresyn/internal/switchsim"
)

// TestTargets pins the detection targets of one fault of each kind, in
// enumeration order, through one iterator reused across the faults.
func TestTargets(t *testing.T) {
	_, n := buildFan(t)
	a, b, inv, buf, nand := n["a"], n["b"], n["inv"], n["buf"], n["nand"]
	c := func(net *netlist.Net, v uint8) Cond { return Cond{Net: net, Val: v} }

	type want struct {
		effect Effect
		site   *netlist.Net
		asg    uint
		conds  []Cond
		inits  uint64
		init   [][]Cond // InitConds of each set bit of inits, ascending
	}
	show := func(w want) string {
		s := fmt.Sprintf("effect %d site %s asg %d conds", w.effect, w.site.Name, w.asg)
		for _, cd := range w.conds {
			s += fmt.Sprintf(" %s=%d", cd.Net.Name, cd.Val)
		}
		s += fmt.Sprintf(" inits %b", w.inits)
		for _, ic := range w.init {
			s += " |"
			for _, cd := range ic {
				s += fmt.Sprintf(" %s=%d", cd.Net.Name, cd.Val)
			}
		}
		return s
	}
	var it Targets
	for _, tc := range []struct {
		name string
		f    *Fault
		want []want
	}{
		{"stem stuck-at", &Fault{Model: StuckAt, Net: inv, Value: 1},
			[]want{{effect: EffectStem, site: inv, conds: []Cond{c(inv, 0)}}}},
		{"branch stuck-at", &Fault{Model: StuckAt, Net: a, Value: 0, BranchGate: inv.Driver, BranchPin: 0},
			[]want{{effect: EffectBranch, site: inv, conds: []Cond{c(a, 1)}}}},
		{"branch transition", &Fault{Model: Transition, Net: a, Value: 1, BranchGate: buf.Driver, BranchPin: 0},
			[]want{{effect: EffectBranch, site: buf, conds: []Cond{c(a, 0)}, inits: 1,
				init: [][]Cond{{c(a, 1)}}}}},
		{"bridge", &Fault{Model: Bridge, Net: inv, Other: buf},
			[]want{
				{effect: EffectBridge, site: inv, conds: []Cond{c(inv, 1), c(buf, 0)}},
				{effect: EffectBridge, site: inv, conds: []Cond{c(inv, 0), c(buf, 1)}},
			}},
		// Assignment 0 is static and has dynamic partners too, so it is
		// a target of both passes; columns 1 and 2 have no partner.
		{"cell-aware", &Fault{Model: CellAware, Gate: nand.Driver, Behavior: &switchsim.Behavior{
			Inputs: 2, StaticMask: 0b0101, PairMask: []uint64{0b1000, 0b0001, 0b1001, 0}}},
			[]want{
				{effect: EffectHost, site: nand, asg: 0, conds: []Cond{c(inv, 0), c(b, 0)}},
				{effect: EffectHost, site: nand, asg: 2, conds: []Cond{c(inv, 0), c(b, 1)}},
				{effect: EffectHost, site: nand, asg: 0, conds: []Cond{c(inv, 0), c(b, 0)}, inits: 0b0110,
					init: [][]Cond{{c(inv, 1), c(b, 0)}, {c(inv, 0), c(b, 1)}}},
				{effect: EffectHost, site: nand, asg: 3, conds: []Cond{c(inv, 1), c(b, 1)}, inits: 0b0101,
					init: [][]Cond{{c(inv, 0), c(b, 0)}, {c(inv, 0), c(b, 1)}}},
			}},
		{"cell-aware without behavior", &Fault{Model: CellAware, Gate: nand.Driver}, nil},
	} {
		var got []want
		it.Reset(tc.f)
		for it.Next() {
			tg := it.Target()
			w := want{effect: tg.Effect, site: tg.Site(), asg: tg.Asg,
				conds: slices.Clone(tg.Conds), inits: tg.Inits}
			for m := tg.Inits; m != 0; m &= m - 1 {
				w.init = append(w.init, tg.InitConds(nil, uint(bits.TrailingZeros64(m))))
			}
			got = append(got, w)
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d targets, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i, g := range got {
			w := tc.want[i]
			if g.effect != w.effect || g.site != w.site || g.asg != w.asg || g.inits != w.inits ||
				!slices.Equal(g.conds, w.conds) ||
				!slices.EqualFunc(g.init, w.init, slices.Equal[[]Cond]) {
				t.Errorf("%s target %d:\n got %s\nwant %s", tc.name, i, show(g), show(w))
			}
		}
	}
}
