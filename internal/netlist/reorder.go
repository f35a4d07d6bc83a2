package netlist

import "sort"

// ReorderLike returns a structurally identical copy of c whose nets and
// gates are renumbered to follow prev: every element that also exists in
// prev (matched by name) keeps prev's relative order, and elements new to c
// are appended in c's own order. RebuildReplacing splits the unchanged logic
// around the replaced region, which inverts the relative order of kept
// elements; the ECO re-analysis of a rebuilt circuit restores that order —
// the router walks nets in ID order and each net sees the congestion of the
// nets routed before it, so the order decides the layout.
//
// The PI and PO interface order of c is preserved, c itself is left
// untouched, and the copy satisfies Check.
func ReorderLike(c, prev *Circuit) *Circuit {
	prevNet := make(map[string]int, len(prev.Nets))
	for i, n := range prev.Nets {
		prevNet[n.Name] = i
	}
	prevGate := make(map[string]int, len(prev.Gates))
	for i, g := range prev.Gates {
		prevGate[g.Name] = i
	}

	nets := append([]*Net(nil), c.Nets...)
	sort.SliceStable(nets, func(i, j int) bool {
		pi, iok := prevNet[nets[i].Name]
		pj, jok := prevNet[nets[j].Name]
		switch {
		case iok && jok:
			return pi < pj
		case iok:
			return true
		default:
			// Both new: the stable sort keeps c's order.
			return false
		}
	})
	gates := append([]*Gate(nil), c.Gates...)
	sort.SliceStable(gates, func(i, j int) bool {
		pi, iok := prevGate[gates[i].Name]
		pj, jok := prevGate[gates[j].Name]
		switch {
		case iok && jok:
			return pi < pj
		case iok:
			return true
		default:
			return false
		}
	})

	out := New(c.Name, c.Lib)
	netMap := make(map[*Net]*Net, len(c.Nets))
	for _, n := range nets {
		nn := out.newNet(n.Name)
		nn.IsPI = n.IsPI
		nn.IsPO = n.IsPO
		netMap[n] = nn
	}
	for _, pi := range c.PIs {
		out.PIs = append(out.PIs, netMap[pi])
	}
	for _, g := range gates {
		fanin := make([]*Net, len(g.Fanin))
		for i, in := range g.Fanin {
			fanin[i] = netMap[in]
		}
		ng := &Gate{ID: len(out.Gates), Name: g.Name, Type: g.Type, Fanin: fanin}
		no := netMap[g.Out]
		no.Driver = ng
		ng.Out = no
		out.Gates = append(out.Gates, ng)
		for i, in := range fanin {
			in.Fanout = append(in.Fanout, Pin{Gate: ng, Pin: i})
		}
	}
	for _, po := range c.POs {
		out.POs = append(out.POs, netMap[po])
	}
	return out
}
