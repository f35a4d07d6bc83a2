package fault

import (
	"math/bits"

	"dfmresyn/internal/netlist"
)

// Cond is a required good value on a net: an excitation or activation
// condition of a detection target, or a justification goal of its
// initialisation vector.
type Cond struct {
	Net *netlist.Net
	Val uint8
}

// Effect is how a detection target's fault changes the faulty circuit.
type Effect uint8

// The fault effects of detection targets.
const (
	// EffectStem forces Net to Val for every sink.
	EffectStem Effect = iota
	// EffectBranch forces input Pin of Gate, fed by Net, to Val.
	EffectBranch
	// EffectBridge gives the victim Net the good value of the aggressor
	// Other (the dominant bridge).
	EffectBridge
	// EffectHost complements the output of cell Gate while its good inputs
	// equal Asg.
	EffectHost
)

// Target is one detection obligation of a fault. A vector meets it when
// every condition of Conds holds and the effect reaches a primary output;
// a fault is detectable exactly when one of its targets can be met. A
// target with nonzero Inits needs a pattern pair: the initialisation vector
// must also satisfy one of the alternatives InitConds expands.
type Target struct {
	Effect Effect
	Net    *netlist.Net  // stem, branch: the faulty net; bridge: the victim
	Gate   *netlist.Gate // branch: the gate the branch feeds; host: the cell
	Pin    int           // branch: the input of Gate
	Val    uint8         // stem, branch: the stuck value
	Other  *netlist.Net  // bridge: the aggressor
	Asg    uint          // host: the activating input assignment

	// Conds are the good-value conditions of the detection vector.
	Conds []Cond
	// Inits has bit k set for each initialisation alternative k.
	Inits uint64
}

// Site returns the net where the fault effect appears first.
func (t *Target) Site() *netlist.Net {
	if t.Effect == EffectBranch || t.Effect == EffectHost {
		return t.Gate.Out
	}
	return t.Net
}

// InitConds appends the conditions of initialisation alternative k to dst:
// for a host, its inputs at assignment k; for a transition, the site net
// holding the stuck value.
func (t *Target) InitConds(dst []Cond, k uint) []Cond {
	if t.Effect == EffectHost {
		return hostConds(dst, t.Gate, k)
	}
	return append(dst, Cond{Net: t.Net, Val: t.Val})
}

// hostConds appends the conditions driving every input of g to its bit of
// assignment a.
func hostConds(dst []Cond, g *netlist.Gate, a uint) []Cond {
	for i, in := range g.Fanin {
		dst = append(dst, Cond{Net: in, Val: uint8(a >> uint(i) & 1)})
	}
	return dst
}

// Targets enumerates a fault's detection targets one at a time, building
// each on demand into a buffer reused across faults. The order is part of
// the contract, because PODEM and the SAT tier try targets in it and draw
// a fault's random fill from one stream:
//
//   - a stuck-at or transition fault has one target, whose transition
//     initialisation alternative is the site holding the stuck value;
//   - a bridge has two, victim 1 first;
//   - a cell-aware fault has one per static activating assignment in
//     ascending order, then one per dynamic assignment a2 in ascending
//     order that has a pair partner, the partners a1 being its
//     initialisation alternatives. A nil Behavior has none.
type Targets struct {
	f *Fault
	i uint // positions consumed: targets, or cell-aware assignments scanned
	t Target
}

// Reset starts the enumeration of f's targets.
func (it *Targets) Reset(f *Fault) { it.f, it.i = f, 0 }

// Next advances to the next target and reports whether there is one.
func (it *Targets) Next() bool {
	f, t := it.f, &it.t
	switch f.Model {
	case StuckAt, Transition:
		if it.i > 0 {
			return false
		}
		*t = Target{Effect: EffectStem, Net: f.Net, Val: f.Value,
			Conds: append(t.Conds[:0], Cond{Net: f.Net, Val: f.Value ^ 1})}
		if f.BranchGate != nil {
			t.Effect, t.Gate, t.Pin = EffectBranch, f.BranchGate, f.BranchPin
		}
		if f.Model == Transition {
			t.Inits = 1
		}
	case Bridge:
		if it.i > 1 {
			return false
		}
		va := uint8(1 - it.i) // victim 1 first
		*t = Target{Effect: EffectBridge, Net: f.Net, Other: f.Other,
			Conds: append(t.Conds[:0], Cond{Net: f.Net, Val: va}, Cond{Net: f.Other, Val: va ^ 1})}
	case CellAware:
		if !it.nextHost() {
			return false
		}
	default:
		return false
	}
	it.i++
	return true
}

// nextHost moves it.i to the cell-aware fault's next activating position,
// static assignments at positions 0 to n-1 and dynamic ones with a pair
// partner at n to 2n-1, and builds its target there.
func (it *Targets) nextHost() bool {
	b := it.f.Behavior
	if b == nil {
		return false
	}
	n := uint(1) << uint(b.Inputs)
	below := ^uint64(0) >> (64 - n) // the assignments 0 to n-1
	var a uint
	var inits uint64
	if m := (b.StaticMask & below) >> it.i; m != 0 {
		a = it.i + uint(bits.TrailingZeros64(m))
		it.i = a
	} else {
		rows := b.PairMask[:min(n, uint(len(b.PairMask)))]
		var cols uint64 // the assignments with a pair partner
		for _, pm := range rows {
			cols |= pm
		}
		it.i = max(it.i, n)
		m := (cols & below) >> (it.i - n)
		if m == 0 {
			return false
		}
		a = it.i - n + uint(bits.TrailingZeros64(m))
		it.i = n + a
		for a1, pm := range rows {
			inits |= (pm >> a & 1) << a1
		}
	}
	it.t = Target{Effect: EffectHost, Gate: it.f.Gate, Asg: a, Inits: inits,
		Conds: hostConds(it.t.Conds[:0], it.f.Gate, a)}
	return true
}

// Target returns the current target. It and its Conds stay valid until the
// next call of Next or Reset.
func (it *Targets) Target() *Target { return &it.t }
