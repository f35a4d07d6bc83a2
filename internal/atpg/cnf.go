// SAT escalation tier: when a backtrack-limited PODEM search gives up on a
// fault (LimitExceeded), the fault's support/output cone is Tseitin-encoded
// into CNF and handed to the deterministic CDCL solver in internal/sat for a
// definitive verdict — FoundTest with a witness vector, or ProvenImpossible.
// Like PODEM, the escalator solves the fault's detection targets
// (fault.Targets) in order, so it answers exactly the questions the search
// was asking.
//
// Encoding sketch. Two copies of the relevant circuit slice share variables
// outside the fault-effect cone:
//
//   - good variables cover the transitive fanin closure of the cone's gate
//     supports, the excitation/justification condition nets, and (for
//     bridges) the aggressor — every net whose good value can influence
//     detection. Each driven net gets one consistency clause per input
//     assignment of its gate's truth table (<= 2^6 clauses of <= 7 literals).
//   - faulty variables cover only the cone (the fault site and its
//     transitive fanout); outside the cone faulty equals good, so cone gates
//     read side inputs directly from the good variables.
//   - the site's faulty value carries the target's effect: a stem stuck-at
//     is a unit clause, a fanout-branch fault re-evaluates its gate with the
//     branch pin pinned, a bridge equates the victim's faulty value with the
//     aggressor's good value, and a cell-aware host complements its output.
//     The target's conditions are unit clauses on good values.
//   - one difference variable per cone primary output is constrained to
//     imply good != faulty there, and the detection clause demands at least
//     one difference. A cone that reaches no primary output is undetectable
//     without solving.
package atpg

import (
	"math/bits"
	"math/rand"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/sat"
)

// SATStats accounts for the solver work one escalation spent.
type SATStats struct {
	// Solves counts CDCL runs (a multi-instance fault — transition,
	// bridge, cell-aware — may need several).
	Solves int
	// Conflicts / Decisions / Propagations total the solver's search
	// effort across those runs.
	Conflicts    int64
	Decisions    int64
	Propagations int64
}

// Escalator encodes faults over one circuit and resolves them with the CDCL
// solver. It is stateless across faults (each Resolve builds fresh solver
// instances), so one escalator may be shared by concurrent workers.
type Escalator struct {
	c *netlist.Circuit
}

// NewEscalator prepares an escalation tier over c.
func NewEscalator(c *netlist.Circuit) *Escalator {
	return &Escalator{c: c}
}

// Resolve runs the complete SAT escalation for fault f and returns a
// definitive FoundTest (with a witness; unconstrained primary inputs are
// filled from rng) or ProvenImpossible — never LimitExceeded: the solver is
// complete and has no budget. The verdict and witness are a pure function of
// (circuit, fault, implication engine, rng stream), independent of worker
// scheduling.
func (e *Escalator) Resolve(f *fault.Fault, rng *rand.Rand) (SearchOutcome, *TestVec, SATStats) {
	st := SATStats{}
	var it fault.Targets
	it.Reset(f)
	for it.Next() {
		t := it.Target()
		vec, ok := e.solveDetect(t, &st, rng)
		if !ok {
			continue
		}
		if t.Inits == 0 {
			return FoundTest, &TestVec{Vec: vec}, st
		}
		for m := t.Inits; m != 0; m &= m - 1 {
			if init, ok := e.solveJustify(t.InitConds(nil, uint(bits.TrailingZeros64(m))), &st, rng); ok {
				return FoundTest, &TestVec{Init: init, Vec: vec}, st
			}
		}
	}
	return ProvenImpossible, nil, st
}

// cnfInst is one CNF instance under construction: the variable maps from
// nets to solver variables.
type cnfInst struct {
	c    *netlist.Circuit
	s    *sat.Solver
	gvar []int32 // per net: good-circuit variable, -1 when absent
	fvar []int32 // per net: faulty-circuit variable (cone only), -1 when absent
	cone []bool
}

// solveDetect builds and solves the detection instance of target t. It
// returns the witness vector and true on SAT; false is a proof that no
// vector meets t.
func (e *Escalator) solveDetect(t *fault.Target, st *SATStats, rng *rand.Rand) ([]uint8, bool) {
	c := e.c
	site := t.Site()

	// Fault-effect cone: the site and its transitive fanout.
	cone := make([]bool, len(c.Nets))
	cone[site.ID] = true
	queue := []*netlist.Net{site}
	anyPO := false
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.IsPO {
			anyPO = true
		}
		for _, pin := range n.Fanout {
			out := pin.Gate.Out
			if !cone[out.ID] {
				cone[out.ID] = true
				queue = append(queue, out)
			}
		}
	}
	if !anyPO {
		return nil, false // effect cannot reach an output: undetectable
	}

	// Good support: condition nets, the aggressor, the site, every cone
	// gate's fanins, and every cone primary output (for the difference
	// clauses), closed under transitive fanin.
	need := make([]bool, len(c.Nets))
	var stack []*netlist.Net
	mark := func(n *netlist.Net) {
		if !need[n.ID] {
			need[n.ID] = true
			stack = append(stack, n)
		}
	}
	for _, cd := range t.Conds {
		mark(cd.Net)
	}
	if t.Effect == fault.EffectBridge {
		mark(t.Other)
	}
	mark(site)
	for _, g := range c.Gates {
		if !cone[g.Out.ID] {
			continue
		}
		mark(g.Out)
		for _, in := range g.Fanin {
			mark(in)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Driver != nil {
			for _, in := range n.Driver.Fanin {
				mark(in)
			}
		}
	}

	ci := &cnfInst{c: c, s: sat.New(), cone: cone}
	ci.allocVars(need)

	// Good-circuit consistency for every supported driven net.
	for _, n := range c.Nets {
		if need[n.ID] && n.Driver != nil {
			ci.gateClauses(n.Driver, ci.gvar[n.ID], ci.gvarsOf(n.Driver), -1, 0)
		}
	}

	// Faulty-circuit consistency over the cone. The site carries the
	// injection; downstream cone gates re-evaluate with cone fanins read
	// from the faulty variables and side inputs from the good ones.
	for _, n := range c.Nets {
		if !cone[n.ID] {
			continue
		}
		if n == site {
			ci.injectSite(t, n)
			continue
		}
		ci.gateClauses(n.Driver, ci.fvar[n.ID], ci.mixedVarsOf(n.Driver), -1, 0)
	}

	// Excitation / activation conditions as unit clauses on good values.
	for _, cd := range t.Conds {
		ci.s.AddClause(sat.PosLit(int(ci.gvar[cd.Net.ID]), cd.Val))
	}

	// Detection: at least one cone primary output must differ.
	var diffs []sat.Lit
	for _, po := range c.POs {
		if !cone[po.ID] {
			continue
		}
		d := ci.s.NewVar()
		g := int(ci.gvar[po.ID])
		f := int(ci.fvar[po.ID])
		// d -> (g != f), i.e. (¬d ∨ g ∨ f) ∧ (¬d ∨ ¬g ∨ ¬f).
		ci.s.AddClause(sat.MkLit(d, true), sat.MkLit(g, false), sat.MkLit(f, false))
		ci.s.AddClause(sat.MkLit(d, true), sat.MkLit(g, true), sat.MkLit(f, true))
		diffs = append(diffs, sat.MkLit(d, false))
	}
	ci.s.AddClause(diffs...)
	return ci.solve(st, rng)
}

// solveJustify builds and solves a pure good-circuit justification instance
// (transition initialization, cell-aware pair initialization): find an input
// vector under which every condition net holds its required value.
func (e *Escalator) solveJustify(conds []fault.Cond, st *SATStats, rng *rand.Rand) ([]uint8, bool) {
	c := e.c
	need := make([]bool, len(c.Nets))
	var stack []*netlist.Net
	mark := func(n *netlist.Net) {
		if !need[n.ID] {
			need[n.ID] = true
			stack = append(stack, n)
		}
	}
	for _, cd := range conds {
		mark(cd.Net)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Driver != nil {
			for _, in := range n.Driver.Fanin {
				mark(in)
			}
		}
	}
	ci := &cnfInst{c: c, s: sat.New(), cone: make([]bool, len(c.Nets))}
	ci.allocVars(need)
	for _, n := range c.Nets {
		if need[n.ID] && n.Driver != nil {
			ci.gateClauses(n.Driver, ci.gvar[n.ID], ci.gvarsOf(n.Driver), -1, 0)
		}
	}
	for _, cd := range conds {
		ci.s.AddClause(sat.PosLit(int(ci.gvar[cd.Net.ID]), cd.Val))
	}
	return ci.solve(st, rng)
}

// allocVars assigns solver variables in net-ID order (good first, then
// faulty) — a fixed order, so variable numbering and therefore the solver's
// trajectory are deterministic.
func (ci *cnfInst) allocVars(need []bool) {
	ci.gvar = make([]int32, len(ci.c.Nets))
	ci.fvar = make([]int32, len(ci.c.Nets))
	for i := range ci.gvar {
		ci.gvar[i], ci.fvar[i] = -1, -1
	}
	for _, n := range ci.c.Nets {
		if need[n.ID] {
			ci.gvar[n.ID] = int32(ci.s.NewVar())
		}
	}
	for _, n := range ci.c.Nets {
		if ci.cone[n.ID] {
			ci.fvar[n.ID] = int32(ci.s.NewVar())
		}
	}
}

// gvarsOf returns the good variables of a gate's fanins.
func (ci *cnfInst) gvarsOf(g *netlist.Gate) []int32 {
	vars := make([]int32, len(g.Fanin))
	for i, in := range g.Fanin {
		vars[i] = ci.gvar[in.ID]
	}
	return vars
}

// mixedVarsOf returns a cone gate's fanin variables: faulty inside the cone,
// good outside (where faulty equals good).
func (ci *cnfInst) mixedVarsOf(g *netlist.Gate) []int32 {
	vars := make([]int32, len(g.Fanin))
	for i, in := range g.Fanin {
		if ci.cone[in.ID] {
			vars[i] = ci.fvar[in.ID]
		} else {
			vars[i] = ci.gvar[in.ID]
		}
	}
	return vars
}

// gateClauses emits the consistency clauses tying outVar to gate g's
// function of inVars: one clause per input assignment. forcedPin >= 0 pins
// that input to forcedVal inside the function (the fanout-branch injection)
// and drops it from the clauses — the faulty gate simply computes a
// one-variable-smaller function.
func (ci *cnfInst) gateClauses(g *netlist.Gate, outVar int32, inVars []int32, forcedPin int, forcedVal uint8) {
	n := len(g.Fanin)
	tt := g.Type.TT
	lits := make([]sat.Lit, 0, n+1)
	for a := uint(0); a < 1<<uint(n); a++ {
		if forcedPin >= 0 && uint8(a>>uint(forcedPin)&1) != forcedVal {
			continue
		}
		lits = lits[:0]
		for i := 0; i < n; i++ {
			if i == forcedPin {
				continue
			}
			// "some input differs from a" escapes the clause...
			lits = append(lits, sat.PosLit(int(inVars[i]), uint8(a>>uint(i)&1)).Neg())
		}
		// ...otherwise the output takes the table value.
		lits = append(lits, sat.PosLit(int(outVar), tt.Eval(a)))
		ci.s.AddClause(lits...)
	}
}

// injectSite emits the faulty-value definition of target t's site.
func (ci *cnfInst) injectSite(t *fault.Target, site *netlist.Net) {
	fv := int(ci.fvar[site.ID])
	switch t.Effect {
	case fault.EffectStem:
		// Stem stuck-at: the faulty value is the stuck value, period.
		ci.s.AddClause(sat.PosLit(fv, t.Val))
	case fault.EffectBridge:
		// Dominant bridge: the victim assumes the aggressor's good value.
		src := int(ci.gvar[t.Other.ID])
		ci.s.AddClause(sat.MkLit(fv, true), sat.MkLit(src, false))
		ci.s.AddClause(sat.MkLit(fv, false), sat.MkLit(src, true))
	case fault.EffectBranch:
		// Fanout-branch stuck-at: the site gate re-evaluates with the
		// branch pin pinned to the stuck value.
		ci.gateClauses(t.Gate, ci.fvar[site.ID], ci.mixedVarsOf(t.Gate), t.Pin, t.Val)
	case fault.EffectHost:
		// Cell-aware host: under its activation condition (the target's
		// conditions) the output complements.
		gv := int(ci.gvar[site.ID])
		ci.s.AddClause(sat.MkLit(fv, false), sat.MkLit(gv, false))
		ci.s.AddClause(sat.MkLit(fv, true), sat.MkLit(gv, true))
	}
}

// solve runs the instance and, on SAT, extracts the witness vector over the
// circuit's primary inputs: encoded inputs read the model, the rest fill
// from rng (exactly like PODEM's fillVector).
func (ci *cnfInst) solve(st *SATStats, rng *rand.Rand) ([]uint8, bool) {
	before := ci.s.Stats()
	ok := ci.s.Solve()
	after := ci.s.Stats()
	st.Solves++
	st.Conflicts += after.Conflicts - before.Conflicts
	st.Decisions += after.Decisions - before.Decisions
	st.Propagations += after.Propagations - before.Propagations
	if !ok {
		return nil, false
	}
	vec := make([]uint8, len(ci.c.PIs))
	for i, pi := range ci.c.PIs {
		if v := ci.gvar[pi.ID]; v >= 0 {
			if ci.s.Value(int(v)) {
				vec[i] = 1
			}
		} else {
			vec[i] = uint8(rng.Intn(2))
		}
	}
	return vec, true
}
