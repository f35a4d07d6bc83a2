// Package sat implements a small, deterministic CDCL SAT solver used as the
// escalation tier behind the PODEM test generator: when a backtrack-limited
// search gives up on a hard fault, the fault's cone is Tseitin-encoded and
// handed to this solver for a definitive satisfiable (test exists) or
// unsatisfiable (fault undetectable) verdict.
//
// The solver is conventional conflict-driven clause learning: two-watched-
// literal unit propagation, first-UIP conflict analysis with non-chronological
// backjumping, and activity-driven decision ordering. Everything is exactly
// deterministic — activity ties break on the lowest variable index, there is
// no randomization, no restarts, and no time-based heuristics — so a given
// clause set always produces the same verdict, the same model, and the same
// statistics, regardless of the host machine or worker scheduling. That
// property is what lets the ATPG engine run escalations inside its parallel
// batches while keeping every table byte-identical at any worker count.
package sat

// Lit is a literal: variable index v shifted left once, with the low bit set
// for the negated polarity. The zero value is the positive literal of
// variable 0.
type Lit int32

// MkLit builds the literal over variable v, negated when neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit builds the literal asserting variable v true when val is 1, false
// when val is 0.
func PosLit(v int, val uint8) Lit { return MkLit(v, val == 0) }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Stats counts the work one Solve performed (cumulative across calls).
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int64 // learned clauses added
}

const (
	valUnassigned int8 = 0
	valTrue       int8 = 1
	valFalse      int8 = -1
)

// reason sentinel: the assignment is a decision (or a root-level unit).
const noReason int32 = -1

// Solver is a single-use CDCL instance: add variables and clauses, then call
// Solve once. (Repeated Solve calls are permitted and deterministic, but the
// ATPG escalator builds a fresh instance per fault cone.)
type Solver struct {
	clauses  [][]Lit   // problem + learned clauses; first two literals are watched
	watches  [][]int32 // per literal, indices into clauses watching it
	assign   []int8    // per variable
	level    []int32   // per variable, decision level of its assignment
	reason   []int32   // per variable, clause index that implied it, or noReason
	activity []float64 // per variable, VSIDS-style activity
	phase    []int8    // per variable, saved last polarity (valTrue/valFalse)
	trail    []Lit
	trailLim []int32 // trail index at each decision level
	qhead    int

	varInc float64
	unsat  bool // an empty clause was added

	seen    []bool // conflict-analysis scratch
	stats   Stats
	nlearnt int
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, valUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, valFalse)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return v
}

// value returns the current value of literal l.
func (s *Solver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if l.Sign() {
		return -v
	}
	return v
}

// AddClause adds a clause over the given literals. Duplicate literals are
// merged and tautologies dropped; an empty clause (or a unit contradicting a
// prior unit) makes the formula trivially unsatisfiable. Clauses must be
// added before Solve.
func (s *Solver) AddClause(lits ...Lit) {
	if s.unsat {
		return
	}
	// Sort-free dedup/tautology scan; clauses here are short (<= ~8 lits).
	out := lits[:0:0]
	for _, l := range lits {
		if s.value(l) == valTrue {
			return // already satisfied by a root-level unit
		}
		if s.value(l) == valFalse {
			continue // falsified at root level: drop the literal
		}
		dup, taut := false, false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.Neg() {
				taut = true
				break
			}
		}
		if taut {
			return
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsat = true
	case 1:
		if !s.enqueue(out[0], noReason) {
			s.unsat = true
			return
		}
		if s.propagate() >= 0 {
			s.unsat = true
		}
	default:
		s.attach(out)
	}
}

// attach stores a clause and watches its first two literals.
func (s *Solver) attach(c []Lit) int32 {
	ci := int32(len(s.clauses))
	s.clauses = append(s.clauses, c)
	s.watches[c[0]] = append(s.watches[c[0]], ci)
	s.watches[c[1]] = append(s.watches[c[1]], ci)
	return ci
}

// enqueue records l as true with the given reason. Returns false when l is
// already false (a conflict the caller must handle).
func (s *Solver) enqueue(l Lit, from int32) bool {
	switch s.value(l) {
	case valTrue:
		return true
	case valFalse:
		return false
	}
	v := l.Var()
	if l.Sign() {
		s.assign[v] = valFalse
	} else {
		s.assign[v] = valTrue
	}
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs two-watched-literal unit propagation from the queue head.
// It returns the index of a conflicting clause, or -1.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; clauses watching ¬p may propagate
		s.qhead++
		s.stats.Propagations++
		np := p.Neg()
		ws := s.watches[np]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			c := s.clauses[ci]
			// Normalize: the falsified watch sits at c[1].
			if c[0] == np {
				c[0], c[1] = c[1], c[0]
			}
			if s.value(c[0]) == valTrue {
				kept = append(kept, ci)
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(c); k++ {
				if s.value(c[k]) != valFalse {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1]] = append(s.watches[c[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, ci)
			if !s.enqueue(c[0], ci) {
				// Conflict: keep the remaining watchers and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[np] = kept
				s.qhead = len(s.trail)
				return ci
			}
		}
		s.watches[np] = kept
	}
	return -1
}

// bumpVar increases a variable's activity, rescaling on overflow.
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze derives the first-UIP learned clause from a conflict and returns
// it with the backjump level. The learned clause's asserting literal is at
// index 0.
func (s *Solver) analyze(confl int32) ([]Lit, int32) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	idx := len(s.trail) - 1
	var p Lit
	havep := false
	curLevel := int32(len(s.trailLim))

	for {
		c := s.clauses[confl]
		start := 0
		if havep {
			start = 1 // c[0] is p itself on reason clauses
		}
		for _, q := range c[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail back to the next marked literal.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		havep = true
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[v]
	}
	learnt[0] = p.Neg()

	// Backjump level: the highest level among the non-asserting literals.
	blevel := int32(0)
	swap := 1
	for i := 1; i < len(learnt); i++ {
		if lv := s.level[learnt[i].Var()]; lv > blevel {
			blevel = lv
			swap = i
		}
	}
	if len(learnt) > 1 {
		learnt[1], learnt[swap] = learnt[swap], learnt[1]
	}
	for _, l := range learnt[1:] {
		s.seen[l.Var()] = false
	}
	return learnt, blevel
}

// cancelUntil undoes every assignment above the given decision level.
func (s *Solver) cancelUntil(lvl int32) {
	if int32(len(s.trailLim)) <= lvl {
		return
	}
	bound := int(s.trailLim[lvl])
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v]
		s.assign[v] = valUnassigned
		s.reason[v] = noReason
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = bound
}

// pickBranchVar returns the unassigned variable with the highest activity,
// breaking ties on the lowest index (the determinism anchor). Returns -1
// when every variable is assigned.
func (s *Solver) pickBranchVar() int {
	best := -1
	bestAct := -1.0
	for v := 0; v < len(s.assign); v++ {
		if s.assign[v] != valUnassigned && s.activity[v] <= bestAct {
			continue
		}
		if s.assign[v] == valUnassigned && s.activity[v] > bestAct {
			best = v
			bestAct = s.activity[v]
		}
	}
	return best
}

// Solve runs the CDCL search to completion and reports satisfiability. The
// search is complete — there is no conflict or time budget — so false is a
// proof of unsatisfiability. After a true result, Value reads the model.
func (s *Solver) Solve() bool {
	if s.unsat {
		return false
	}
	if confl := s.propagate(); confl >= 0 {
		s.unsat = true
		return false
	}
	for {
		confl := s.propagate()
		if confl >= 0 {
			s.stats.Conflicts++
			if len(s.trailLim) == 0 {
				s.unsat = true
				return false // conflict at root level
			}
			learnt, blevel := s.analyze(confl)
			s.cancelUntil(blevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], noReason)
			} else {
				ci := s.attach(learnt)
				s.stats.Learned++
				s.nlearnt++
				s.enqueue(learnt[0], ci)
			}
			s.varInc *= 1 / 0.95 // decay: relatively boost recent activity
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return true // full model
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.enqueue(MkLit(v, s.phase[v] != valTrue), noReason)
	}
}

// Value returns the model value of variable v after a satisfiable Solve.
func (s *Solver) Value(v int) bool { return s.assign[v] == valTrue }

// Stats returns the cumulative search statistics.
func (s *Solver) Stats() Stats { return s.stats }
