package resyn

import (
	"bytes"
	"crypto/sha256"

	"dfmresyn/internal/flow"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/resilience"
)

// Candidate reuse (DESIGN.md §19).
//
// Between two commits the sweep synthesizes netlists it has already
// evaluated: after a q pass that ended on a blocked constraint, the next q
// re-synthesizes the same candidates from the same current design, and the
// delay-oriented retry and the backtracking groups re-produce earlier
// netlists. Every decision about a candidate reads only its evaluation,
// which is a function of the candidate netlist and the current design: the
// equivalence check compares the two netlists, the screen and PDesign()
// count sound verdicts whatever the cache holds, and the ECO placement
// matches gates to the current design by name, which a fresh name never
// matches. So the sweep memoizes evaluations until the next commit, and a
// repeat skips the equivalence check, the screen and PDesign(). A repeat
// the sweep commits is analyzed then, so the committed design and
// everything journaled from it are unchanged. The analyses left out read
// every verdict from the cache and stored none.

// evaluation is what the sweep's decisions read of one candidate: the
// screen's count and, for a candidate that passed the screen, PDesign()'s
// verdict — the design's U, |S_max|, F, delay and power, or an area
// violation.
type evaluation struct {
	uInt          int
	areaViolation bool
	u, smax, f    int
	delay, power  float64
}

// summarize takes an analyzed candidate's evaluation from its design.
func summarize(d *flow.Design, uInt int) evaluation {
	u, _ := undetectable(d)
	return evaluation{
		uInt:  uInt,
		u:     u,
		smax:  len(d.Clusters.Smax()),
		f:     d.Faults.Len(),
		delay: d.Timing.CriticalDelay,
		power: d.Power.Total,
	}
}

// settled reports whether an analysis classified every fault. An aborted
// fault was stored in no cache, so analyzing the design again would search
// it again rather than read every verdict back.
func settled(d *flow.Design) bool {
	c := d.Faults.Count()
	return c.Detected+c.Undetectable == c.Total
}

// testHookNoReuse, when set by a test, turns reuse off: every attempt is
// evaluated in full and every committed design screened, the reference
// path of the reuse oracle.
var testHookNoReuse bool

// reuseKey fingerprints a candidate netlist: the SHA-256 of its exact-order
// encoding (the journal's codec) with the attempt's fresh gate-name prefix
// replaced by a byte no encoded name contains. Two attempts that synthesize
// the same netlist differ only in their prefixes, so they share a key; a
// fresh name can not collide with an old one, as it could if the prefix
// were simply dropped. ok is false when reuse is off or the netlist has no
// exact encoding.
func reuseKey(c *netlist.Circuit, prefix string) (key [32]byte, ok bool) {
	if testHookNoReuse {
		return key, false
	}
	var b bytes.Buffer
	if err := netlist.WriteExact(&b, c); err != nil {
		return key, false
	}
	// Names are the only tokens that can start with the prefix, and every
	// name follows a space.
	return sha256.Sum256(bytes.ReplaceAll(b.Bytes(), []byte(" "+prefix), []byte(" \x00"))), true
}

// remember memoizes a candidate's evaluation. Nothing is memoized once the
// run's context is done: a cancelled screen's count is only a lower bound.
func (s *state) remember(key [32]byte, keyed bool, ev evaluation) {
	if keyed && resilience.Err(s.env.Ctx) == nil {
		s.memo[key] = ev
	}
}

// reuse replays a repeated candidate's evaluation against the current
// iteration's target, with the effect a full evaluation has on the sweep
// state. A candidate the sweep would commit is analyzed now.
func (s *state) reuse(newC *netlist.Circuit, ev evaluation, t target) (candidate, attemptStatus) {
	s.iterReused++
	s.env.Obs.Counter("resyn/candidates_reused").Inc()
	switch {
	case ev.uInt >= t.uInt:
		return candidate{}, attemptNoUIntGain
	case ev.areaViolation:
		s.constraintBlocked = true
		return candidate{}, attemptAreaViolation
	case !s.accepts(ev, t) || !s.constraintsOK(ev):
		return candidate{ev: ev}, attemptOK
	}
	return s.analyze(newC, ev.uInt)
}
