package atpg

// FaultRand lets the external tests build a search's rng the way Run does.
var FaultRand = faultRand

// RandomBlock lets the external tests draw Run's random pattern blocks.
var RandomBlock = randomBlock

// SetStaticFirst makes Run screen before the random patterns (on) or after
// them (off, the default order).
func SetStaticFirst(on bool) { testHookStaticFirst = on }
