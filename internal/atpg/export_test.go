package atpg

// FaultRand lets the external tests build a search's rng the way Run does.
var FaultRand = faultRand
