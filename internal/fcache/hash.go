package fcache

import (
	"dfmresyn/internal/fault"
	"dfmresyn/internal/library"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/switchsim"
)

// The hasher computes, in two O(circuit) passes, the ingredients of every
// fault key:
//
//   - tfi[net]: a hash of the net's transitive fanin as an unfolded tree —
//     cell types, pin order, and the *identity* (PI-list index) of every
//     primary input at the leaves. Two nets with equal tfi hashes compute
//     the same Boolean function of the same PIs, so joint properties
//     (bridge activation, side-input conditions) are preserved, not just
//     per-net shape.
//   - gateSig[gate]: the cell type combined with the tfi of each fanin in
//     pin order — everything activation and local propagation at the gate
//     depends on.
//   - cone[net]: a hash of the net's influence cone — for every fanout path
//     to a primary output, the sink pin positions, the sink gates'
//     signatures (which fold in the side inputs' tfi hashes), and which
//     nets along the way are POs. Fanout branches are combined with a
//     commutative per-limb sum so that fanout *enumeration order*, which a
//     rebuild may permute for untouched logic, does not disturb the key.
//
// A fault key combines the model, the model-specific parameters, and the
// tfi/cone/gateSig hashes of its site(s). Everything the Boolean predicate
// "is this fault detectable" depends on is folded in; net and gate IDs,
// names, and anything else a rebuild renumbers are not.

// Domain-separation tags for the different hash inputs.
const (
	tagPI     = 0x9e3779b97f4a7c15
	tagGate   = 0xc2b2ae3d27d4eb4f
	tagPO     = 0x165667b19e3779f9
	tagSink   = 0x27d4eb2f165667c5
	tagCone   = 0x85ebca77c2b2ae63
	tagFault  = 0xff51afd7ed558ccd
	tagBranch = 0xc4ceb9fe1a85ec53
)

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// absorb folds one word into a key, order-sensitively.
func absorb(k Key, v uint64) Key {
	k[0] = mix64(k[0] ^ v)
	k[1] = mix64(k[1] ^ (v * 0x9e3779b97f4a7c15) ^ k[0])
	return k
}

// combine folds a whole key into another, order-sensitively.
func combine(k, o Key) Key {
	return absorb(absorb(k, o[0]), o[1])
}

// addKey combines two keys commutatively (per-limb wrapping sum). Used only
// across a net's fanout branches, where enumeration order is not meaningful.
func addKey(a, b Key) Key {
	a[0] += b[0]
	a[1] += b[1]
	return a
}

// Hasher holds the per-net structural hashes of one circuit. Construction
// is O(gates + nets); FaultKey is O(1) per fault. FaultKey memoizes each
// cell-aware behaviour's key prefix in the Hasher, so a Hasher is not safe
// for concurrent use: one goroutine at a time may call FaultKey.
type Hasher struct {
	c       *netlist.Circuit
	tfi     []Key
	cone    []Key
	gateSig []Key
	// behavior maps a cell-aware behaviour to the key state after its
	// fields are absorbed: every fault of one behaviour continues from it.
	// Behaviours are shared, immutable library-profile entries, so one
	// pointer always stands for the same fields.
	behavior map[*switchsim.Behavior]Key
}

// NewHasher computes the structural hashes of the circuit. The circuit must
// be acyclic (it is levelized internally).
func NewHasher(c *netlist.Circuit) *Hasher {
	h := &Hasher{
		c:        c,
		tfi:      make([]Key, len(c.Nets)),
		cone:     make([]Key, len(c.Nets)),
		gateSig:  make([]Key, len(c.Gates)),
		behavior: make(map[*switchsim.Behavior]Key),
	}
	order := c.Levelize()

	// Pass 1, forward: tfi and gateSig.
	cellTag := make(map[*library.Cell]uint64)
	for i, pi := range c.PIs {
		h.tfi[pi.ID] = absorb(absorb(Key{}, tagPI), uint64(i))
	}
	for _, g := range order {
		ct, ok := cellTag[g.Type]
		if !ok {
			ct = hashString(g.Type.Name)
			cellTag[g.Type] = ct
		}
		k := absorb(absorb(Key{}, tagGate), ct)
		for _, in := range g.Fanin {
			k = combine(k, h.tfi[in.ID])
		}
		h.gateSig[g.ID] = k
		h.tfi[g.Out.ID] = k
	}

	// Pass 2, reverse: cone. A net's fanout gates are strictly later in
	// topological order than its driver, so walking gates in reverse order
	// guarantees every sink's output cone is ready.
	for i := len(order) - 1; i >= 0; i-- {
		g := order[i]
		h.cone[g.Out.ID] = h.coneOf(g.Out)
	}
	for _, pi := range c.PIs {
		h.cone[pi.ID] = h.coneOf(pi)
	}
	return h
}

func (h *Hasher) coneOf(n *netlist.Net) Key {
	sum := absorb(Key{}, tagCone)
	if n.IsPO {
		sum = addKey(sum, absorb(Key{}, tagPO))
	}
	for _, p := range n.Fanout {
		k := absorb(absorb(Key{}, tagSink), uint64(p.Pin))
		k = combine(k, h.gateSig[p.Gate.ID])
		k = combine(k, h.cone[p.Gate.Out.ID])
		sum = addKey(sum, k)
	}
	return sum
}

func hashString(s string) uint64 {
	// FNV-1a, then scrambled: cell names are short and similar.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	x := uint64(offset)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= prime
	}
	return mix64(x)
}

// liveNet reports whether n belongs to the hasher's circuit generation
// (pointer identity at its claimed ID — the same check netlint's
// fault/live-site rule uses).
func (h *Hasher) liveNet(n *netlist.Net) bool {
	return n != nil && n.ID >= 0 && n.ID < len(h.c.Nets) && h.c.Nets[n.ID] == n
}

func (h *Hasher) liveGate(g *netlist.Gate) bool {
	return g != nil && g.ID >= 0 && g.ID < len(h.c.Gates) && h.c.Gates[g.ID] == g && g.Out != nil
}

// FaultKey returns the cache key of f against the hasher's circuit, or the
// zero Key when the fault cannot be keyed (site from another circuit
// generation, missing behavior). The key is a pure function of the fault's
// support-cone structure and the fault parameters.
func (h *Hasher) FaultKey(f *fault.Fault) Key {
	if f == nil {
		return Key{}
	}
	if f.Model == fault.CellAware {
		return h.cellAwareKey(f)
	}
	k := absorb(absorb(Key{}, tagFault), uint64(f.Model))
	switch f.Model {
	case fault.StuckAt, fault.Transition:
		if !h.liveNet(f.Net) {
			return Key{}
		}
		k = absorb(k, uint64(f.Value))
		k = combine(k, h.tfi[f.Net.ID])
		k = combine(k, h.cone[f.Net.ID])
		if f.BranchGate != nil {
			if !h.liveGate(f.BranchGate) {
				return Key{}
			}
			k = absorb(absorb(k, tagBranch), uint64(f.BranchPin))
			k = combine(k, h.gateSig[f.BranchGate.ID])
			k = combine(k, h.cone[f.BranchGate.Out.ID])
		}
		return k
	case fault.Bridge:
		if !h.liveNet(f.Net) || !h.liveNet(f.Other) {
			return Key{}
		}
		k = combine(k, h.tfi[f.Net.ID])
		k = combine(k, h.cone[f.Net.ID])
		k = combine(k, h.tfi[f.Other.ID])
		k = combine(k, h.cone[f.Other.ID])
		return k
	}
	return Key{}
}

// cellAwareKey is FaultKey of a cell-aware fault: the model, the
// behaviour's fields, then the host gate's signature and output cone. The
// prefix up to the behaviour is the same for every fault of one behaviour,
// so it is absorbed once per Hasher and continued from.
func (h *Hasher) cellAwareKey(f *fault.Fault) Key {
	if !h.liveGate(f.Gate) || f.Behavior == nil {
		return Key{}
	}
	k, ok := h.behavior[f.Behavior]
	if !ok {
		k = behaviorPrefix(f.Behavior)
		h.behavior[f.Behavior] = k
	}
	k = combine(k, h.gateSig[f.Gate.ID])
	return combine(k, h.cone[f.Gate.Out.ID])
}

// behaviorPrefix absorbs the cell-aware model tag and a behaviour's fields:
// the input count, the static mask, the pattern-pair mask's length and its
// words.
func behaviorPrefix(b *switchsim.Behavior) Key {
	k := absorb(absorb(Key{}, tagFault), uint64(fault.CellAware))
	k = absorb(absorb(k, uint64(b.Inputs)), b.StaticMask)
	k = absorb(k, uint64(len(b.PairMask)))
	for _, pm := range b.PairMask {
		k = absorb(k, pm)
	}
	return k
}
