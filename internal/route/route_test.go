package route

import (
	"math/rand"
	"testing"

	"dfmresyn/internal/geom"
	"dfmresyn/internal/library"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/place"
)

var lib = library.OSU018Like()

func randomCircuit(t testing.TB, seed int64, gates int) *netlist.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"NAND2X1", "NOR2X1", "INVX1", "AND2X2", "XOR2X1"}
	c := netlist.New("r", lib)
	var nets []*netlist.Net
	for i := 0; i < 6; i++ {
		nets = append(nets, c.AddPI(string(rune('a'+i))))
	}
	for i := 0; i < gates; i++ {
		cell := lib.ByName(names[rng.Intn(len(names))])
		fanin := make([]*netlist.Net, cell.NumInputs())
		for j := range fanin {
			fanin[j] = nets[rng.Intn(len(nets))]
		}
		nets = append(nets, c.AddGate("", cell, fanin...))
	}
	c.MarkPO(nets[len(nets)-1])
	c.MarkPO(nets[len(nets)-2])
	return c
}

func routed(t *testing.T, seed int64, gates int) *Layout {
	t.Helper()
	c := randomCircuit(t, seed, gates)
	p, err := place.Place(c, 0.70, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Route(p)
}

// TestRouteConnectivity: every net's routed tree must touch all terminals
// and be connected.
func TestRouteConnectivity(t *testing.T) {
	lay := routed(t, 1, 80)
	for _, n := range lay.P.C.Nets {
		terms := lay.P.NetTerminals(n)
		r := &lay.Routes[n.ID]
		if len(dedupTestPts(terms)) < 2 {
			continue
		}
		// Build a union-find over segment-covered points.
		parent := map[geom.Pt]geom.Pt{}
		var find func(p geom.Pt) geom.Pt
		find = func(p geom.Pt) geom.Pt {
			if parent[p] == p {
				return p
			}
			r := find(parent[p])
			parent[p] = r
			return r
		}
		add := func(p geom.Pt) {
			if _, ok := parent[p]; !ok {
				parent[p] = p
			}
		}
		union := func(a, b geom.Pt) {
			add(a)
			add(b)
			ra, rb := find(a), find(b)
			if ra != rb {
				parent[ra] = rb
			}
		}
		for _, s := range r.Segs {
			dx := sign(s.B.X - s.A.X)
			dy := sign(s.B.Y - s.A.Y)
			prev := s.A
			add(prev)
			for p := s.A; p != s.B; {
				p = p.Add(dx, dy)
				union(prev, p)
				prev = p
			}
		}
		// All terminals in one component.
		add(terms[0])
		root := find(terms[0])
		for _, tm := range terms[1:] {
			add(tm)
			if find(tm) != root {
				t.Fatalf("net %s: terminal %v disconnected", n.Name, tm)
			}
		}
	}
}

// TestSegmentsAxisAlignedAndLayered: horizontal on M2, vertical on M3.
func TestSegmentsAxisAlignedAndLayered(t *testing.T) {
	lay := routed(t, 2, 60)
	for _, r := range lay.Routes {
		for _, s := range r.Segs {
			if s.A.X != s.B.X && s.A.Y != s.B.Y {
				t.Fatalf("net %s: diagonal segment %+v", r.Net.Name, s)
			}
			if s.Horizontal() && s.Layer != M2 {
				t.Errorf("net %s: horizontal segment on %v", r.Net.Name, s.Layer)
			}
			if !s.Horizontal() && s.A != s.B && s.Layer != M3 {
				t.Errorf("net %s: vertical segment on %v", r.Net.Name, s.Layer)
			}
			if s.Len() == 0 {
				t.Errorf("net %s: zero-length segment", r.Net.Name)
			}
		}
	}
}

// TestOccupancyMatchesSegments: every segment cell appears in the occupancy
// map for its net.
func TestOccupancyMatchesSegments(t *testing.T) {
	lay := routed(t, 3, 60)
	for _, r := range lay.Routes {
		for _, s := range r.Segs {
			dx := sign(s.B.X - s.A.X)
			dy := sign(s.B.Y - s.A.Y)
			for p := s.A; ; p = p.Add(dx, dy) {
				if lay.P.Die.Contains(p) {
					found := false
					for _, id := range lay.At(s.Layer, p) {
						if id == int32(r.Net.ID) {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("net %s: cell %v on %v missing from occupancy", r.Net.Name, p, s.Layer)
					}
				}
				if p == s.B {
					break
				}
			}
		}
	}
}

// TestViasAtLayerTransitions: every multi-segment connection has vias, and
// via layer pairs are adjacent.
func TestViasSane(t *testing.T) {
	lay := routed(t, 4, 60)
	totalVias := 0
	for _, r := range lay.Routes {
		for _, v := range r.Vias {
			if v.From >= v.To {
				t.Errorf("net %s: via stack order %v->%v", r.Net.Name, v.From, v.To)
			}
			totalVias++
		}
		if len(r.Segs) > 0 && len(r.Vias) == 0 {
			t.Errorf("net %s: segments without any pin via", r.Net.Name)
		}
	}
	if totalVias == 0 {
		t.Fatal("routed design has no vias at all")
	}
	if lay.TotalVias() != totalVias {
		t.Errorf("TotalVias = %d, counted %d", lay.TotalVias(), totalVias)
	}
}

func TestWirelengthPositiveAndDeterministic(t *testing.T) {
	l1 := routed(t, 5, 70)
	l2 := routed(t, 5, 70)
	if l1.TotalWireLength() == 0 {
		t.Fatal("zero wirelength")
	}
	if l1.TotalWireLength() != l2.TotalWireLength() || l1.TotalVias() != l2.TotalVias() {
		t.Error("routing not deterministic")
	}
}

// TestCongestionAwareness: the router must spread nets — the maximum
// occupancy should stay moderate on an uncongested design.
func TestCongestionAwareness(t *testing.T) {
	lay := routed(t, 6, 100)
	maxOcc := 0
	for li := 0; li < 2; li++ {
		for y := range lay.Occ[li] {
			for x := range lay.Occ[li][y] {
				if n := len(lay.Occ[li][y][x]); n > maxOcc {
					maxOcc = n
				}
			}
		}
	}
	if maxOcc == 0 {
		t.Fatal("no occupancy recorded")
	}
	if maxOcc > 40 {
		t.Errorf("max occupancy %d looks degenerate", maxOcc)
	}
}

func dedupTestPts(pts []geom.Pt) []geom.Pt {
	seen := map[geom.Pt]bool{}
	var out []geom.Pt
	for _, p := range pts {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkRoute measures the full router on a mid-size placement,
// allocations included — the routing half of the physical hot path.
func BenchmarkRoute(b *testing.B) {
	c := randomCircuit(b, 7, 260)
	p, err := place.Place(c, 0.70, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Route(p)
	}
}
