package netlist

import (
	"bytes"
	"strings"
	"testing"

	"dfmresyn/internal/library"
)

// scrambled builds a small circuit whose Nets/Gates order is deliberately
// NOT levelized-canonical: a ReorderLike against a shuffled previous
// circuit moves kept elements into the previous order while the new ones
// trail in circuit order, which is exactly the shape committed designs
// have.
func scrambled(t *testing.T, lib *library.Library) *Circuit {
	t.Helper()
	c := New("scrambletest", lib)
	a := c.AddPI("a")
	b := c.AddPI("b")
	and := lib.ByName("AND2X2")
	or := lib.ByName("OR2X2")
	inv := lib.ByName("INVX1")
	if and == nil || or == nil || inv == nil {
		t.Fatal("library misses AND2X2/OR2X2/INVX1")
	}
	x := c.AddGate("g_x", and, a, b)
	y := c.AddGate("g_y", or, x, a)
	z := c.AddGate("g_z", inv, y)
	c.MarkPO(z)
	c.MarkPO(x)

	// Previous circuit listing a subset in a different order, so
	// ReorderLike produces a non-trivial, non-levelized ordering.
	prev := New("scrambletest", lib)
	pb := prev.AddPI("b")
	pa := prev.AddPI("a")
	py := prev.AddGate("g_y", or, pb, pa) // same names, different wiring order
	prev.MarkPO(py)
	return ReorderLike(c, prev)
}

// TestExactFormat pins the encoding byte for byte: checkpoint journals
// store it, and the resynthesis sweep keys its evaluation memo by it.
func TestExactFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExact(&buf, scrambled(t, library.OSU018Like())); err != nil {
		t.Fatal(err)
	}
	want := "xckt scrambletest\nnet b i\nnet a i\nnet g_y_o -\nnet g_x_o o\nnet g_z_o o\n" +
		"gate g_y OR2X2 2 3 1\ngate g_x AND2X2 3 1 0\ngate g_z INVX1 4 2\npi 1 0\npo 4 3\n"
	if buf.String() != want {
		t.Errorf("WriteExact wrote\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestExactRoundTrip: WriteExact → ReadExact must reproduce the identical
// element sequence, names, wiring, flags and interface order — and
// re-serialize to the same bytes.
func TestExactRoundTrip(t *testing.T) {
	lib := library.OSU018Like()
	c := scrambled(t, lib)

	var buf bytes.Buffer
	if err := WriteExact(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExact(bytes.NewReader(buf.Bytes()), lib)
	if err != nil {
		t.Fatalf("ReadExact: %v\ninput:\n%s", err, buf.String())
	}

	if got.Name != c.Name {
		t.Errorf("name %q != %q", got.Name, c.Name)
	}
	if len(got.Nets) != len(c.Nets) || len(got.Gates) != len(c.Gates) {
		t.Fatalf("size mismatch: %d/%d nets, %d/%d gates",
			len(got.Nets), len(c.Nets), len(got.Gates), len(c.Gates))
	}
	for i := range c.Nets {
		w, g := c.Nets[i], got.Nets[i]
		if w.Name != g.Name || w.IsPI != g.IsPI || w.IsPO != g.IsPO {
			t.Errorf("net %d: got %q(pi=%v,po=%v) want %q(pi=%v,po=%v)",
				i, g.Name, g.IsPI, g.IsPO, w.Name, w.IsPI, w.IsPO)
		}
	}
	for i := range c.Gates {
		w, g := c.Gates[i], got.Gates[i]
		if w.Name != g.Name || w.Type.Name != g.Type.Name || w.Out.ID != g.Out.ID {
			t.Errorf("gate %d: got %s:%s→%d want %s:%s→%d",
				i, g.Name, g.Type.Name, g.Out.ID, w.Name, w.Type.Name, w.Out.ID)
		}
		for j := range w.Fanin {
			if w.Fanin[j].ID != g.Fanin[j].ID {
				t.Errorf("gate %d fanin %d: net %d want %d", i, j, g.Fanin[j].ID, w.Fanin[j].ID)
			}
		}
	}
	for i := range c.PIs {
		if c.PIs[i].ID != got.PIs[i].ID {
			t.Errorf("PI %d: net %d want %d", i, got.PIs[i].ID, c.PIs[i].ID)
		}
	}
	for i := range c.POs {
		if c.POs[i].ID != got.POs[i].ID {
			t.Errorf("PO %d: net %d want %d", i, got.POs[i].ID, c.POs[i].ID)
		}
	}

	var buf2 bytes.Buffer
	if err := WriteExact(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Errorf("re-serialization differs:\nfirst:\n%s\nsecond:\n%s", buf.String(), buf2.String())
	}
}

// TestExactRejectsMalformed: structural damage must error cleanly, never
// panic and never produce a Check-violating circuit.
func TestExactRejectsMalformed(t *testing.T) {
	lib := library.OSU018Like()
	c := scrambled(t, lib)
	var buf bytes.Buffer
	if err := WriteExact(&buf, c); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"empty":          "",
		"no xckt":        "net a i\n",
		"bad directive":  "xckt c\nbogus x\n",
		"bad net index":  "xckt c\nnet a i\ngate g INVX1 99 0\n",
		"bad flags":      "xckt c\nnet a q\n",
		"dup net":        "xckt c\nnet a i\nnet a i\n",
		"truncated":      good[:len(good)/2],
		"double driver":  "xckt c\nnet a i\nnet x -\nnet y -\ngate g1 INVX1 1 0\ngate g2 INVX1 1 0\n",
		"pi flag miss":   "xckt c\nnet a -\npi 0\n",
		"dup pi listing": "xckt c\nnet a i\npi 0 0\n",
	}
	for name, in := range cases {
		if _, err := ReadExact(strings.NewReader(in), lib); err == nil {
			t.Errorf("%s: malformed input accepted", name)
		}
	}
}

// FuzzReadExact: arbitrary input must never panic the exact-order reader;
// accepted circuits must satisfy Check and re-serialize.
func FuzzReadExact(f *testing.F) {
	lib := library.OSU018Like()
	c := New("seedckt", lib)
	a := c.AddPI("a")
	if inv := lib.ByName("INVX1"); inv != nil {
		c.MarkPO(c.AddGate("g0", inv, a))
	}
	var buf bytes.Buffer
	if err := WriteExact(&buf, c); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("xckt x\nnet a i\npi 0\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		got, err := ReadExact(strings.NewReader(in), lib)
		if err != nil {
			return
		}
		if cerr := got.Check(); cerr != nil {
			t.Fatalf("accepted circuit fails Check: %v", cerr)
		}
		var out bytes.Buffer
		if werr := WriteExact(&out, got); werr != nil {
			t.Fatalf("accepted circuit fails WriteExact: %v", werr)
		}
	})
}
