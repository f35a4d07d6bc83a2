package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dfmresyn/internal/library"
)

// Exact-order circuit codec, used by the resynthesis checkpoint journal.
//
// Write emits gates in levelized order, which is the right canonical form
// for humans and for the netlint loader but loses the in-memory Nets/Gates
// sequence. Re-analyzing a rebuilt circuit is order-sensitive by design
// (ReorderLike appends elements *new* to the previous design in the
// circuit's own order, and the placer and router consume that order), so a
// journaled committed circuit must round-trip the exact sequence — a
// levelized rewrite would re-place and re-route a resumed run differently
// and break the byte-identical-resume guarantee.
//
// The format is line-oriented and index-based:
//
//	xckt <name>
//	net <name> <->|i|o|io>          # one per net, in Nets order
//	gate <name> <cell> <out-net-index> [<fanin-net-index> ...]
//	                                 # one per gate, in Gates order
//	pi <net-index> [...]             # PI interface order
//	po <net-index> [...]             # PO interface order
//
// Net references are indices into the net list rather than names, so the
// reader rebuilds driver/fanout wiring without any topological-order
// requirement on the gate lines.

// WriteExact serializes the circuit preserving the exact Nets, Gates, PI
// and PO order (unlike Write, which levelizes). Names containing
// whitespace cannot be represented and are rejected. Each line is built
// with appends rather than fmt: the resynthesis sweep encodes every
// candidate netlist to key its evaluation memo.
func WriteExact(w io.Writer, c *Circuit) error {
	bad := func(name string) bool {
		return name == "" || strings.ContainsAny(name, " \t\n\r")
	}
	if bad(c.Name) {
		return fmt.Errorf("netlist: exact: unencodable circuit name %q", c.Name)
	}
	bw := bufio.NewWriter(w)
	line := append([]byte("xckt "), c.Name...)
	bw.Write(append(line, '\n'))
	netIdx := make(map[*Net]int, len(c.Nets))
	for i, n := range c.Nets {
		if bad(n.Name) {
			return fmt.Errorf("netlist: exact: unencodable net name %q", n.Name)
		}
		netIdx[n] = i
		flags := "-"
		switch {
		case n.IsPI && n.IsPO:
			flags = "io"
		case n.IsPI:
			flags = "i"
		case n.IsPO:
			flags = "o"
		}
		line = append(append(append(append(line[:0], "net "...), n.Name...), ' '), flags...)
		bw.Write(append(line, '\n'))
	}
	for _, g := range c.Gates {
		if bad(g.Name) {
			return fmt.Errorf("netlist: exact: unencodable gate name %q", g.Name)
		}
		line = append(append(append(append(line[:0], "gate "...), g.Name...), ' '), g.Type.Name...)
		line = strconv.AppendInt(append(line, ' '), int64(netIdx[g.Out]), 10)
		for _, in := range g.Fanin {
			line = strconv.AppendInt(append(line, ' '), int64(netIdx[in]), 10)
		}
		bw.Write(append(line, '\n'))
	}
	writeRefs := func(kw string, nets []*Net) {
		if len(nets) == 0 {
			return
		}
		line = append(line[:0], kw...)
		for _, n := range nets {
			line = strconv.AppendInt(append(line, ' '), int64(netIdx[n]), 10)
		}
		bw.Write(append(line, '\n'))
	}
	writeRefs("pi", c.PIs)
	writeRefs("po", c.POs)
	return bw.Flush()
}

// ReadExact parses a WriteExact serialization over the given library,
// reconstructing the exact element order. It never panics on malformed
// input: every deviation from the format is reported as an error, and the
// rebuilt circuit is validated with Check before it is returned.
func ReadExact(r io.Reader, lib *library.Library) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 8*1024*1024)
	var c *Circuit
	lineNo := 0
	netAt := func(field string) (*Net, error) {
		i, err := strconv.Atoi(field)
		if err != nil || i < 0 || i >= len(c.Nets) {
			return nil, fmt.Errorf("netlist: exact: line %d: bad net index %q", lineNo, field)
		}
		return c.Nets[i], nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if c == nil && fields[0] != "xckt" {
			return nil, fmt.Errorf("netlist: exact: line %d: %q before xckt", lineNo, fields[0])
		}
		switch fields[0] {
		case "xckt":
			if c != nil {
				return nil, fmt.Errorf("netlist: exact: line %d: duplicate xckt", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: exact: line %d: xckt needs a name", lineNo)
			}
			c = New(fields[1], lib)
		case "net":
			if len(fields) != 3 {
				return nil, fmt.Errorf("netlist: exact: line %d: net needs name and flags", lineNo)
			}
			if c.NetByName(fields[1]) != nil {
				return nil, fmt.Errorf("netlist: exact: line %d: duplicate net %q", lineNo, fields[1])
			}
			switch fields[2] {
			case "-", "i", "o", "io":
			default:
				return nil, fmt.Errorf("netlist: exact: line %d: bad net flags %q", lineNo, fields[2])
			}
			n := c.newNet(fields[1])
			n.IsPI = strings.Contains(fields[2], "i")
			n.IsPO = strings.Contains(fields[2], "o")
		case "gate":
			if len(fields) < 4 {
				return nil, fmt.Errorf("netlist: exact: line %d: gate needs name, cell and output", lineNo)
			}
			cell := lib.ByName(fields[2])
			if cell == nil {
				return nil, fmt.Errorf("netlist: exact: line %d: unknown cell %q", lineNo, fields[2])
			}
			out, err := netAt(fields[3])
			if err != nil {
				return nil, err
			}
			if out.Driver != nil || out.IsPI {
				return nil, fmt.Errorf("netlist: exact: line %d: net %q already driven", lineNo, out.Name)
			}
			ins := fields[4:]
			if len(ins) != cell.NumInputs() {
				return nil, fmt.Errorf("netlist: exact: line %d: %s expects %d inputs, got %d",
					lineNo, cell.Name, cell.NumInputs(), len(ins))
			}
			fanin := make([]*Net, len(ins))
			for i, f := range ins {
				in, err := netAt(f)
				if err != nil {
					return nil, err
				}
				fanin[i] = in
			}
			g := &Gate{ID: len(c.Gates), Name: fields[1], Type: cell, Fanin: fanin}
			out.Driver = g
			g.Out = out
			c.Gates = append(c.Gates, g)
			for i, in := range fanin {
				in.Fanout = append(in.Fanout, Pin{Gate: g, Pin: i})
			}
		case "pi", "po":
			for _, f := range fields[1:] {
				n, err := netAt(f)
				if err != nil {
					return nil, err
				}
				if fields[0] == "pi" {
					if !n.IsPI {
						return nil, fmt.Errorf("netlist: exact: line %d: net %q listed as pi without i flag", lineNo, n.Name)
					}
					c.PIs = append(c.PIs, n)
				} else {
					if !n.IsPO {
						return nil, fmt.Errorf("netlist: exact: line %d: net %q listed as po without o flag", lineNo, n.Name)
					}
					c.POs = append(c.POs, n)
				}
			}
		default:
			return nil, fmt.Errorf("netlist: exact: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("netlist: exact: no xckt declaration found")
	}
	// Interface lists must cover every flagged net exactly once; the flags
	// and the pi/po lines are redundant on purpose (the lines carry order,
	// the flags make each net line self-describing), so cross-check them.
	npi, npo := 0, 0
	for _, n := range c.Nets {
		if n.IsPI {
			npi++
		}
		if n.IsPO {
			npo++
		}
	}
	if len(c.PIs) != npi || len(c.POs) != npo {
		return nil, fmt.Errorf("netlist: exact: interface lists cover %d/%d PIs and %d/%d POs",
			len(c.PIs), npi, len(c.POs), npo)
	}
	seen := map[*Net]bool{}
	for _, n := range c.PIs {
		if seen[n] {
			return nil, fmt.Errorf("netlist: exact: net %q repeated in pi list", n.Name)
		}
		seen[n] = true
	}
	seen = map[*Net]bool{}
	for _, n := range c.POs {
		if seen[n] {
			return nil, fmt.Errorf("netlist: exact: net %q repeated in po list", n.Name)
		}
		seen[n] = true
	}
	if err := c.Check(); err != nil {
		return nil, fmt.Errorf("netlist: exact: parsed circuit inconsistent: %w", err)
	}
	return c, nil
}
