package implic_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/dfm"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/implic"
	"dfmresyn/internal/netlist"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// screenGoldenShort is the subset TestScreenGolden keeps under -short.
var screenGoldenShort = map[string]bool{"sparc_spu": true, "sparc_tlu": true, "synth1k": true}

// TestScreenGolden pins the implication closure and the screen's verdict on
// every DFM fault of the twelve paper circuits and synth1k. Each circuit is
// placed and routed (flow.Env.PhysicalOnly), its fault universe is built
// with dfm.BuildFaultsStats, and one line records the closure's Fingerprint
// and Stats, the number of faults the screen proves undetectable and a
// SHA-256 over every fault's (ID, verdict). No test generation runs, so the
// line moves only when the closure or the screen changes. Rewrite the
// golden file with -update.
func TestScreenGolden(t *testing.T) {
	names := append(append([]string(nil), bench.Names...), "synth1k")
	path := filepath.Join("testdata", "screen.golden")
	var got strings.Builder
	for _, name := range names {
		if testing.Short() && !screenGoldenShort[name] {
			continue
		}
		fmt.Fprintln(&got, screenLine(t, name))
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the full circuit list; drop -short")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestScreenGolden -update): %v", err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if line != "" && (!testing.Short() || screenGoldenShort[name]) {
			want.WriteString(line)
		}
	}
	if got.String() != want.String() {
		t.Errorf("static screen differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want.String())
	}
}

// dfmUniverse places and routes the named benchmark circuit and builds its
// DFM fault universe, without running test generation.
func dfmUniverse(tb testing.TB, name string) (*netlist.Circuit, *fault.List) {
	tb.Helper()
	env := flow.NewEnv()
	c := bench.MustBuild(name, env.Lib)
	d, err := env.PhysicalOnly(c, geom.Rect{})
	if err != nil {
		tb.Fatal(err)
	}
	list, _, _ := dfm.BuildFaultsStats(c, d.Lay, env.Prof)
	return c, list
}

// screenLine builds the named circuit's closure and screens its DFM fault
// universe, returning the circuit's golden line.
func screenLine(t *testing.T, name string) string {
	t.Helper()
	c, list := dfmUniverse(t, name)
	e := implic.New(c)
	h := sha256.New()
	proven := 0
	var rec [5]byte
	for _, f := range list.Faults {
		binary.LittleEndian.PutUint32(rec[:], uint32(f.ID))
		rec[4] = 0
		if e.Undetectable(f) {
			rec[4] = 1
			proven++
		}
		h.Write(rec[:])
	}
	st := e.Stats()
	return fmt.Sprintf("%s nets=%d constants=%d implications=%d fingerprint=%016x faults=%d proven=%d sha256=%x",
		name, st.Nets, st.Constants, st.Implications, e.Fingerprint(), list.Len(), proven, h.Sum(nil))
}
