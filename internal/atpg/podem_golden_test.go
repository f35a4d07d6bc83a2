package atpg_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfmresyn/internal/atpg"
	"dfmresyn/internal/bench"
	"dfmresyn/internal/doublefault"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenLimit is the per-search backtrack budget of the golden searches. It
// is low enough that a few searches on each circuit exhaust it, so the
// LimitExceeded path is pinned alongside FoundTest and ProvenImpossible.
const goldenLimit = 1000

// goldenPairsPerFault caps the double-fault pairs searched per undetectable
// fault, as the double-fault experiment runs doublefault.Run.
const goldenPairsPerFault = 3

// searchDigest accumulates one canonical record per search: a tag, the fault
// ID, the outcome, the backtracks the search spent and the test vector.
type searchDigest struct {
	h                 hash.Hash
	gen               *atpg.Generator
	n, bt             int
	found, imp, limit int
}

func (s *searchDigest) run(tag byte, id int, search func() (atpg.SearchOutcome, *atpg.TestVec)) {
	bt0 := s.gen.Backtracks()
	out, tv := search()
	bt := s.gen.Backtracks() - bt0
	s.n++
	s.bt += bt
	switch out {
	case atpg.FoundTest:
		s.found++
	case atpg.ProvenImpossible:
		s.imp++
	case atpg.LimitExceeded:
		s.limit++
	}
	var rec [1 + 8 + 1 + 8]byte
	rec[0] = tag
	binary.LittleEndian.PutUint64(rec[1:], uint64(id))
	rec[9] = byte(out)
	binary.LittleEndian.PutUint64(rec[10:], uint64(bt))
	s.h.Write(rec[:])
	if tv != nil {
		for _, v := range [][]uint8{tv.Init, tv.Vec} {
			binary.Write(s.h, binary.LittleEndian, uint32(len(v)))
			s.h.Write(v)
		}
	}
}

func (s *searchDigest) line(what string) string {
	return fmt.Sprintf("%s searches=%d found=%d impossible=%d limit=%d backtracks=%d sha256=%x",
		what, s.n, s.found, s.imp, s.limit, s.bt, s.h.Sum(nil))
}

// TestPodemSearchGolden pins the outcome, backtrack count and test vector of
// every PODEM search over three benchmark circuits: each fault of the
// analyzed fault list through Generator.Generate, then the double-fault
// pairs doublefault.Run searches (up to three per undetectable fault)
// through Generator.GenerateWith with the activation conditions it imposes. One generator serves every search of a
// circuit, so a value left over from an earlier search that leaked into a
// later one would move the digest. Rewrite the golden file with -update.
func TestPodemSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive PODEM searches are slow under -short")
	}
	var got strings.Builder
	for _, name := range []string{"sparc_spu", "tv80", "sparc_tlu"} {
		env := flow.NewEnv()
		c := bench.MustBuild(name, env.Lib)
		d, err := env.Analyze(c, geom.Rect{})
		if err != nil {
			t.Fatal(err)
		}
		gen := atpg.NewGenerator(c, c.Levelize(), c.Levels(), goldenLimit)

		one := &searchDigest{h: sha256.New(), gen: gen}
		for _, f := range d.Faults.Faults {
			rng := rand.New(rand.NewSource(int64(f.ID)))
			one.run('g', f.ID, func() (atpg.SearchOutcome, *atpg.TestVec) { return gen.Generate(f, rng) })
		}
		fmt.Fprintln(&got, one.line(name+" generate"))

		with := &searchDigest{h: sha256.New(), gen: gen}
		perFault := make(map[*fault.Fault]int)
		for _, p := range doublefault.Pairs(d) {
			if perFault[p.Undetectable] >= goldenPairsPerFault {
				continue
			}
			perFault[p.Undetectable]++
			conds := doublefault.ActivationConditions(p.Undetectable)
			rng := rand.New(rand.NewSource(int64(p.Detectable.ID)<<20 ^ int64(p.Undetectable.ID)))
			with.run('w', p.Detectable.ID, func() (atpg.SearchOutcome, *atpg.TestVec) {
				return gen.GenerateWith(p.Detectable, conds, rng)
			})
		}
		fmt.Fprintln(&got, with.line(name+" generatewith"))
	}

	path := filepath.Join("testdata", "podem_search.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestPodemSearchGolden -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("PODEM searches differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}
