package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/equiv"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/obs"
	"dfmresyn/internal/resyn"
	"dfmresyn/internal/verilog"
)

// workers is the classification pool size of every in-process operation,
// sized to the 2-core reference machine.
const workers = 2

// op is one measured operation of a pass. run does the timed work; the
// returned outcome is checked afterwards, outside the timing.
type op struct {
	key string
	run func(tr *obs.Tracer) (outcome, error)
}

type outcome struct {
	// designs are the analyzed designs whose sta/power a traced pass re-times
	// to split the shared sta/power span.
	designs []*flow.Design
	// extra holds per-layer quantities no tracer counter exports, summed
	// over the pass.
	extra map[string]float64
	check func() (record, error)
}

// seqWorkload is a closed-loop, single-client workload run in-process: each
// pass sets up its inputs, then runs its operations one after another.
type seqWorkload func(cfg config, pass int) ([]op, error)

// passSeed derives the seed of one pass from the run seed. Each pass of a
// run draws different inputs, so a run's medians average over several
// inputs.
func passSeed(seed int64, pass int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(pass)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x>>34) + 1
}

// opEnv is a fresh environment for one operation: the set-up library and
// profile, the pass seed, no verdict cache.
func opEnv(base *flow.Env, seed int64, tr *obs.Tracer) *flow.Env {
	e := *base
	e.Seed = seed
	e.ATPG.Seed = seed
	e.Workers = workers
	e.FaultCache = nil
	e.Obs = tr
	return &e
}

func opKey(name string, cfg config, pass int) string {
	return fmt.Sprintf("%s@%d.%d", name, cfg.seed, pass)
}

// analyzeCircuits are the analyze workload's inputs: the twelve paper
// circuits, or two small ones in smoke mode.
func analyzeCircuits(cfg config) []string {
	if cfg.smoke {
		return []string{"sparc_spu", "wb_conmax"}
	}
	return bench.Names
}

// analyzeDesign is the op body shared by analyze and scale: one cold Analyze
// gated by checkDesign.
func analyzeDesign(base *flow.Env, c *netlist.Circuit, seed int64, extra map[string]float64) func(*obs.Tracer) (outcome, error) {
	return func(tr *obs.Tracer) (outcome, error) {
		d, err := opEnv(base, seed, tr).Analyze(c, geom.Rect{})
		if err != nil {
			return outcome{}, err
		}
		return outcome{designs: []*flow.Design{d}, extra: extra, check: func() (record, error) {
			rec := record{}
			designRecord("", d, rec)
			return rec, checkDesign(d)
		}}, nil
	}
}

func analyzeWorkload(cfg config, pass int) ([]op, error) {
	env := flow.NewEnv()
	seed := passSeed(cfg.seed, pass)
	var ops []op
	for _, name := range analyzeCircuits(cfg) {
		c, err := bench.Build(name, env.Lib)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{key: opKey(name, cfg, pass), run: analyzeDesign(env, c, seed, nil)})
	}
	return ops, nil
}

// scaleTiles is how many copies of synth1k the scale netlist holds (~3.2k
// gates): large enough that ATPG time shifts from the PODEM tail into the
// static, random and compaction stages, small enough for several analyses
// per run.
const scaleTiles = 3

// tile builds k disjoint copies of c through the netlist API. The copies are
// emitted in a seed-drawn order, each with its primary inputs rotated by a
// seed-drawn offset, so every seed yields a differently numbered netlist of
// the same size and structure.
func tile(c *netlist.Circuit, k int, seed int64) *netlist.Circuit {
	rng := rand.New(rand.NewSource(seed))
	t := netlist.New(fmt.Sprintf("%s_x%d", c.Name, k), c.Lib)
	order := c.Levelize()
	for _, i := range rng.Perm(k) {
		m := make(map[*netlist.Net]*netlist.Net, len(c.Nets))
		off := rng.Intn(len(c.PIs))
		for j := range c.PIs {
			pi := c.PIs[(j+off)%len(c.PIs)]
			m[pi] = t.AddPI(fmt.Sprintf("t%d_%s", i, pi.Name))
		}
		for _, g := range order {
			in := make([]*netlist.Net, len(g.Fanin))
			for p, n := range g.Fanin {
				in[p] = m[n]
			}
			m[g.Out] = t.AddGate(fmt.Sprintf("t%d_%s", i, g.Name), g.Type, in...)
		}
		for _, po := range c.POs {
			t.MarkPO(m[po])
		}
	}
	return t
}

func scaleWorkload(cfg config, pass int) ([]op, error) {
	env := flow.NewEnv()
	seed := passSeed(cfg.seed, pass)
	base, err := bench.Build("synth1k", env.Lib)
	if err != nil {
		return nil, err
	}
	k := scaleTiles
	if cfg.smoke {
		k = 1
	}
	tiled := tile(base, k, seed)
	var buf bytes.Buffer
	if err := verilog.WriteModule(&buf, tiled); err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := verilog.ReadModule(&buf, env.Lib)
	read := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("re-reading the tiled netlist: %w", err)
	}
	run := analyzeDesign(env, c, seed, map[string]float64{"verilog.read_s": read})
	return []op{{key: opKey(tiled.Name, cfg, pass), run: func(tr *obs.Tracer) (outcome, error) {
		oc, err := run(tr)
		if err != nil {
			return oc, err
		}
		check := oc.check
		oc.check = func() (record, error) {
			rec, err := check()
			if err != nil {
				return rec, err
			}
			eq, err := equiv.Check(tiled, c, 8, seed)
			if err == nil && !eq.Equivalent {
				err = fmt.Errorf("%s: Verilog round trip changed the function at PO %d", tiled.Name, eq.POIndex)
			}
			return rec, err
		}
		return oc, nil
	}}}, nil
}

// sweepCircuits are the sweep workload's inputs. sparc_lsu (7–10 s per
// sweep) and sparc_exu (12–24 s) are left out: either alone would be most
// of a run and would set its spread. tv80 and sparc_tlu still run the
// backtracking procedure across several q, aes_core reads the verdict cache
// most, and every sweep runs the undetectable-internal screen per candidate.
func sweepCircuits(cfg config) []string {
	if cfg.smoke {
		return []string{"sparc_spu"}
	}
	return []string{"aes_core", "tv80", "sparc_tlu", "wb_conmax"}
}

func sweepWorkload(cfg config, pass int) ([]op, error) {
	env := flow.NewEnv()
	seed := passSeed(cfg.seed, pass)
	var ops []op
	for _, name := range sweepCircuits(cfg) {
		c, err := bench.Build(name, env.Lib)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{key: opKey(name, cfg, pass), run: func(tr *obs.Tracer) (outcome, error) {
			e := opEnv(env, seed, tr)
			t0 := time.Now()
			orig, err := e.Analyze(c, geom.Rect{})
			if err != nil {
				return outcome{}, err
			}
			t1 := time.Now()
			res, err := resyn.RunFrom(e, orig, resyn.Options{})
			if err != nil {
				return outcome{}, err
			}
			return outcome{
				designs: []*flow.Design{orig, res.Final},
				extra: map[string]float64{
					"resyn.orig_analyze_s": t1.Sub(t0).Seconds(),
					"resyn.sweep_s":        time.Since(t1).Seconds(),
					"fcache.entries":       float64(res.Cache.Entries),
				},
				check: func() (record, error) {
					return sweepRecord(orig, res), checkSweep(orig, res, seed)
				},
			}, nil
		}})
	}
	return ops, nil
}
