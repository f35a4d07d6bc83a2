package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dfmresyn/internal/obs"
)

// span is one exported trace event.
type span struct {
	Name string            `json:"name"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

// spansOf reads a tracer's spans back from its Chrome trace export, the
// tracer's only span interface. Events come in span-start order.
func spansOf(tr *obs.Tracer) ([]span, error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var tf struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		return nil, fmt.Errorf("parsing chrome trace: %w", err)
	}
	return tf.TraceEvents, nil
}

// selfSeconds returns each span's duration minus the part its child spans
// cover. Spans nest on the pipeline's single coordinator stack, so a span
// that starts before the innermost open span ends is its child.
func selfSeconds(sp []span) []float64 {
	self := make([]float64, len(sp))
	var stack []int
	for i, s := range sp {
		self[i] = s.Dur / 1e6
		for len(stack) > 0 {
			p := sp[stack[len(stack)-1]]
			if s.Ts < p.Ts+p.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= s.Dur / 1e6
		}
		stack = append(stack, i)
	}
	return self
}

// selfLayer assigns each span's self time to one layer; the layers partition
// a traced pass, so their self times sum to its wall time. The sta/power span
// covers both packages and is split separately (see layerMetrics).
func selfLayer(name string) string {
	switch name {
	case "bench/op":
		return "bench.self_s"
	case "flow/analyze", "flow/analyze_incr", "flow/verify_faults", "flow/uint_screen":
		return "flow.self_s"
	case "flow/place", "flow/place_incr":
		return "place.self_s"
	case "flow/route", "flow/route_incr":
		return "route.self_s"
	case "flow/dfm", "flow/dfm_incr":
		return "dfm.self_s"
	case "flow/cluster":
		return "cluster.self_s"
	case "flow/atpg":
		return "atpg.self_s"
	case "flow/sta_power":
		return "sta_power"
	case "atpg/cache", "atpg/static", "atpg/random", "atpg/podem", "atpg/compact":
		return "atpg." + strings.TrimPrefix(name, "atpg/") + "_s"
	}
	if strings.HasPrefix(name, "resyn/") {
		return "resyn.self_s"
	}
	return "other.self_s"
}

// selfMetrics are the layers of the self-time partition, in table order.
var selfMetrics = []string{
	"atpg.cache_s", "atpg.static_s", "atpg.random_s", "atpg.podem_s", "atpg.compact_s", "atpg.self_s",
	"place.self_s", "route.self_s", "sta.self_s", "power.self_s", "dfm.self_s", "cluster.self_s",
	"flow.self_s", "resyn.self_s", "bench.self_s", "other.self_s",
	"serve.queue_wait_s", "serve.run_s", "serve.client_s",
}

// counterMetrics maps per-layer count metrics to the tracer counters behind
// them.
var counterMetrics = []struct{ metric, counter string }{
	{"atpg.podem_searches", "atpg/podem_searches"},
	{"atpg.podem_backtracks", "atpg/podem_backtracks"},
	{"atpg.sat_escalations", "atpg/sat_escalations"},
	{"atpg.sat_conflicts", "atpg/sat_conflicts"},
	{"atpg.sat_memo_hits", "atpg/sat_memo_hits"},
	{"atpg.static_proven", "atpg/static_proven"},
	{"atpg.collateral_drops", "atpg/collateral_drops"},
	{"atpg.tests_kept", "atpg/tests_kept"},
	{"faultsim.sim_blocks", "faultsim/sim_blocks"},
	{"faultsim.detect_words", "faultsim/detect_words"},
	{"fcache.lookups", "fcache/lookups"},
	{"fcache.hits", "fcache/hits"},
	{"resyn.synth_calls", "resyn/synth_calls"},
	{"resyn.pd_calls", "resyn/pd_calls"},
	{"resyn.commits", "resyn/commits"},
	{"resyn.backtrack_groups_tried", "resyn/backtrack_groups_tried"},
	{"resyn.backtrack_groups_accepted", "resyn/backtrack_groups_accepted"},
	{"dfm.bridge_pairs_examined", "dfm/bridge_pairs_examined"},
	{"dfm.bridge_pairs_naive", "dfm/bridge_pairs_naive"},
	{"dfm.incremental_builds", "dfm/incremental_builds"},
	{"dfm.full_builds", "dfm/full_builds"},
	{"route.nets_reused", "route/nets_reused"},
	{"route.nets_rerouted", "route/nets_rerouted"},
}

// ratioMetrics are the per-layer ratios, each with the two metrics it
// divides (printed next to it as its base).
var ratioMetrics = []struct{ metric, num, den string }{
	{"atpg.escalation_ratio", "atpg.sat_escalations", "atpg.podem_searches"},
	{"fcache.hit_ratio", "fcache.hits", "fcache.lookups"},
	{"resyn.accept_ratio", "resyn.commits", "resyn.pd_calls"},
	{"resyn.rtime", "resyn.sweep_s", "resyn.orig_analyze_s"},
	{"vstore.warm_hit_ratio", "vstore.warm_hits", "vstore.lookups"},
}

// passCalib carries what a traced pass measured outside the tracer: the
// benchmark's own timings of sta and power on the pass's designs (used to
// split the shared sta/power span) and per-operation quantities no counter
// exports.
type passCalib struct {
	staS, powerS float64
	extra        map[string]float64
}

// layerMetrics derives one traced pass's per-layer metrics from its tracer.
func layerMetrics(tr *obs.Tracer, cal passCalib) (map[string]float64, error) {
	sp, err := spansOf(tr)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, k := range selfMetrics {
		m[k] = 0
	}
	self := selfSeconds(sp)
	for i, s := range sp {
		l := selfLayer(s.Name)
		if l == "sta_power" {
			share := ratio(cal.staS, cal.staS+cal.powerS)
			m["sta.self_s"] += self[i] * share
			m["power.self_s"] += self[i] * (1 - share)
		} else {
			m[l] += self[i]
		}
		dur := s.Dur / 1e6
		switch s.Name {
		case "flow/uint_screen":
			m["resyn.uint_screen_s"] += dur
			m["resyn.uint_screens"]++
		case "resyn/backtrack":
			m["resyn.backtrack_s"] += dur
		case "resyn/signoff":
			m["resyn.signoff_s"] += dur
		case "atpg/static":
			a, _ := strconv.ParseFloat(s.Args["alloc_bytes"], 64)
			m["atpg.static_alloc_mb"] += a / (1 << 20)
		case "flow/atpg":
			f, _ := strconv.ParseFloat(s.Args["faults"], 64)
			m["dfm.faults"] += f
		}
	}
	snap := tr.Registry().Snapshot()
	for _, c := range counterMetrics {
		m[c.metric] = float64(snap.Counters[c.counter])
	}
	for k, v := range cal.extra {
		m[k] = v
	}
	for _, r := range ratioMetrics {
		m[r.metric] = ratio(m[r.num], m[r.den])
	}
	total := 0.0
	for _, k := range selfMetrics {
		total += m[k]
	}
	m["trace.self_sum_s"] = total
	return m, nil
}

// printLayerTable writes the per-layer table of a traced run: self times with
// their share of the traced pass, counts, and every ratio next to its base.
func printLayerTable(w io.Writer, m map[string]float64, wall float64) {
	fmt.Fprintf(w, "per-layer budget (median of traced passes; traced pass wall %.4f s)\n", wall)
	fmt.Fprintf(w, "  %-34s %12s %7s\n", "self time", "s", "share")
	for _, k := range selfMetrics {
		fmt.Fprintf(w, "  %-34s %12.4f %6.1f%%\n", k, m[k], 100*ratio(m[k], wall))
	}
	fmt.Fprintf(w, "  %-34s %12.4f %6.1f%%  (self times over traced wall)\n", "sum", m["trace.self_sum_s"], 100*ratio(m["trace.self_sum_s"], wall))
	fmt.Fprintf(w, "  %-34s %12s\n", "inclusive stage time / count", "value")
	for _, k := range sortedKeys(m) {
		if isSelf(k) || isRatio(k) || k == "trace.self_sum_s" {
			continue
		}
		fmt.Fprintf(w, "  %-34s %12.6g\n", k, m[k])
	}
	fmt.Fprintf(w, "  %-34s %12s  %s\n", "ratio", "value", "base")
	for _, r := range ratioMetrics {
		fmt.Fprintf(w, "  %-34s %12.4f  %s=%.6g / %s=%.6g\n", r.metric, m[r.metric], r.num, m[r.num], r.den, m[r.den])
	}
}

func isSelf(k string) bool {
	for _, s := range selfMetrics {
		if s == k {
			return true
		}
	}
	return false
}

func isRatio(k string) bool {
	for _, r := range ratioMetrics {
		if r.metric == k {
			return true
		}
	}
	return false
}
