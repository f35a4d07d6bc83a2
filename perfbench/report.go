package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// warmUpFor is how long warmUp keeps every core busy before anything is
// measured: after an idle spell the 2-core reference machine runs its first
// second of work at about half speed.
const warmUpFor = 2 * time.Second

func warmUp() {
	var wg sync.WaitGroup
	var sink atomic.Uint64
	deadline := time.Now().Add(warmUpFor)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			for time.Now().Before(deadline) {
				for j := 0; j < 4096; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
}

// settle returns the garbage of earlier work to the operating system and
// restarts the kernel's peak resident-set count (VmHWM), so that the set-up
// or pass that follows is timed from a collected heap and peakRSSMB reads
// its own peak.
func settle() {
	debug.FreeOSMemory()
	// Without a resettable peak, peakRSSMB falls back to the peak since start.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since the last settle, in
// MiB; where the kernel offers no resettable peak, the peak since start.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 10 * time.Millisecond

// rssSampler reads the resident set every rssEvery while a pass runs. The
// pass's peak (VmHWM) is one spike of garbage the collector has not yet
// reclaimed, and where it lands moves by a quarter from pass to pass on the
// serve workload; the 90th percentile of the samples moves far less.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func sampleRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.samples = append(r.samples, rssMB())
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the 90th percentile of its samples,
// the last taken now.
func (r *rssSampler) finish() float64 {
	close(r.stop)
	<-r.done
	xs := sorted(append(r.samples, rssMB()))
	return xs[int(0.9*float64(len(xs)-1))]
}

// rssMB is the process's current resident set in MiB, 0 where the kernel
// does not report it.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: analyze, scale, sweep or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measured seconds: passes run until this much pass time is spent (at least 3 passes)")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer budget instead of the end-to-end metrics")
	fs.StringVar(&cfg.outDir, "outdir", ".bench_build", "directory for run artifacts and serve data directories")
	fs.StringVar(&cfg.expectedDir, "expected", "", "directory of expected records for the recorded seeds")
	fs.BoolVar(&cfg.record, "record", false, "merge this run's records into the expected directory instead of comparing")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source revision stamped on the result")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace == 1
	switch {
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be positive, got %d", cfg.seconds)
	case cfg.seed < 0:
		return cfg, fmt.Errorf("--seed must not be negative, got %d", cfg.seed)
	}
	return cfg, nil
}

// run executes one workload and returns its result line; the human-readable
// report goes to w.
func run(cfg config, w io.Writer) (result, *summary, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, nil, err
	}
	if !cfg.smoke {
		warmUp()
	}
	var s *summary
	var err error
	slots, clients := 0, 1
	switch cfg.workload {
	case "analyze":
		s, err = runSeq(cfg, analyzeWorkload)
	case "scale":
		s, err = runSeq(cfg, scaleWorkload)
	case "sweep":
		s, err = runSeq(cfg, sweepWorkload)
	case "serve":
		slots, clients = serveSlots, serveClients
		s, err = runServeWorkload(cfg)
	default:
		return result{}, nil, fmt.Errorf("unknown workload %q (want analyze, scale, sweep or serve)", cfg.workload)
	}
	if err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v passes=%d nproc=%d gomaxprocs=%d workers=%d slots=%d clients=%d go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, s.passes, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		workers, slots, clients, runtime.Version(), cfg.commit)

	failed := len(s.failures)
	if cfg.expectedDir != "" {
		if cfg.record {
			if err := recordExpected(cfg.expectedDir, cfg.workload, s.records); err != nil {
				return result{}, nil, err
			}
		} else {
			exp, err := loadExpected(cfg.expectedDir, cfg.workload)
			if err != nil {
				return result{}, nil, err
			}
			bad := compareExpected(exp, s.records)
			for _, b := range bad {
				s.failures = append(s.failures, "expected: "+b)
			}
			failed += len(bad)
		}
	}
	for _, f := range s.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	res := result{
		Correct:   len(s.failures) == 0,
		Attempted: s.attempted,
		Failed:    min(failed, s.attempted),
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(w, "%-14s %d/%d (fail_ratio %.4f)\n", "failed", res.Failed, res.Attempted, ratio(float64(res.Failed), float64(res.Attempted)))
	fmt.Fprintf(w, "%-14s %s (%d records)\n", "digest", runDigest(s.records), len(s.records))

	if !cfg.trace {
		tv, pct, beyond := tail(s.lat)
		vals := map[string]float64{
			"wall_s":      quantile(s.walls, 0.5),
			"op_p50_s":    quantile(s.lat, 0.5),
			"op_tail_s":   tv,
			"jobs_per_s":  ratio(float64(len(s.lat)), sum(s.walls)),
			"rss_p90_mb":  median(s.rssP90),
			"peak_rss_mb": median(s.peakRSS),
			"setup_s":     median(s.setup),
		}
		notes := map[string]string{
			"wall_s":      fmt.Sprintf("median of %d passes %.3f", len(s.walls), s.walls),
			"op_p50_s":    fmt.Sprintf("median of %d operations", len(s.lat)),
			"op_tail_s":   fmt.Sprintf("p%.1f of %d operations, %d beyond", pct, len(s.lat), beyond),
			"jobs_per_s":  fmt.Sprintf("%d operations over %.3f s", len(s.lat), sum(s.walls)),
			"rss_p90_mb":  fmt.Sprintf("median of %d passes' p90 of %v samples %.1f", len(s.rssP90), rssEvery, s.rssP90),
			"peak_rss_mb": fmt.Sprintf("median of %d pass peaks %.1f", len(s.peakRSS), s.peakRSS),
			"setup_s":     fmt.Sprintf("median of %d set-ups", len(s.setup)),
		}
		for _, m := range endToEnd {
			if m.gated {
				res.Metrics[m.name] = metric{vals[m.name], m.unit}
			} else {
				notes[m.name] += " (not gated)"
			}
			fmt.Fprintf(w, "%-14s %12.6g %-4s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
		}
		return res, s, nil
	}

	layers := map[string]float64{}
	for _, name := range perLayer() {
		var xs []float64
		for _, m := range s.layers {
			xs = append(xs, m[name])
		}
		layers[name] = median(xs)
	}
	layers["trace_overhead"] = median(s.overhead)
	printLayerTable(w, layers, median(s.tracedWalls))
	fmt.Fprintf(w, "  %-34s %12.4f  traced wall %.4f s / untraced wall %.4f s - 1\n", "trace_overhead",
		layers["trace_overhead"], median(s.tracedWalls), median(s.walls))
	for _, name := range perLayer() {
		res.Metrics[name] = metric{layers[name], perLayerUnit(name)}
	}
	if s.lastTrace != nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := writeTrace(s.lastTrace, path); err != nil {
			return result{}, nil, err
		}
		fmt.Fprintf(w, "chrome trace of the last traced pass: %s\n", path)
	}
	return res, s, nil
}

func writeTrace(tr interface{ WriteChromeTrace(io.Writer) error }, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(tr.WriteChromeTrace(f), f.Close())
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, _, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
