package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testTracer builds a tracer with a deterministic clock (each probe call
// advances 1ms) and allocation counter (each probe call adds 4096 bytes), so
// span timings and alloc deltas — and therefore the Chrome trace export —
// are exactly reproducible.
func testTracer() *Tracer {
	tr := New()
	base := time.Unix(0, 0)
	tr.t0 = base
	var tick time.Duration
	tr.now = func() time.Time {
		tick += time.Millisecond
		return base.Add(tick)
	}
	var alloc uint64
	tr.allocBytes = func() uint64 {
		alloc += 4096
		return alloc
	}
	return tr
}

func TestSpanNesting(t *testing.T) {
	tr := testTracer()

	root := Start(tr, "flow/analyze")
	child := Start(tr, "atpg/podem", Int("faults", 42))
	grand := Start(tr, "atpg/compact")

	if got := tr.InFlight(); len(got) != 3 {
		t.Fatalf("InFlight = %d spans, want 3", len(got))
	} else {
		for i, name := range []string{"flow/analyze", "atpg/podem", "atpg/compact"} {
			if got[i].Name != name || got[i].Depth != i {
				t.Errorf("InFlight[%d] = %q depth %d, want %q depth %d",
					i, got[i].Name, got[i].Depth, name, i)
			}
		}
	}

	grand.End()
	child.End()
	// Sibling after the first child: same parent, later ID.
	sib := Start(tr, "flow/cluster")
	sib.End()
	root.End()

	if root.parent != -1 {
		t.Errorf("root.parent = %d, want -1", root.parent)
	}
	if child.parent != root.id {
		t.Errorf("child.parent = %d, want root id %d", child.parent, root.id)
	}
	if grand.parent != child.id {
		t.Errorf("grand.parent = %d, want child id %d", grand.parent, child.id)
	}
	if sib.parent != root.id {
		t.Errorf("sib.parent = %d, want root id %d", sib.parent, root.id)
	}
	// IDs are start order.
	if !(root.id < child.id && child.id < grand.id && grand.id < sib.id) {
		t.Errorf("span IDs not in start order: %d %d %d %d", root.id, child.id, grand.id, sib.id)
	}
	if len(tr.InFlight()) != 0 {
		t.Errorf("InFlight after all ended = %v, want empty", tr.InFlight())
	}
	// Child fully contained in root on the fake clock.
	if child.start <= root.start || child.start+child.dur > root.start+root.dur {
		t.Errorf("child [%v +%v] not inside root [%v +%v]",
			child.start, child.dur, root.start, root.dur)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := testTracer()
	s := Start(tr, "x")
	s.End()
	dur := s.dur
	s.End() // must not re-measure or double-pop
	if s.dur != dur {
		t.Errorf("second End changed dur: %v -> %v", dur, s.dur)
	}
}

func TestOutOfOrderEnd(t *testing.T) {
	tr := testTracer()
	a := Start(tr, "a")
	b := Start(tr, "b")
	a.End() // out of order: must remove only a, leaving b open
	inflight := tr.InFlight()
	if len(inflight) != 1 || inflight[0].Name != "b" {
		t.Fatalf("InFlight after out-of-order End = %+v, want just b", inflight)
	}
	b.End()
	if len(tr.InFlight()) != 0 {
		t.Errorf("InFlight not empty after ending b")
	}
}

func TestChromeTraceGolden(t *testing.T) {
	tr := testTracer()

	root := Start(tr, "dfmresyn/run")
	an := Start(tr, "flow/analyze", String("circuit", "wb_conmax"))
	atpg := Start(tr, "flow/atpg")
	pod := Start(tr, "atpg/podem", Int("faults", 7952))
	pod.End()
	atpg.Annotate(Int("tests", 110), Float("cov", 0.9876))
	atpg.End()
	an.End()
	open := Start(tr, "resyn/sweep") // left open: exported as in-flight
	_ = open
	root.Annotate(Int64("seed", 1))

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The export must be valid trace_event JSON before we pin its bytes.
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 5 {
		t.Fatalf("exported %d events, want 5", len(tf.TraceEvents))
	}
	checkGolden(t, "trace.golden", buf.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestConcurrentInstruments hammers one counter, gauge, histogram and series
// from many goroutines; run under -race this pins the concurrency contract
// workers rely on (faultsim increments pool counters from inside par.Each).
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("hits")
			h := reg.Histogram("lat", 1, 10, 100)
			s := reg.Series("traj")
			g := reg.Gauge("level")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
				s.Append(1)
				g.Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("hits").Get(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	snap := reg.Snapshot()
	hs := snap.Histograms["lat"]
	if hs.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", hs.Count, workers*per)
	}
	var sum int64
	for _, c := range hs.Counts {
		sum += c
	}
	if sum != hs.Count {
		t.Errorf("histogram bucket sum = %d, want %d", sum, hs.Count)
	}
	if got := len(snap.Series["traj"]); got != workers*per {
		t.Errorf("series length = %d, want %d", got, workers*per)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("bt", 0, 4, 16)
	for _, v := range []float64{0, 0, 3, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	hs := reg.Snapshot().Histograms["bt"]
	want := []int64{2, 2, 2, 2} // <=0, <=4, <=16, +Inf
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Sum != 1045 || hs.Count != 8 {
		t.Errorf("sum/count = %v/%d, want 1045/8", hs.Sum, hs.Count)
	}
}

// TestNilSafety drives every entry point through nil receivers — the no-op
// contract the pipeline's unconditional instrumentation depends on.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := Start(tr, "x", Int("k", 1))
	if sp != nil {
		t.Fatalf("Start(nil) = %v, want nil", sp)
	}
	sp.End()
	sp.Annotate(String("k", "v"))
	tr.Counter("c").Add(3)
	tr.Counter("c").Inc()
	if tr.Counter("c").Get() != 0 {
		t.Error("nil counter Get != 0")
	}
	tr.Gauge("g").Set(1)
	if tr.Gauge("g").Get() != 0 {
		t.Error("nil gauge Get != 0")
	}
	tr.Histogram("h", 1, 2).Observe(1)
	tr.Series("s").Append(1)
	if tr.Series("s").Values() != nil {
		t.Error("nil series Values != nil")
	}
	if tr.InFlight() != nil {
		t.Error("nil tracer InFlight != nil")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var tf map[string]any
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("nil trace export not valid JSON: %v", err)
	}
	buf.Reset()
	if err := tr.WriteMetricsJSON(&buf); err != nil {
		t.Fatalf("nil WriteMetricsJSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("nil metrics export not valid JSON: %v", err)
	}
}

func TestServeDebug(t *testing.T) {
	tr := testTracer()
	Start(tr, "flow/analyze") // left open so /spans has content
	tr.Counter("atpg/faults_classified").Add(7952)

	srv, addr, err := ServeDebug(tr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics not valid JSON: %v", err)
	}
	if snap.Counters["atpg/faults_classified"] != 7952 {
		t.Errorf("/metrics counter = %d, want 7952", snap.Counters["atpg/faults_classified"])
	}
	var rows []map[string]any
	if err := json.Unmarshal(get("/spans"), &rows); err != nil {
		t.Fatalf("/spans not valid JSON: %v", err)
	}
	if len(rows) != 1 || rows[0]["name"] != "flow/analyze" {
		t.Errorf("/spans = %v, want one flow/analyze row", rows)
	}
	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("profile")) {
		t.Errorf("/debug/pprof/ index does not mention profiles")
	}
}
