package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"time"
)

// traceEvent is one Chrome trace_event record. "X" (complete) events carry
// a start timestamp and duration in microseconds; chrome://tracing and
// Perfetto render them as nested slices per (pid, tid).
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace exports every span as Chrome trace_event JSON, loadable
// in chrome://tracing or https://ui.perfetto.dev. Spans still open at
// export time are emitted with their elapsed-so-far duration and an
// inflight arg, so a trace dumped from a stuck run still shows where it
// was. On a nil tracer it writes a valid empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	tf := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		now := t.now().Sub(t.t0)
		for _, s := range t.spans {
			dur := s.dur
			args := map[string]string{}
			if !s.ended {
				dur = now - s.start
				args["inflight"] = "true"
			} else {
				args["alloc_bytes"] = strconv.FormatUint(s.alloc, 10)
			}
			for _, a := range s.attrs {
				args[a.Key] = attrValue(a)
			}
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: s.name,
				Cat:  category(s.name),
				Ph:   "X",
				Ts:   micros(s.start),
				Dur:  micros(dur),
				Pid:  1,
				Tid:  1,
				Args: args,
			})
		}
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tf)
}

// WriteMetricsJSON exports the registry snapshot as indented JSON (valid
// empty-map JSON on a nil tracer).
func (t *Tracer) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Registry().Snapshot())
}

// category derives the trace event category from the span name's layer
// prefix ("atpg/podem" → "atpg"); uncategorized names fall into "span".
func category(name string) string {
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return "span"
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// attrValue renders an attribute's value.
func attrValue(a Attr) string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(a.num, 10)
	case attrFloat:
		return strconv.FormatFloat(a.fnum, 'g', 6, 64)
	default:
		return a.str
	}
}

// formatAttrs renders attributes as "key=value" strings.
func formatAttrs(attrs []Attr) []string {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = a.Key + "=" + attrValue(a)
	}
	return out
}
