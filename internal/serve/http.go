package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"

	"dfmresyn/internal/obs"
	"dfmresyn/internal/vstore"
)

// maxSpecBytes bounds a submission body: circuit text for the benchmark
// suite is well under this, and an unbounded read is a trivial DoS.
const maxSpecBytes = 8 << 20

// Handler mounts the server's API over the standard debug/introspection
// set (obs.DebugMux: /metrics, /spans, /healthz, /readyz, /version,
// /debug/pprof). The server's own endpoints:
//
//	POST /jobs             submit a JobSpec; 202 queued (or resumed), 200
//	                       already known, 400 invalid, 429 queue full,
//	                       503 draining
//	GET  /jobs             all jobs, admission order
//	GET  /jobs/{id}        one job
//	GET  /jobs/{id}/ledger the job's provenance ledger; ?follow=1 streams
//	                       a running job's records live
//	GET  /store            shared verdict-store stats
func (s *Server) Handler() http.Handler {
	mux := obs.DebugMux(s.tracer, s.health, s.done)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/ledger", s.handleJobLedger)
	mux.HandleFunc("GET /store", s.handleStore)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, admitted, err := s.Submit(sp)
	switch {
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrQueueFull):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	case admitted:
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	default:
		writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleJobLedger serves a job's provenance ledger. A running job streams
// from its live flight recorder (?follow=1 until the job or the server
// finishes, exactly the debug server's /ledger semantics); otherwise the
// ledger file is sent as it is.
func (s *Server) handleJobLedger(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	if l := j.liveLedger(); l != nil {
		obs.ServeLedger(w, r, l, s.done)
		return
	}
	f, err := os.Open(s.ledgerPath(j.ID))
	if err != nil {
		http.Error(w, "no ledger recorded for job", http.StatusNotFound)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	io.Copy(w, f)
}

func (s *Server) handleStore(w http.ResponseWriter, _ *http.Request) {
	type storeView struct {
		Entries int          `json:"entries"`
		Stats   vstore.Stats `json:"stats"`
	}
	writeJSON(w, http.StatusOK, storeView{Entries: s.store.Len(), Stats: s.store.Stats()})
}
