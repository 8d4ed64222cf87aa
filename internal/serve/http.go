package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/obs"
)

// Handler returns the server's HTTP API:
//
//	POST   /campaigns          submit a campaign (SubmitRequest) → JobView
//	GET    /jobs               list jobs → []JobView
//	GET    /jobs/{id}          one job → JobView
//	DELETE /jobs/{id}          cancel → JobView
//	GET    /jobs/{id}/events   live progress stream (NDJSON; SSE under
//	                           Accept: text/event-stream)
//	GET    /jobs/{id}/runs/{k} run k's record by global index (JSON line)
//	GET    /jobs/{id}/artefact canonical shard artefact (NDJSON)
//	GET    /jobs/{id}/result   terminal JobView (409 while in flight)
//	GET    /healthz            Health + golden engine fingerprint
//	GET    /metrics            flight recorder, Prometheus text exposition
//	GET    /debug/vars         flight recorder, expvar-style JSON
//
// Errors are JSON bodies {"error": ..., "class": ...}; the class is the
// machine-readable half the certify CLI maps onto exit codes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/runs/{k}", s.handleRunRecord)
	mux.HandleFunc("GET /jobs/{id}/artefact", s.handleArtefact)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleDebugVars)
	return mux
}

// handleMetrics serves the process-wide flight recorder in Prometheus
// text exposition format: every registered metric family across core,
// pool, dist, fanout and serve.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
}

// handleDebugVars serves the same registry as one JSON object keyed by
// metric name — the expvar-style view for humans and scripts.
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.Default.WriteJSON(w)
}

// writeAPIError emits the uniform error body.
func writeAPIError(w http.ResponseWriter, status int, class, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...), Class: class})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxSubmitBytes bounds a submission body. An inline plan file is a
// few hundred bytes, so a megabyte is ample headroom while keeping any
// one request from making the daemon buffer an arbitrary body.
const maxSubmitBytes = 1 << 20

// decodeSubmit decodes a submit body strictly: a field the request type
// does not know is an error, not silently dropped.
func decodeSubmit(r io.Reader) (*SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return &req, dec.Decode(&req)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeAPIError(w, http.StatusRequestEntityTooLarge, ClassUsage, "request body exceeds %d bytes", maxSubmitBytes)
			return
		}
		writeAPIError(w, http.StatusBadRequest, ClassUsage, "bad request body: %v", err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Certify-Tenant")
	}
	j, err := s.Submit(req)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) {
			writeAPIError(w, ae.Status, ae.Class, "%s", ae.Msg)
			return
		}
		writeAPIError(w, http.StatusInternalServerError, ClassInternal, "%v", err)
		return
	}
	// A cache hit completes synchronously: 200 with the result in hand.
	// Anything else is admitted for execution: 202.
	status := http.StatusAccepted
	if j.State().Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, j.View())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, views)
}

// job resolves the {id} path segment, answering 404 itself on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeAPIError(w, http.StatusNotFound, ClassNotFound, "no job %q", id)
		return nil
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.View())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	v := j.View()
	if !v.State.Terminal() {
		writeAPIError(w, http.StatusConflict, ClassConflict, "job %s is %s — not terminal yet", v.ID, v.State)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handleRunRecord serves run k's stored record line, live: while the
// campaign is still executing, the dossier's sequential fallback sees
// whatever records have been flushed so far, so a record is fetchable
// moments after its run classifies.
func (s *Server) handleRunRecord(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, ClassUsage, "bad run index %q", r.PathValue("k"))
		return
	}
	d, err := dist.OpenDossier(s.ArtefactPath(j))
	if err != nil {
		writeAPIError(w, http.StatusNotFound, ClassNotFound, "job %s holds no readable artefact yet: %v", j.id, err)
		return
	}
	defer d.Close()
	line, err := d.RawRun(k)
	if err != nil {
		writeAPIError(w, http.StatusNotFound, ClassNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(line)
	w.Write([]byte("\n"))
}

// handleArtefact serves the completed job's canonical artefact — the
// byte stream that is identical between a fresh execution and a cache
// hit of the same campaign — rendered once per artefact content and
// then answered from the cache's verified-content memo.
func (s *Server) handleArtefact(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if st := j.State(); st != StateCompleted {
		writeAPIError(w, http.StatusConflict, ClassConflict, "job %s is %s — artefact is served for completed jobs", j.id, st)
		return
	}
	body, err := s.cache.canonical(s.ArtefactPath(j))
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, ClassInternal, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// handleEvents is the live stream: NDJSON events (SSE data frames when
// the client asks for text/event-stream) reporting state transitions,
// artefact growth at run granularity via dist.Tail, and one final
// "done" event carrying the terminal payload.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev Event) {
		ev.Job = j.id
		if sse {
			fmt.Fprint(w, "data: ")
		}
		enc.Encode(ev)
		if sse {
			fmt.Fprint(w, "\n")
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	final := func() {
		v := j.View()
		emit(Event{
			Type: "done", State: v.State, Cached: v.Cached,
			Runs: v.Runs, Total: v.Runs,
			Distribution: v.Distribution, InjectionsTotal: v.InjectionsTotal,
			Error: v.Error,
		})
	}

	lastState := j.State()
	emit(Event{Type: "state", State: lastState})
	if lastState.Terminal() {
		final()
		return
	}
	tail := dist.NewTail(s.ArtefactPath(j))
	total := j.spec.Runs
	lastRuns := -1
	progress := func() {
		if p, err := tail.Poll(); err == nil && p.Countable && p.Runs != lastRuns {
			lastRuns = p.Runs
			emit(Event{Type: "progress", Runs: p.Runs, Total: total, Bytes: p.Bytes})
		}
	}
	ticker := time.NewTicker(s.cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Report the growth since the last tick: a job that ends
			// between two ticks still streams its progress before done.
			progress()
			final()
			return
		case <-ticker.C:
			if st := j.State(); st != lastState {
				lastState = st
				emit(Event{Type: "state", State: st})
			}
			progress()
		}
	}
}
