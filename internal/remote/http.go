package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"retrasyn/internal/monitor"
	"retrasyn/internal/obs"
	"retrasyn/internal/trajectory"
)

// HTTP transport for the curator. The three hot-path endpoints (presence,
// assignments, report) take only binary frames (wire.go); a body of any
// other Content-Type gets 415. The control plane (plan, finalize, stats,
// snapshot/restore, relayout, health) speaks JSON. Errors map to 4xx with a
// plain-text reason.

type planRequest struct {
	T int `json:"t"`
}

type finalizeRequest struct {
	T      int `json:"t"`
	Active int `json:"active"`
}

type relayoutRequest struct {
	// Force switches onto the rebuilt layout whenever it differs from the
	// current one, ignoring the distance threshold.
	Force bool `json:"force"`
}

// WireBytes is one endpoint's cumulative request/response byte ledger.
type WireBytes struct {
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
}

// StatsSnapshot is the /v1/stats payload — the counters a load harness
// polls for loss accounting (presence events vs reports) and the per-stage
// timing decomposition.
type StatsSnapshot struct {
	Rounds  int `json:"rounds"`
	Reports int `json:"reports"`
	// PresenceEvents counts every accepted presence registration — the
	// curator-side half of a replay's zero-loss ledger.
	PresenceEvents int64 `json:"presence_events"`
	// Per-stage wall time accumulated by the pipeline (curator-side
	// components of the paper's Table V decomposition).
	ModelConstructionSec float64 `json:"model_construction_sec"`
	DMUSec               float64 `json:"dmu_sec"`
	SynthesisSec         float64 `json:"synthesis_sec"`
	// Online re-discretization status: the layout currently in effect and
	// how it has evolved.
	LayoutGeneration  int     `json:"layout_generation"`
	LayoutFingerprint string  `json:"layout_fingerprint"`
	LayoutCells       int     `json:"layout_cells"`
	DomainSize        int     `json:"domain_size"`
	LastRelayoutDist  float64 `json:"last_relayout_distance"`
	// Wire is the per-endpoint cumulative bytes ledger (request bodies in,
	// response bodies out) — the counter a replay harness divides by its
	// report count to watch bytes/report for wire regressions.
	Wire map[string]WireBytes `json:"wire,omitempty"`
}

// wireCounter accumulates one endpoint's request/response bytes.
type wireCounter struct{ in, out atomic.Int64 }

// handler carries the per-endpoint wire ledgers alongside the curator. The
// counter map is fixed at construction and only its atomics mutate, so
// reads need no lock.
type handler struct {
	c    *Curator
	wire map[string]*wireCounter
}

// wireSeries are the registry mirrors of one endpoint's ledger: cumulative
// body bytes each way plus the request count. Pre-created at route
// registration so the request path only touches atomics.
type wireSeries struct {
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	requests *obs.Counter
}

func newWireSeries(reg *obs.Registry, path string) wireSeries {
	p := obs.Label{Key: "path", Value: path}
	return wireSeries{
		bytesIn:  reg.Counter("wire.bytes_in", p),
		bytesOut: reg.Counter("wire.bytes_out", p),
		requests: reg.Counter("wire.requests", p),
	}
}

// countingWriter tallies response body bytes (headers excluded — they are
// not payload, and bytes/report should not be diluted by them).
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// countingReader tallies request body bytes actually consumed.
type countingReader struct {
	r io.ReadCloser
	n int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.n += int64(n)
	return n, err
}

func (r *countingReader) Close() error { return r.r.Close() }

// route registers fn with the wire middleware: count the request and
// account request/response bytes against the endpoint's ledger.
func (h *handler) route(mux *http.ServeMux, pattern string, fn http.HandlerFunc) {
	path := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		path = pattern[i+1:]
	}
	wc := h.wire[path]
	if wc == nil {
		wc = &wireCounter{}
		h.wire[path] = wc
	}
	ws := newWireSeries(h.c.Metrics(), path)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		ws.requests.Inc()
		cr := &countingReader{r: r.Body}
		r.Body = cr
		cw := &countingWriter{ResponseWriter: w}
		fn(cw, r)
		in := cr.n
		if r.ContentLength > in {
			// The handler bailed before draining the body; the client still
			// shipped ContentLength bytes.
			in = r.ContentLength
		}
		wc.in.Add(in)
		wc.out.Add(cw.n)
		ws.bytesIn.Add(in)
		ws.bytesOut.Add(cw.n)
	})
}

// readFrame reads and validates one binary frame of the wanted kind,
// writing the 415 or 400 itself on failure. The returned payload aliases the
// body buffer.
func readFrame(w http.ResponseWriter, r *http.Request, wantKind byte) ([]byte, bool) {
	if ct := r.Header.Get("Content-Type"); ct != WireContentType && !strings.HasPrefix(ct, WireContentType+";") {
		http.Error(w, fmt.Sprintf("remote: %s takes %s frames, got Content-Type %q", r.URL.Path, WireContentType, ct), http.StatusUnsupportedMediaType)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, wireHeaderLen+wireMaxPayload+1))
	if err != nil {
		http.Error(w, "remote: reading binary frame: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	kind, payload, err := decodeFrame(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if kind != wantKind {
		http.Error(w, "remote: binary frame kind mismatch for this endpoint", http.StatusBadRequest)
		return nil, false
	}
	return payload, true
}

// NewHandler exposes the curator over HTTP.
func NewHandler(c *Curator) http.Handler {
	h := &handler{c: c, wire: make(map[string]*wireCounter)}
	mux := http.NewServeMux()
	h.route(mux, "POST /v1/presence", func(w http.ResponseWriter, r *http.Request) {
		payload, ok := readFrame(w, r, frameKindPresence)
		if !ok {
			return
		}
		t, users, err := decodeUsersPayload(payload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.PresenceBatch(users, t); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	h.route(mux, "POST /v1/assignments", func(w http.ResponseWriter, r *http.Request) {
		payload, ok := readFrame(w, r, frameKindAssignments)
		if !ok {
			return
		}
		t, users, err := decodeUsersPayload(payload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		as, err := c.AssignmentsFor(users, t)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", WireContentType)
		w.Write(encodeAssignmentsRespFrame(as))
	})
	h.route(mux, "POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		var req planRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.Plan(req.T); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	h.route(mux, "POST /v1/report", func(w http.ResponseWriter, r *http.Request) {
		// The packed rows alias the request body and decode straight into
		// the fold buffer, outside the round lock. A malformed frame 400s
		// before the curator is touched; a rejected batch leaves the round
		// intact.
		payload, ok := readFrame(w, r, frameKindReport)
		if !ok {
			return
		}
		rf, err := decodeReportPayload(payload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if rf.form == reportFormPacked {
			err = c.reportPackedWire(rf.t, rf.d, rf.users, rf.bits)
		} else {
			err = c.ReportBatch(rf.t, rf.batch)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	h.route(mux, "GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.Snapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, st)
	})
	h.route(mux, "POST /v1/restore", func(w http.ResponseWriter, r *http.Request) {
		var st CuratorState
		if !decode(w, r, &st) {
			return
		}
		if err := c.Restore(&st); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	h.route(mux, "POST /v1/finalize", func(w http.ResponseWriter, r *http.Request) {
		var req finalizeRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.Finalize(req.T, req.Active); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	h.route(mux, "GET /v1/synthetic", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		if err := trajectory.WriteCells(w, c.Synthetic("remote")); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	h.route(mux, "POST /v1/relayout", func(w http.ResponseWriter, r *http.Request) {
		var req relayoutRequest
		if !decode(w, r, &req) {
			return
		}
		status, err := c.Relayout(req.Force)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, status)
	})
	// GET /metrics bypasses h.route on purpose: scrapes are observability
	// traffic, not protocol traffic, and must not inflate the wire ledger
	// the replay harness divides by report counts.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		if err := c.Metrics().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// GET /v1/health bypasses h.route for the same reason as /metrics:
	// load-balancer probes are observability traffic. The status code is
	// machine-checkable — 200 while the curator is usable (ok or degraded),
	// 503 once the utility monitor judges the release stream failing — and
	// the body carries the full per-signal breakdown.
	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		hr := c.Health()
		w.Header().Set("Content-Type", "application/json")
		if hr.Status == monitor.StatusFailing {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		if err := json.NewEncoder(w).Encode(hr); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	h.route(mux, "GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		rounds, reports := c.Stats()
		timings := c.Timings()
		layout := c.LayoutStatus()
		wire := make(map[string]WireBytes, len(h.wire))
		for path, wc := range h.wire {
			wire[path] = WireBytes{BytesIn: wc.in.Load(), BytesOut: wc.out.Load()}
		}
		writeJSON(w, StatsSnapshot{
			Rounds:               rounds,
			Reports:              reports,
			PresenceEvents:       c.PresenceEvents(),
			ModelConstructionSec: timings.ModelConstruction.Seconds(),
			DMUSec:               timings.DMU.Seconds(),
			SynthesisSec:         timings.Synthesis.Seconds(),
			LayoutGeneration:     layout.Generation,
			LayoutFingerprint:    layout.Fingerprint,
			LayoutCells:          layout.Cells,
			DomainSize:           layout.DomainSize,
			LastRelayoutDist:     layout.Distance,
			Wire:                 wire,
		})
	})
	return mux
}

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		http.Error(w, "remote: malformed JSON: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
