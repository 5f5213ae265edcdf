package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanID names a span across buffers: buffer index in the high half, the
// span's position in that buffer plus one in the low half. Zero is "none".
type spanID uint64

// span is one timed interval at a layer boundary. Spans of one round share
// Round; Parent is the span that caused this one.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part its children cover, filled
	// in when the trace is written.
	Self int64 `json:"self_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanBuf is one goroutine's span storage. Each harness goroutine owns a
// buffer created before the run, so recording never touches shared state;
// only the server-side buffer, which net/http's per-connection goroutines
// share, carries a lock.
type spanBuf struct {
	index  int
	epoch  time.Time
	pass   int
	spans  []span
	shared *sync.Mutex // nil for single-owner buffers
}

// begin opens a span. A nil buffer (tracing off) records nothing, so call
// sites need no branches.
func (b *spanBuf) begin(name string, round int, parent spanID) spanID {
	if b == nil {
		return 0
	}
	if b.shared != nil {
		b.shared.Lock()
		defer b.shared.Unlock()
	}
	id := spanID(b.index+1)<<32 | spanID(len(b.spans)+1)
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, Pass: b.pass, Round: round, Start: int64(time.Since(b.epoch))})
	return id
}

func (b *spanBuf) end(id spanID) {
	if b == nil {
		return
	}
	now := int64(time.Since(b.epoch))
	if b.shared != nil {
		b.shared.Lock()
		defer b.shared.Unlock()
	}
	b.spans[int(id&0xffffffff)-1].End = now
}

// Buffer roles. Gateways take bufGateway0+i.
const (
	bufMain = iota
	bufServer
	bufGateway0
)

// tracer owns the buffers of one traced run.
type tracer struct {
	bufs []*spanBuf
}

func newTracer(gateways int) *tracer {
	epoch := time.Now()
	tr := &tracer{bufs: make([]*spanBuf, bufGateway0+gateways)}
	for i := range tr.bufs {
		tr.bufs[i] = &spanBuf{index: i, epoch: epoch, spans: make([]span, 0, 1<<12)}
	}
	tr.bufs[bufServer].shared = new(sync.Mutex)
	return tr
}

// buf returns buffer i, or nil when tracing is off.
func (tr *tracer) buf(i int) *spanBuf {
	if tr == nil {
		return nil
	}
	return tr.bufs[i]
}

func (tr *tracer) setPass(pass int) {
	for _, b := range tr.bufs {
		b.pass = pass
	}
}

// all returns every recorded span with Self filled in and server-side spans
// given their parent's round.
func (tr *tracer) all() []span {
	var out []span
	for _, b := range tr.bufs {
		out = append(out, b.spans...)
	}
	at := make(map[spanID]int, len(out))
	for i := range out {
		at[out[i].ID] = i
		out[i].Self = out[i].End - out[i].Start
	}
	for i := range out {
		p, ok := at[out[i].Parent]
		if !ok {
			continue
		}
		if out[i].Round < 0 {
			out[i].Round = out[p].Round
		}
		out[p].Self -= out[i].End - out[i].Start
	}
	return out
}

// write stores the spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHeader carries the calling span from a harness client to the harness's
// server-side middleware, so a handler span knows the round trip that caused
// it. Only traced runs send it.
const spanHeader = "X-Bench-Span"

// spanTagger stamps each request of one client with that client's current
// span. cur is written by the goroutine that owns the client right before
// the call, and http.Client runs RoundTrip on that same goroutine.
type spanTagger struct {
	base http.RoundTripper
	cur  *spanID
}

func (s spanTagger) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(uint64(*s.cur), 10))
	return s.base.RoundTrip(req)
}

// statusWriter remembers the response status.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler times every request the curator's handler serves, from
// outside: one "<endpoint>_srv" span per request, parented on the client
// span named in the request, and a count of non-2xx answers.
func traceHandler(h http.Handler, buf *spanBuf, httpErrors *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		id := buf.begin(srvSpanName(r.URL.Path), -1, spanID(parent))
		h.ServeHTTP(sw, r)
		buf.end(id)
		if sw.status >= 300 {
			httpErrors.Add(1)
		}
	})
}

// srvSpanName maps "/v1/plan" to "remote.plan_srv".
func srvSpanName(path string) string {
	return "remote." + strings.TrimPrefix(path, "/v1/") + "_srv"
}

// structural spans only group others; time inside them that no child covers
// is glue the trace cannot name.
func structural(name string) bool {
	return name == "round" || strings.HasSuffix(name, "_phase")
}

// spanLayers derives the per-layer metrics that come from the spans of the
// traced passes.
func spanLayers(lay layers, spans []span, traced []*replay) {
	var reports, rounds float64
	stage := map[[2]int]time.Duration{} // (pass, round) → stage-timer time inside Finalize
	for _, r := range traced {
		reports += float64(r.reports)
		rounds += float64(len(r.rounds))
		for t, d := range r.finalizeStage {
			stage[[2]int{r.pass, t}] = d
		}
	}
	durs := map[string][]float64{} // ms, by name
	total := map[string]float64{}  // ms
	children := map[spanID][]int{}
	var srvCalls float64
	var finalizeGaps []float64
	for i := range spans {
		s := &spans[i]
		d := millis(s.dur())
		durs[s.Name] = append(durs[s.Name], d)
		total[s.Name] += d
		children[s.Parent] = append(children[s.Parent], i)
		if strings.HasSuffix(s.Name, "_srv") {
			srvCalls++
		}
		if s.Name == "remote.finalize_srv" {
			// What Finalize's handler spent outside the curator's stage timers.
			if in, ok := stage[[2]int{s.Pass, s.Round}]; ok {
				finalizeGaps = append(finalizeGaps, millis(s.dur()-in))
			}
		}
	}
	lay["remote.finalize_unattributed_ms"] = median(finalizeGaps)
	lay["dataset.read_s"] = total["dataset.read"] / 1e3 / float64(len(traced))
	if reports > 0 {
		if t, ok := total["ldp.perturb"]; ok {
			lay["ldp.perturb_ns_per_report"] = t * 1e6 / reports
		}
		lay["remote.pack_ns_per_report"] = total["remote.pack"] * 1e6 / reports
		lay["remote.report_srv_ns_per_report"] = total["remote.report_srv"] * 1e6 / reports
	}
	var rtt, srv float64
	for _, call := range []string{"presence", "plan", "assignments", "report", "finalize"} {
		lay["remote."+call+"_rtt_ms"] = median(durs["remote."+call+"_rtt"])
		lay["remote."+call+"_srv_ms"] = median(durs["remote."+call+"_srv"])
		rtt += total["remote."+call+"_rtt"]
		srv += total["remote."+call+"_srv"]
	}
	if rounds > 0 {
		lay["remote.transport_ms_per_round"] = (rtt - srv) / rounds
		lay["remote.requests_per_round"] = srvCalls / rounds
	}

	// Share of the round wall that named spans cover along the blocking
	// path: a structural span is covered as far as its slowest goroutine's
	// children are, every other span in full. Without structural spans (the
	// engine workloads) the round is one named span.
	var covered func(i int) float64
	covered = func(i int) float64 {
		s := &spans[i]
		if !structural(s.Name) {
			return millis(s.dur())
		}
		byBuf := map[spanID]float64{}
		var most float64
		for _, c := range children[s.ID] {
			buf := spans[c].ID >> 32
			byBuf[buf] += covered(c)
			most = max(most, byBuf[buf])
		}
		return most
	}
	var wall, named float64
	for i := range spans {
		if spans[i].Name == "round" {
			wall += millis(spans[i].dur())
			named += covered(i)
		}
	}
	lay["bench.round_attributed_share"] = 1
	if wall > 0 {
		lay["bench.round_attributed_share"] = named / wall
	}
}
