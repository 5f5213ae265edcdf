package remote

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"retrasyn/internal/obs"
	"retrasyn/internal/pipeline"
)

// TestSnapshotExcludesMetrics is the checkpoint-compatibility regression for
// the observability layer: metrics and tracing are run-scoped, so a curator
// with a live tracer and a populated registry must produce a snapshot
// byte-identical to an uninstrumented twin driven through the same traffic,
// and a curator restored from that snapshot must count from zero.
func TestSnapshotExcludesMetrics(t *testing.T) {
	g := testGrid()
	const T = 16
	instrumented, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	instrumented.SetTracer(slog.New(slog.NewJSONHandler(&traceBuf, nil)))
	instrumented.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	plain, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}

	drv := newProtoDriver(g, instrumented.Domain(), 80, T)
	for ts := 0; ts < T/2; ts++ {
		drv.step(t, ts, instrumented, plain)
	}
	if instrumented.Metrics().Counter("curator.presence_events").Value() == 0 {
		t.Fatal("instrumented curator recorded no presence events")
	}
	if traceBuf.Len() == 0 {
		t.Fatal("tracer emitted nothing over a driven half-run")
	}

	instBlob, err := marshalSnapshot(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	plainBlob, err := marshalSnapshot(plain)
	if err != nil {
		t.Fatal(err)
	}
	// The two snapshots must agree on every logical field; only the
	// cumulative wall-clock timings (a pre-existing snapshot field) may
	// differ between any two runs.
	if !bytes.Equal(stripTimings(t, instBlob), stripTimings(t, plainBlob)) {
		t.Fatal("instrumentation leaked into the snapshot: instrumented and plain curators serialized differently")
	}

	resumed, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	var decoded CuratorState
	if err := json.Unmarshal(instBlob, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(&decoded); err != nil {
		t.Fatal(err)
	}
	// Restore → re-snapshot is byte-identical: the metrics registry, tracer
	// and logger contribute nothing to the serialized state.
	reBlob, err := marshalSnapshot(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reBlob, instBlob) {
		t.Fatal("snapshot → restore → snapshot is not byte-identical with instrumentation live")
	}
	// Run-scoped means the restored curator's counters start at zero even
	// though the donor's registry was live.
	for _, name := range []string{"curator.rounds", "curator.reports", "curator.presence_events", "budget.rounds"} {
		if v := resumed.Metrics().Counter(name).Value(); v != 0 {
			t.Fatalf("restored curator's %s = %d, want 0 (metrics must not ride checkpoints)", name, v)
		}
	}

	// ...and instrumentation keeps working after a restore: only the
	// post-restore rounds are counted.
	for ts := T / 2; ts < T; ts++ {
		drv.step(t, ts, resumed)
	}
	got := resumed.Metrics().Counter("budget.rounds").Value() + resumed.Metrics().Counter("budget.silent_rounds").Value()
	if want := int64(T - T/2); got != want {
		t.Fatalf("restored curator metered %d rounds, want %d (post-restore only)", got, want)
	}
	if resumed.Metrics().Counter("curator.presence_events").Value() == 0 {
		t.Fatal("restored curator's registry is dead")
	}
}

func marshalSnapshot(c *Curator) ([]byte, error) {
	st, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// stripTimings zeroes the snapshot's cumulative wall-clock timings field so
// two runs' snapshots can be compared on logical state alone.
func stripTimings(t *testing.T, blob []byte) []byte {
	t.Helper()
	var st CuratorState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	st.Engine.Stats.Timings = pipeline.Timings{}
	out, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpointEndToEnd drives the full wire protocol against a served
// curator and scrapes GET /metrics mid-run and at the end: the exposition
// must be valid Prometheus text carrying the stage-latency, budget, wire and
// relayout families, with at least 20 distinct series that actually move.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	g := testGrid()
	cur, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	const T = 20
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()

	clients, _ := buildClients(t, g, cur, srv.URL, 100, T)
	co := NewCoordinator(srv.URL, nil)

	var midRounds float64
	for ts := 0; ts < T; ts++ {
		active := 0
		for _, c := range clients {
			if err := c.AnnouncePresence(ts); err != nil {
				t.Fatalf("t=%d presence: %v", ts, err)
			}
			if c.LocatedAt(ts) {
				active++
			}
		}
		if err := co.Plan(ts); err != nil {
			t.Fatalf("t=%d plan: %v", ts, err)
		}
		for _, c := range clients {
			if _, err := c.MaybeReport(ts); err != nil {
				t.Fatalf("t=%d report: %v", ts, err)
			}
		}
		if err := co.Finalize(ts, active); err != nil {
			t.Fatalf("t=%d finalize: %v", ts, err)
		}
		if ts == T/2 {
			mid := scrapeExposition(t, srv.URL)
			midRounds = sampleValue(t, mid, "curator_rounds")
		}
	}

	end := scrapeExposition(t, srv.URL)
	if got := sampleValue(t, end, "curator_rounds"); got <= midRounds {
		t.Fatalf("curator_rounds frozen: mid-run %v, end %v", midRounds, got)
	}

	series := map[string]bool{}
	for _, line := range strings.Split(end, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if cut := strings.LastIndexByte(line, ' '); cut > 0 {
			series[line[:cut]] = true
		}
	}
	if len(series) < 20 {
		t.Fatalf("exposition carries %d distinct series, want ≥ 20:\n%s", len(series), end)
	}
	for _, want := range []string{
		"curator_rounds ",
		"curator_reports ",
		"curator_presence_events ",
		"curator_round_report_count_count ",
		`pipeline_reports{shard="0"} `,
		"budget_cumulative_eps ",
		"budget_window_sum_eps ",
		"budget_window_eps_micro_count ",
		"budget_sampled_fraction ",
		`pipeline_stage_latency_us_count{shard="0",stage="dmu"}`,
		`pipeline_stage_latency_us_count{shard="0",stage="synthesis"}`,
		`wire_bytes_in{path="/v1/report"}`,
		`wire_requests{path="/v1/report"}`,
		"relayout_generation ",
		"relayout_observe_duration_us_count ",
		"curator_domain_size ",
	} {
		if !strings.Contains(end, want) {
			t.Fatalf("exposition missing %q:\n%s", want, end)
		}
	}
	// The protocol moved real traffic: reports were folded, budget spent,
	// bytes metered.
	if v := sampleValue(t, end, "curator_reports"); v <= 0 {
		t.Fatal("curator_reports never moved")
	}
	if v := sampleValue(t, end, "budget_cumulative_eps"); v <= 0 {
		t.Fatal("budget_cumulative_eps never moved")
	}
	if !strings.Contains(end, `wire_bytes_in{path="/v1/report"}`) {
		t.Fatal("report wire bytes unmetered")
	}
}

// scrapeExposition fetches /metrics and validates content type and basic
// line shape.
func scrapeExposition(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[cut+1:], 64); err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
	}
	return string(body)
}

// sampleValue extracts an unlabeled sample's value from exposition text.
func sampleValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sample %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("sample %s not found in exposition", name)
	return 0
}

// TestRoundErrorsCounted: a Finalize against a never-planned timestamp is a
// round-processing failure — logged and counted, never silent.
func TestRoundErrorsCounted(t *testing.T) {
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	cur.SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	if err := cur.Finalize(7, 0); err == nil {
		t.Fatal("finalize without plan accepted")
	}
	if got := cur.Metrics().Counter("curator.round_errors").Value(); got != 1 {
		t.Fatalf("curator.round_errors = %d, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "round processing failed") || !strings.Contains(logBuf.String(), "t=7") {
		t.Fatalf("error log missing context: %q", logBuf.String())
	}
}

// TestTracerSchema drives one reported round and checks the JSONL tracer
// event carries the documented keys.
func TestTracerSchema(t *testing.T) {
	g := testGrid()
	cur, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cur.SetTracer(slog.New(slog.NewJSONHandler(&buf, nil)))
	drv := newProtoDriver(g, cur.Domain(), 60, 8)
	for ts := 0; ts < 8; ts++ {
		drv.step(t, ts, cur)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("tracer emitted %d events, want 8", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil {
		t.Fatalf("tracer line is not JSON: %v", err)
	}
	for _, key := range []string{
		"t", "reported", "reports", "epsilon", "pool", "sampled",
		"sig_ratio", "significant", "model_construction_us", "dmu_us",
		"synthesis_us", "observe_us", "domain_size", "generation", "relayout_switched",
		"divergence", "divergence_l1", "alarms", "trigger_fired",
	} {
		if _, ok := ev[key]; !ok {
			t.Fatalf("tracer event missing %q: %s", key, lines[len(lines)-1])
		}
	}
	if ev["t"] != float64(7) {
		t.Fatalf("tracer t = %v, want 7", ev["t"])
	}
}

// TestMetricsScrapeOutsideWireLedger: scraping /metrics must not inflate the
// wire byte ledger the replay harness reconciles against.
func TestMetricsScrapeOutsideWireLedger(t *testing.T) {
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	for i := 0; i < 3; i++ {
		exposition := scrapeExposition(t, srv.URL)
		if strings.Contains(exposition, `path="/metrics"`) {
			t.Fatal("scrape traffic leaked into the wire ledger")
		}
	}
}
