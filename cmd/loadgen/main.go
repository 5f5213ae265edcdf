// Command loadgen replays a RetraSyn transition-id stream as live traffic
// and measures what the collection stack sustains. It stands in for the
// whole device population: concurrent gateway shards announce presence,
// poll sampling assignments, perturb the sampled users' states locally (OUE)
// and ship batched reports to a running curator while a coordinator ticks
// Plan/Finalize — the full per-timestamp protocol at ×K wall-clock speed.
//
// The run ends with a loss ledger (every emitted event accounted for by the
// curator's own counters) and a BENCH_replay.json of sustained throughput
// and p50/p90/p95/p99 latencies per protocol stage.
//
// Usage:
//
//	curator -addr :8080 -k 6 -boundsMax 30 -eps 1.0 -w 20 -lambda 13.6 &
//	datagen -dataset sanjoaquin -scale 4 -transitions-out sj_transition_id.xz
//	loadgen -data sj_transition_id.xz -curator http://localhost:8080 \
//	        -gateways 8 -speed 100 -out BENCH_replay.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"retrasyn"
	"retrasyn/internal/dataset"
	"retrasyn/internal/ldp"
	"retrasyn/internal/remote"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

func main() {
	var (
		data     = flag.String("data", "", "transition-id stream to replay (.xz or plain; required)")
		curator  = flag.String("curator", "http://localhost:8080", "curator base URL")
		gateways = flag.Int("gateways", 4, "concurrent gateway shards")
		speed    = flag.Float64("speed", 0, "wall-clock speedup ×K over -tick (0 = unpaced: as fast as the stack sustains)")
		tick     = flag.Duration("tick", time.Second, "logical duration of one timestamp at ×1")
		k        = flag.Int("k", 6, "grid granularity K (must match the curator)")
		boundMin = flag.Float64("boundsMin", 0, "spatial lower bound (both axes)")
		boundMax = flag.Float64("boundsMax", 30, "spatial upper bound (both axes)")
		seed     = flag.Uint64("seed", 2024, "perturbation seed")
		scrape   = flag.Bool("scrape", false, "poll the curator's /metrics before and after the replay and embed the series deltas in the report")
		out      = flag.String("out", "BENCH_replay.json", "benchmark report path")
		loss     = flag.Bool("allow-loss", false, "exit 0 even when the loss ledger does not balance")
	)
	flag.Parse()
	if *data == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	if *gateways < 1 {
		fatal(fmt.Errorf("-gateways must be ≥ 1, got %d", *gateways))
	}
	if *speed < 0 {
		fatal(fmt.Errorf("-speed must be ≥ 0, got %v", *speed))
	}
	g, err := retrasyn.NewGrid(*k, retrasyn.Bounds{MinX: *boundMin, MinY: *boundMin, MaxX: *boundMax, MaxY: *boundMax})
	if err != nil {
		fatal(err)
	}
	rc, err := dataset.Open(*data)
	if err != nil {
		fatal(err)
	}
	rd, err := dataset.NewReader(rc)
	if err != nil {
		rc.Close()
		fatal(err)
	}

	var interval time.Duration
	if *speed > 0 {
		interval = time.Duration(float64(*tick) / *speed)
	}
	r := &run{
		reader:   rd,
		space:    g,
		dom:      transition.NewDomain(g),
		gateways: *gateways,
		interval: interval,
		seed:     *seed,
		scrape:   *scrape,
		users:    make(map[int]struct{}),
		hists:    map[string]*hist{},
	}
	report := benchReport{
		Dataset: rd.Name(), Timestamps: rd.T(),
		Gateways: *gateways, Speed: *speed, TickMS: float64(*tick) / float64(time.Millisecond),
	}

	err = r.replayHTTP(*curator, &report)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}

	r.finish(&report)
	blob, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("loadgen: %d timestamps, %d users, %d events in %.2fs (%.0f events/s, %.0f reports/s)\n",
		report.Timestamps, report.Users, report.EventsEmitted,
		report.DurationSec, report.EventsPerSec, report.ReportsPerSec)
	if rl, ok := report.Latency["round"]; ok {
		fmt.Printf("loadgen: round latency p50=%s p99=%s max=%s; %d/%d rounds behind schedule\n",
			us(rl.P50US), us(rl.P99US), us(rl.MaxUS), report.RoundsBehind, report.Timestamps)
	}
	if report.BytesPerReport > 0 {
		fmt.Printf("loadgen: %d report bytes in (%.1f bytes/report)\n",
			report.ReportBytesIn, report.BytesPerReport)
	}
	if len(report.ReleaseDivergence) > 0 {
		fmt.Printf("loadgen: release divergence js=%.4f l1=%.4f at end of run\n",
			report.ReleaseDivergence["js"], report.ReleaseDivergence["l1"])
	}
	fmt.Printf("loadgen: report written to %s\n", *out)
	if !report.ZeroLoss {
		fmt.Fprintf(os.Stderr, "loadgen: LOSS DETECTED — the ledger does not balance (see %s)\n", *out)
		if !*loss {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

// benchReport is the BENCH_replay.json schema.
type benchReport struct {
	Dataset    string  `json:"dataset"`
	Timestamps int     `json:"timestamps"`
	Users      int     `json:"users"`
	Gateways   int     `json:"gateways"`
	Speed      float64 `json:"speed"`
	TickMS     float64 `json:"tick_ms"`
	// ReportBytesIn is the curator-measured request bytes the /v1/report
	// endpoint ingested — the ledger that makes wire regressions visible
	// per run.
	ReportBytesIn  int64   `json:"report_bytes_in,omitempty"`
	BytesPerReport float64 `json:"bytes_per_report,omitempty"`

	DurationSec   float64 `json:"duration_sec"`
	EventsEmitted int64   `json:"events_emitted"`
	EventsSkipped int64   `json:"events_skipped"`
	ReportsSent   int64   `json:"reports_sent"`
	EventsPerSec  float64 `json:"events_per_sec"`
	ReportsPerSec float64 `json:"reports_per_sec"`

	// Pacing: rounds whose scheduled slot had already fully elapsed when
	// they started, and the worst lag behind schedule.
	RoundsBehind int64   `json:"rounds_behind"`
	MaxLagMS     float64 `json:"max_lag_ms"`

	// ZeroLoss is the ledger verdict: every emitted event acknowledged by
	// the curator's own counters, nothing skipped, nothing dropped.
	ZeroLoss bool `json:"zero_loss"`

	Latency map[string]latencySummary `json:"latency"`

	// MetricsDelta (with -scrape) is end-minus-start over the
	// curator's /metrics scalar samples — counters, gauges and histogram
	// _sum/_count, keyed by the exposition series line.
	MetricsDelta map[string]float64 `json:"metrics_delta,omitempty"`
	// ReleaseDivergence (with -scrape) is the utility monitor's
	// end-of-run released-vs-estimated divergence gauges: the
	// monitor.release_divergence{metric=...} values at the final scrape
	// (absolute, not deltas — divergence is a level, not a rate).
	ReleaseDivergence map[string]float64 `json:"release_divergence,omitempty"`

	Curator *remote.StatsSnapshot `json:"curator,omitempty"`
}

// run carries the replay state.
type run struct {
	reader   *dataset.Reader
	space    retrasyn.Discretizer
	dom      *transition.Domain
	gateways int
	interval time.Duration
	seed     uint64
	scrape   bool

	start         time.Time
	eventsEmitted int64
	eventsSkipped int64
	reportsSent   int64
	roundsBehind  int64
	maxLag        time.Duration
	users         map[int]struct{}
	hists         map[string]*hist
}

// hist returns the named latency histogram, creating it on first use. The
// map is not synchronized: call it from the replay's own goroutine, before
// the gateway goroutines start, and hand them the *hist (whose Observe is
// safe for concurrent use).
func (r *run) hist(name string) *hist {
	h, ok := r.hists[name]
	if !ok {
		h = &hist{}
		r.hists[name] = h
	}
	return h
}

// pace sleeps until timestamp t's scheduled slot (no-op when unpaced) and
// records how far behind schedule the replay is running.
func (r *run) pace(t int) {
	if r.interval == 0 {
		return
	}
	sched := r.start.Add(time.Duration(t) * r.interval)
	lag := time.Since(sched)
	if lag <= 0 {
		time.Sleep(-lag)
		return
	}
	if lag > r.interval {
		r.roundsBehind++
	}
	if lag > r.maxLag {
		r.maxLag = lag
	}
}

func (r *run) finish(report *benchReport) {
	report.DurationSec = time.Since(r.start).Seconds()
	report.Users = len(r.users)
	report.EventsEmitted = r.eventsEmitted
	report.EventsSkipped = r.eventsSkipped
	report.ReportsSent = r.reportsSent
	report.RoundsBehind = r.roundsBehind
	report.MaxLagMS = float64(r.maxLag) / float64(time.Millisecond)
	if report.DurationSec > 0 {
		report.EventsPerSec = float64(r.eventsEmitted) / report.DurationSec
		report.ReportsPerSec = float64(r.reportsSent) / report.DurationSec
	}
	report.Latency = make(map[string]latencySummary, len(r.hists))
	for name, h := range r.hists {
		report.Latency[name] = h.Summary()
	}
}

// shard splits a timestamp's events across the gateways by user ID, so a
// user's traffic always flows through the same gateway.
func (r *run) shard(events []trajectory.Event) ([][]int, [][]transition.State, int) {
	users := make([][]int, r.gateways)
	states := make([][]transition.State, r.gateways)
	active := 0
	for _, ev := range events {
		i := ev.User % r.gateways
		users[i] = append(users[i], ev.User)
		states[i] = append(states[i], ev.State)
		if ev.State.Kind != transition.Quit {
			active++
		}
		r.users[ev.User] = struct{}{}
	}
	return users, states, active
}

// eachGateway runs fn for every gateway shard concurrently and returns the
// first error.
func eachGateway(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// devicePool stands in for one gateway's devices: it perturbs the sampled
// users' transition states with the gateway's own random source.
type devicePool struct {
	dom     *transition.Domain
	rng     ldp.Rand
	oracles map[float64]*ldp.OUE
	row     ldp.PackedReport // word buffer every report is drawn into
}

func newDevicePool(dom *transition.Domain, rng ldp.Rand) *devicePool {
	return &devicePool{dom: dom, rng: rng, oracles: map[float64]*ldp.OUE{}, row: make(ldp.PackedReport, ldp.PackedWords(dom.Size()))}
}

// perturb randomizes the state of every user the round sampled straight
// into the wire payload — word buffer → PackedBatchReport.Bits — with the
// draws, and so the bytes, of the index-list route through
// remote.PackReportBatch.
func (p *devicePool) perturb(users []int, states []transition.State, as []remote.Assignment) ([]remote.PackedBatchReport, error) {
	d := p.dom.Size()
	var packed []remote.PackedBatchReport
	for j, a := range as {
		if !a.Report {
			continue
		}
		idx, ok := p.dom.Index(states[j])
		if !ok {
			return nil, fmt.Errorf("state %v for user %d escaped the domain filter", states[j], users[j])
		}
		oracle, ok := p.oracles[a.Epsilon]
		if !ok {
			var err error
			if oracle, err = ldp.NewOUE(d, a.Epsilon); err != nil {
				return nil, err
			}
			p.oracles[a.Epsilon] = oracle
		}
		oracle.PerturbPackedInto(p.rng, idx, p.row)
		packed = append(packed, remote.PackedBatchReport{User: users[j], Bits: p.row.Bytes(d)})
	}
	return packed, nil
}

// replayHTTP drives the full wire protocol against a live curator.
func (r *run) replayHTTP(baseURL string, report *benchReport) error {
	gws := make([]*remote.Gateway, r.gateways)
	devices := make([]*devicePool, r.gateways)
	for i := range gws {
		gws[i] = remote.NewGateway(baseURL, nil)
		// A padded Source, not NewRand: each goroutine writes its generator
		// on every draw, and bare 16-byte PCGs allocated back to back share a
		// cache line.
		devices[i] = newDevicePool(r.dom, ldp.NewSource(r.seed+uint64(i), r.seed^0x9e3779b97f4a7c15))
	}
	co := remote.NewCoordinator(baseURL, nil)
	d := r.dom.Size()
	progressEvery := r.reader.T() / 10
	if progressEvery < 1 {
		progressEvery = 1
	}

	var scrapeStart map[string]float64
	if r.scrape {
		var err error
		if scrapeStart, err = scrapeMetrics(baseURL); err != nil {
			return fmt.Errorf("pre-run scrape: %w", err)
		}
	}

	presenceLat, assignmentsLat := r.hist("presence"), r.hist("assignments")
	reportLat, roundLat := r.hist("report"), r.hist("round")
	r.start = time.Now()
	for {
		batch, err := r.reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		t := batch.T
		r.pace(t)
		events, skipped := batch.Events(r.space, r.dom)
		r.eventsEmitted += int64(len(events))
		r.eventsSkipped += int64(skipped)
		users, states, active := r.shard(events)

		roundStart := time.Now()
		err = eachGateway(r.gateways, func(i int) error {
			start := time.Now()
			if err := gws[i].AnnouncePresence(users[i], t); err != nil {
				return err
			}
			presenceLat.Observe(time.Since(start))
			return nil
		})
		if err != nil {
			return fmt.Errorf("t=%d presence: %w", t, err)
		}
		if err := co.Plan(t); err != nil {
			return fmt.Errorf("t=%d: %w", t, err)
		}
		sent := make([]int64, r.gateways) // per-gateway report counts
		err = eachGateway(r.gateways, func(i int) error {
			if len(users[i]) == 0 {
				return nil
			}
			start := time.Now()
			as, err := gws[i].Assignments(users[i], t)
			if err != nil {
				return err
			}
			assignmentsLat.Observe(time.Since(start))
			packed, err := devices[i].perturb(users[i], states[i], as)
			if err != nil {
				return err
			}
			if len(packed) == 0 {
				return nil
			}
			start = time.Now()
			if err := gws[i].ReportPacked(t, d, packed); err != nil {
				return err
			}
			reportLat.Observe(time.Since(start))
			sent[i] = int64(len(packed))
			return nil
		})
		if err != nil {
			return fmt.Errorf("t=%d collect: %w", t, err)
		}
		for _, n := range sent {
			r.reportsSent += n
		}
		if err := co.Finalize(t, active); err != nil {
			return fmt.Errorf("t=%d: %w", t, err)
		}
		roundLat.Observe(time.Since(roundStart))

		if (t+1)%progressEvery == 0 {
			st, err := co.Stats()
			if err != nil {
				return fmt.Errorf("t=%d stats poll: %w", t, err)
			}
			elapsed := time.Since(r.start).Seconds()
			fmt.Fprintf(os.Stderr, "loadgen: t=%d/%d, curator at %d rounds / %d reports (%.0f reports/s)\n",
				t+1, r.reader.T(), st.Rounds, st.Reports, float64(st.Reports)/elapsed)
		}
	}

	st, err := co.Stats()
	if err != nil {
		return err
	}
	report.Curator = &st
	if r.scrape {
		scrapeEnd, err := scrapeMetrics(baseURL)
		if err != nil {
			return fmt.Errorf("post-run scrape: %w", err)
		}
		report.MetricsDelta = metricsDelta(scrapeStart, scrapeEnd)
		report.ReleaseDivergence = releaseDivergence(scrapeEnd)
	}
	if wb, ok := st.Wire["/v1/report"]; ok && r.reportsSent > 0 {
		report.ReportBytesIn = wb.BytesIn
		report.BytesPerReport = float64(wb.BytesIn) / float64(r.reportsSent)
	}
	report.ZeroLoss = r.eventsSkipped == 0 &&
		st.PresenceEvents == r.eventsEmitted &&
		int64(st.Reports) == r.reportsSent &&
		st.Rounds == r.reader.T()
	return nil
}
