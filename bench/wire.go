package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"retrasyn"
	"retrasyn/internal/allocation"
	"retrasyn/internal/dataset"
	"retrasyn/internal/ldp"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/remote"
	"retrasyn/internal/transition"
)

// gateways is the closed-loop client count of the wire workloads: two
// gateways whose calls overlap each other, plus one coordinator whose calls
// overlap nothing, so at most two requests are ever in flight.
const gateways = 2

// wireParams sizes a wire workload: TDriveSim at a population scale,
// replayed over HTTP against a population-division curator with window w.
type wireParams struct {
	scale  float64
	window int
}

// wirePrepared is a TDriveSim stream on disk plus the curator configuration
// to replay it against.
type wirePrepared struct {
	cfg  remote.CuratorConfig
	seed uint64
	grid *retrasyn.Grid
	dom  *transition.Domain
	path string // transition-id stream
	orig *retrasyn.Dataset
}

func (p wireParams) prepare(seed uint64, tmpDir string, toy bool, lay layers) (prepared, error) {
	scale := p.scale
	if toy {
		scale = 0.04
	}
	start := time.Now()
	raw, bounds, err := retrasyn.StandardDataset("tdrive", scale, citySeed)
	if err != nil {
		return nil, err
	}
	raw = sample(raw, seed)
	lay.since("datagen.generate_s", start)
	grid, err := retrasyn.NewGrid(gridK, bounds)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	orig := retrasyn.Discretize(raw, grid)
	lay.since("trajectory.discretize_s", start)

	start = time.Now()
	path := filepath.Join(tmpDir, dataset.TransitionFileName(orig.Name, false))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := dataset.WriteDataset(f, orig, grid); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	lay.since("dataset.write_s", start)

	w := &wirePrepared{
		cfg: remote.CuratorConfig{
			Space: grid, Epsilon: epsilon, W: p.window,
			Division: allocation.Population, Lambda: lambda, // Seed is set per pass
		},
		seed: seed, grid: grid, dom: transition.NewDomain(grid), path: path, orig: orig,
	}
	// Booting the service is the last part of set-up.
	sys, err := bootWire(w.cfg, nil)
	if err != nil {
		return nil, err
	}
	return w, sys.close()
}

func (p *wirePrepared) reference(syn *retrasyn.Dataset, _ system) (orig, release *retrasyn.Dataset, space retrasyn.Discretizer) {
	return p.orig, syn, p.grid
}

func (p *wirePrepared) oue() (int, float64) { return p.dom.Size(), p.cfg.Epsilon }

// wireSystem is a curator behind a real net/http server on a loopback port
// the kernel chose.
type wireSystem struct {
	cur        *remote.Curator
	base       string
	srv        *http.Server
	served     chan error
	transport  *http.Transport
	httpErrors atomic.Int64 // non-2xx answers; counted in traced passes
}

func bootWire(cfg remote.CuratorConfig, tr *tracer) (*wireSystem, error) {
	cur, err := remote.NewCurator(cfg)
	if err != nil {
		return nil, err
	}
	s := &wireSystem{cur: cur, served: make(chan error, 1), transport: &http.Transport{MaxIdleConnsPerHost: 2 * gateways}}
	handler := remote.NewHandler(cur)
	if tr != nil {
		handler = traceHandler(handler, tr.buf(bufServer), &s.httpErrors)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// client returns an HTTP client on the system's connection pool. In traced
// passes it stamps every request with *cur, its owner's current span.
func (s *wireSystem) client(tr *tracer, cur *spanID) *http.Client {
	if tr == nil {
		return &http.Client{Transport: s.transport}
	}
	return &http.Client{Transport: spanTagger{base: s.transport, cur: cur}}
}

func (s *wireSystem) get(path string) (int64, error) {
	resp, err := s.client(nil, nil).Get(s.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return n, nil
}

func (s *wireSystem) snapshot() (int64, error) { return s.get("/v1/snapshot") }

func (s *wireSystem) release(lay layers) (*retrasyn.Dataset, error) {
	if lay != nil {
		start := time.Now()
		n, err := s.get("/v1/synthetic")
		if err != nil {
			return nil, err
		}
		lay["remote.synthetic_fetch_ms"] = millis(time.Since(start))
		lay["remote.synthetic_mb"] = float64(n) / mb
	}
	return s.cur.Synthetic("remote"), nil
}

// close stops the server and waits for its goroutine.
func (s *wireSystem) close() error {
	s.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	return err
}

// gatewayClient is one gateway shard of the device population: its wire
// client, its perturbation RNG and its span buffer. Only its own goroutine
// touches it during a phase.
type gatewayClient struct {
	gw *remote.Gateway
	// pcg is the state behind rng. It lives inside the struct, fenced by
	// padding, so that two gateways' states never share a cache line: the
	// two 16-byte states of back-to-back ldp.NewRand calls often do, and the
	// perturb loops of the two goroutines then run at half speed in about
	// every other pass.
	_       [64]byte
	pcg     rand.PCG
	_       [64]byte
	rng     ldp.Rand
	oracles map[float64]*ldp.OUE
	buf     *spanBuf
	cur     spanID // span the next request belongs to
	users   []int
	states  []transition.State
	sent    int64 // reports shipped this round
}

// eachGateway runs fn for every gateway concurrently and returns the first
// error.
func eachGateway(gws []*gatewayClient, fn func(g *gatewayClient) error) error {
	errs := make([]error, len(gws))
	var wg sync.WaitGroup
	for i, g := range gws {
		wg.Add(1)
		go func(i int, g *gatewayClient) {
			defer wg.Done()
			errs[i] = fn(g)
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// collect is a gateway's share of a round after Plan: poll assignments,
// perturb the sampled users' states locally, pack and upload.
func (g *gatewayClient) collect(dom *transition.Domain, t int, parent spanID) error {
	g.sent = 0
	if len(g.users) == 0 {
		return nil
	}
	s := g.buf.begin("remote.assignments_rtt", t, parent)
	g.cur = s
	as, err := g.gw.Assignments(g.users, t)
	g.buf.end(s)
	if err != nil {
		return err
	}

	d := dom.Size()
	s = g.buf.begin("ldp.perturb", t, parent)
	var reports []remote.BatchReport
	var roundEps float64 // uniform within a round
	for j, a := range as {
		if !a.Report {
			continue
		}
		roundEps = a.Epsilon
		idx, ok := dom.Index(g.states[j])
		if !ok {
			return fmt.Errorf("state %v of user %d escaped the domain filter", g.states[j], g.users[j])
		}
		oracle, ok := g.oracles[a.Epsilon]
		if !ok {
			if oracle, err = ldp.NewOUE(d, a.Epsilon); err != nil {
				return err
			}
			g.oracles[a.Epsilon] = oracle
		}
		reports = append(reports, remote.BatchReport{User: g.users[j], Ones: oracle.Perturb(g.rng, idx)})
	}
	g.buf.end(s)
	if len(reports) == 0 {
		return nil
	}

	if ldp.PreferPacked(d, roundEps) {
		s = g.buf.begin("remote.pack", t, parent)
		packed, err := remote.PackReportBatch(reports, d)
		g.buf.end(s)
		if err != nil {
			return err
		}
		s = g.buf.begin("remote.report_rtt", t, parent)
		g.cur = s
		err = g.gw.ReportPacked(t, d, packed)
		g.buf.end(s)
		if err != nil {
			return err
		}
	} else {
		s = g.buf.begin("remote.report_rtt", t, parent)
		g.cur = s
		err = g.gw.ReportBatch(t, reports)
		g.buf.end(s)
		if err != nil {
			return err
		}
	}
	g.sent = int64(len(reports))
	return nil
}

func (p *wirePrepared) replay(pass int, tr *tracer) (*replay, error) {
	cfg := p.cfg
	cfg.Seed = passSeed(p.seed, pass)
	sys, err := bootWire(cfg, tr)
	if err != nil {
		return nil, err
	}
	r, err := p.drive(sys, cfg.Seed, tr)
	if err != nil {
		sys.close()
		return nil, err
	}
	return r, nil
}

// drive replays the stream against sys the way cmd/loadgen's replayHTTP
// does — presence → plan → assignments → perturb → pack → report → finalize,
// every caller waiting for its reply — and balances the zero-loss ledger
// against the curator's own counters.
func (p *wirePrepared) drive(sys *wireSystem, seed uint64, tr *tracer) (*replay, error) {
	main := tr.buf(bufMain)
	gws := make([]*gatewayClient, gateways)
	for i := range gws {
		g := &gatewayClient{oracles: map[float64]*ldp.OUE{}, buf: tr.buf(bufGateway0 + i)}
		g.pcg.Seed(seed+uint64(i), seed^0x9e3779b97f4a7c15) // cmd/loadgen's seeding
		g.rng = rand.New(&g.pcg)
		g.gw = remote.NewGateway(sys.base, sys.client(tr, &g.cur))
		g.gw.SetWire(remote.WireBinary)
		gws[i] = g
	}
	var coCur spanID
	co := remote.NewCoordinator(sys.base, sys.client(tr, &coCur))

	rc, err := dataset.Open(p.path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	rd, err := dataset.NewReader(rc)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		sys.cur.EnableLedger(rd.T())
	}

	r := &replay{sys: sys, lay: layers{}}
	var sent int64
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for t := 0; ; t++ {
		s := main.begin("dataset.read", t, 0)
		batch, err := rd.Next()
		if err == io.EOF {
			main.end(s)
			break
		}
		if err != nil {
			return nil, err
		}
		if batch.T != t {
			return nil, fmt.Errorf("stream yielded timestamp %d, want %d", batch.T, t)
		}
		events, skipped := batch.Events(p.grid, p.dom)
		main.end(s)
		r.events += int64(len(events))
		r.failed += int64(skipped)

		for _, g := range gws {
			g.users, g.states = g.users[:0], g.states[:0]
		}
		active := 0
		for _, ev := range events {
			g := gws[ev.User%gateways]
			g.users = append(g.users, ev.User)
			g.states = append(g.states, ev.State)
			if ev.State.Kind != transition.Quit {
				active++
			}
		}
		r.released += int64(active)

		roundStart := time.Now()
		rs := main.begin("round", t, 0)
		ps := main.begin("presence_phase", t, rs)
		err = eachGateway(gws, func(g *gatewayClient) error {
			if len(g.users) == 0 {
				return nil
			}
			s := g.buf.begin("remote.presence_rtt", t, ps)
			g.cur = s
			err := g.gw.AnnouncePresence(g.users, t)
			g.buf.end(s)
			return err
		})
		main.end(ps)
		if err != nil {
			return nil, fmt.Errorf("t=%d presence: %w", t, err)
		}

		s = main.begin("remote.plan_rtt", t, rs)
		coCur = s
		err = co.Plan(t)
		main.end(s)
		if err != nil {
			return nil, fmt.Errorf("t=%d: %w", t, err)
		}

		cs := main.begin("collect_phase", t, rs)
		err = eachGateway(gws, func(g *gatewayClient) error { return g.collect(p.dom, t, cs) })
		main.end(cs)
		if err != nil {
			return nil, fmt.Errorf("t=%d collect: %w", t, err)
		}
		for _, g := range gws {
			sent += g.sent
		}

		var before pipeline.Timings
		if tr != nil {
			before = sys.cur.Timings()
		}
		s = main.begin("remote.finalize_rtt", t, rs)
		coCur = s
		err = co.Finalize(t, active)
		main.end(s)
		if err != nil {
			return nil, fmt.Errorf("t=%d: %w", t, err)
		}
		main.end(rs)
		r.rounds = append(r.rounds, time.Since(roundStart))
		if tr != nil {
			r.finalizeStage = append(r.finalizeStage, pipeline.Sub(sys.cur.Timings(), before).Total())
		}
	}
	r.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0

	st, err := co.Stats()
	if err != nil {
		return nil, err
	}
	// The ledger: every emitted event registered, every shipped report
	// counted, every timestamp of the stream closed. Calls that were not
	// answered 2xx abort the pass above. (Not loadgen's Rounds == T, which
	// false-alarms whenever the strategy skips a collection.)
	r.reports = int64(st.Reports)
	closed := int64(len(r.rounds))
	r.attempted = r.events + sent + int64(rd.T())
	r.failed += abs(st.PresenceEvents-r.events) + abs(r.reports-sent) + abs(int64(rd.T())-closed)
	if r.failed > 0 {
		r.gate = append(r.gate, fmt.Sprintf("loss: %d events emitted vs %d registered, %d reports sent vs %d counted, %d of %d rounds closed",
			r.events, st.PresenceEvents, sent, st.Reports, closed, rd.T()))
	}

	perEvent := func(n int64) float64 { return float64(n) / float64(r.events) }
	var wireBytes int64
	for _, path := range []string{"/v1/presence", "/v1/plan", "/v1/assignments", "/v1/report", "/v1/finalize"} {
		wireBytes += st.Wire[path].BytesIn + st.Wire[path].BytesOut
	}
	r.lay["remote.wire_bytes_per_event"] = perEvent(wireBytes)
	r.lay["remote.bytes_in_presence"] = perEvent(st.Wire["/v1/presence"].BytesIn)
	r.lay["remote.bytes_in_assignments"] = perEvent(st.Wire["/v1/assignments"].BytesIn)
	r.lay["remote.bytes_out_assignments"] = perEvent(st.Wire["/v1/assignments"].BytesOut)
	if sent > 0 {
		r.lay["remote.bytes_in_report"] = float64(st.Wire["/v1/report"].BytesIn) / float64(sent)
	}
	r.lay["remote.http_errors"] = float64(sys.httpErrors.Load())
	r.lay["pipeline.model_construction_s"] = st.ModelConstructionSec
	r.lay["pipeline.dmu_s"] = st.DMUSec
	r.lay["pipeline.synthesis_s"] = st.SynthesisSec
	r.lay["allocation.reports_per_event"] = perEvent(sent)
	r.lay["allocation.rounds_collecting"] = float64(st.Rounds)
	h := sys.cur.Health()
	r.lay["monitor.final_divergence_js"] = h.DivergenceJS
	for _, sig := range h.Signals {
		r.lay["monitor.alarms"] += float64(sig.Alarms)
	}
	if ledger := sys.cur.Ledger(); ledger != nil {
		// Under population division every report spends the whole ε.
		worst := ledger.MaxUserWindowSum(p.cfg.W, func(int) float64 { return p.cfg.Epsilon })
		r.lay["allocation.max_window_eps"] = worst
		if worst > p.cfg.Epsilon*(1+1e-9) {
			r.gate = append(r.gate, fmt.Sprintf("w-event privacy: a user spent %.6g in one window of %d, budget %g", worst, p.cfg.W, p.cfg.Epsilon))
		}
	}
	return r, nil
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
