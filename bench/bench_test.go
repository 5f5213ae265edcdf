package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"retrasyn"
	"retrasyn/internal/dataset"
	"retrasyn/internal/ldp"
	"retrasyn/internal/remote"
	"retrasyn/internal/transition"
)

const testSeed = 7

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractFile pins BENCHMARK.json to the tables in spec.go and the
// tables to the limits of the benchmark contract.
func TestContractFile(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; regenerate it with: bash bench/run.sh -spec > BENCHMARK.json")
	}

	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || bytes.ContainsAny([]byte(w.why), "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	var setup, largest metricSpec
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
		if m.Bound > largest.Bound {
			largest = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" || setup.Bound < largest.Bound {
		t.Errorf("setup_s must be in s, lower-is-better and carry the largest bound; got %+v (largest: %+v)", setup, largest)
	}
}

func toyRun(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	outDir := ""
	if traced {
		outDir = t.TempDir()
	}
	res, err := runOnce(runConfig{workload: w, seed: testSeed, seconds: 0, traced: traced, toy: true, outDir: outDir})
	if err != nil {
		t.Fatalf("%s (traced %t): %v", w.name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (traced %t): correct=%t attempted=%d failed=%d gates=%q", w.name, traced, res.Correct, res.Attempted, res.Failed, res.gates)
	}
	if traced {
		spans, err := os.ReadFile(outDir + "/trace-" + w.name + ".jsonl")
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: traced run wrote no spans (%v)", w.name, err)
		}
	}
	return res
}

// TestWorkloads runs every workload at toy scale, untraced and traced, twice
// each: every declared metric is emitted under its declared unit and no
// other, and the metrics that are counts of what the program did repeat at
// the same seed.
func TestWorkloads(t *testing.T) {
	// Relative tolerance per repeating metric. The utility errors sum floats
	// in map order, which moves their last bit; checkpoints embed the stage
	// timers' durations, which moves their size by a few digits.
	repeats := map[string]float64{
		"density_err": 1e-12, "transition_err": 1e-12, "query_err": 1e-12,
		"checkpoint_mb": 1e-3, "core.checkpoint_bytes_per_point": 1e-3,
		"remote.wire_bytes_per_event": 0, "remote.bytes_in_presence": 0, "remote.bytes_in_assignments": 0,
		"remote.bytes_out_assignments": 0, "remote.bytes_in_report": 0, "remote.requests_per_round": 0,
		"remote.http_errors": 0, "remote.synthetic_mb": 0,
		"relayout.migrations": 0, "monitor.alarms": 0, "monitor.final_divergence_js": 1e-12,
		"allocation.reports_per_event": 0, "allocation.rounds_collecting": 0, "allocation.max_window_eps": 0,
		"bench.rounds_sampled": 0,
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			traced bool
			specs  []metricSpec
		}{{false, endToEnd}, {true, perLayer}} {
			a, b := toyRun(t, w, mode.traced), toyRun(t, w, mode.traced)
			if len(a.Metrics) != len(mode.specs) {
				t.Errorf("%s (traced %t): %d metrics emitted, %d declared", w.name, mode.traced, len(a.Metrics), len(mode.specs))
			}
			for _, m := range mode.specs {
				va, ok := a.Metrics[m.Name]
				if !ok {
					t.Errorf("%s (traced %t): metric %s is declared but not emitted", w.name, mode.traced, m.Name)
					continue
				}
				if va.Unit != m.Unit {
					t.Errorf("%s: metric %s emitted in %q, declared in %q", w.name, m.Name, va.Unit, m.Unit)
				}
				if tol, ok := repeats[m.Name]; ok && math.Abs(va.Value-b.Metrics[m.Name].Value) > tol*math.Abs(va.Value) {
					t.Errorf("%s: count-type metric %s differs between two runs at one seed: %v vs %v", w.name, m.Name, va.Value, b.Metrics[m.Name].Value)
				}
			}
			if mode.traced {
				wire := a.Metrics["remote.requests_per_round"].Value > 0
				if share := a.Metrics["bench.round_attributed_share"].Value; share <= 0 || share > 1.0001 {
					t.Errorf("%s: round_attributed_share = %v", w.name, share)
				}
				if eps := a.Metrics["allocation.max_window_eps"].Value; wire && (eps <= 0 || eps > epsilon) {
					t.Errorf("%s: max_window_eps = %v, want in (0, %v]", w.name, eps, epsilon)
				}
			}
		}
	}
}

func prepareToy(t *testing.T, name string) prepared {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	in, err := w.prepare(testSeed, t.TempDir(), true, layers{})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestAdaptiveLoopMatchesRunAdaptive: the harness drives the adaptive loop
// itself to time its parts; it must release exactly what the facade's own
// loop releases.
func TestAdaptiveLoopMatchesRunAdaptive(t *testing.T) {
	in := prepareToy(t, "engine_adaptive").(*enginePrepared)
	pass, err := in.replay(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pass.sys.release(nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := in.opts
	opts.Seed = passSeed(in.seed, 0)
	fw, err := retrasyn.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, stats, err := fw.RunAdaptive(in.raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Trajs, want.Trajs) {
		t.Errorf("harness loop released %d streams / %d points, RunAdaptive %d / %d, or the same counts in different cells",
			len(got.Trajs), got.NumPoints(), len(want.Trajs), want.NumPoints())
	}
	if int64(stats.TotalReports) != pass.reports || fw.LayoutGeneration() != int(pass.lay["relayout.migrations"]) {
		t.Errorf("harness loop: %d reports, %v migrations; RunAdaptive: %d, %d",
			pass.reports, pass.lay["relayout.migrations"], stats.TotalReports, fw.LayoutGeneration())
	}
	if fw.LayoutGeneration() < 1 {
		t.Errorf("toy adaptive stream never migrates; the comparison does not cover re-discretization")
	}
}

// TestWireLoopMatchesHandDrivenRounds: the harness's HTTP replay must leave
// the curator where the same rounds leave it when driven by hand through the
// curator's methods, no transport in between.
func TestWireLoopMatchesHandDrivenRounds(t *testing.T) {
	in := prepareToy(t, "wire_w20").(*wirePrepared)
	pass, err := in.replay(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := pass.sys.(*wireSystem)
	defer sys.close()

	cfg := in.cfg
	cfg.Seed = passSeed(in.seed, 0)
	cur, err := remote.NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := dataset.Open(in.path)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rd, err := dataset.NewReader(rc)
	if err != nil {
		t.Fatal(err)
	}
	d := in.dom.Size()
	rngs := make([]ldp.Rand, gateways)
	for i := range rngs {
		rngs[i] = ldp.NewRand(cfg.Seed+uint64(i), cfg.Seed^0x9e3779b97f4a7c15)
	}
	for {
		batch, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events, _ := batch.Events(in.grid, in.dom)
		users := make([][]int, gateways)
		states := make([][]transition.State, gateways)
		active := 0
		for _, ev := range events {
			i := ev.User % gateways
			users[i] = append(users[i], ev.User)
			states[i] = append(states[i], ev.State)
			if ev.State.Kind != transition.Quit {
				active++
			}
		}
		for i := range users {
			if err := cur.PresenceBatch(users[i], batch.T); err != nil {
				t.Fatal(err)
			}
		}
		if err := cur.Plan(batch.T); err != nil {
			t.Fatal(err)
		}
		for i := range users {
			as, err := cur.AssignmentsFor(users[i], batch.T)
			if err != nil {
				t.Fatal(err)
			}
			var reports []remote.BatchReport
			var eps float64
			for j, a := range as {
				if !a.Report {
					continue
				}
				eps = a.Epsilon
				idx, _ := in.dom.Index(states[i][j])
				reports = append(reports, remote.BatchReport{User: users[i][j], Ones: ldp.MustOUE(d, eps).Perturb(rngs[i], idx)})
			}
			switch {
			case len(reports) == 0:
			case ldp.PreferPacked(d, eps):
				packed, err := remote.PackReportBatch(reports, d)
				if err != nil {
					t.Fatal(err)
				}
				err = cur.ReportPackedBatch(batch.T, packed)
				if err != nil {
					t.Fatal(err)
				}
			default:
				if err := cur.ReportBatch(batch.T, reports); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := cur.Finalize(batch.T, active); err != nil {
			t.Fatal(err)
		}
	}

	wantRounds, wantReports := cur.Stats()
	gotRounds, gotReports := sys.cur.Stats()
	if gotRounds != wantRounds || gotReports != wantReports || sys.cur.PresenceEvents() != cur.PresenceEvents() {
		t.Errorf("harness over HTTP: %d rounds, %d reports, %d presence events; by hand: %d, %d, %d",
			gotRounds, gotReports, sys.cur.PresenceEvents(), wantRounds, wantReports, cur.PresenceEvents())
	}
	if int64(gotReports) != pass.reports || cur.PresenceEvents() != pass.events {
		t.Errorf("harness ledger: %d reports, %d events; curator by hand: %d, %d", pass.reports, pass.events, wantReports, cur.PresenceEvents())
	}
	if !reflect.DeepEqual(sys.cur.Synthetic("x").Trajs, cur.Synthetic("x").Trajs) {
		t.Errorf("the release after the HTTP replay differs from the release after the same rounds driven by hand")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 2, 7}, 1.5, 8},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "events_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 5} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 5} }
	for _, c := range []struct {
		m    metricSpec
		a, b summary
		want string
	}{
		{lower, tight(100), tight(105), verdictSame},
		{lower, tight(100), tight(115), verdictWorse},
		{lower, tight(100), tight(85), verdictBetter},
		{higher, tight(100), tight(85), verdictWorse},
		{higher, tight(100), tight(115), verdictBetter},
		{lower, tight(100), wide(130), verdictUnresolved},
		{lower, wide(100), tight(100), verdictUnresolved},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
