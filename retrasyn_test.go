package retrasyn

import (
	"strconv"

	"bytes"
	"math"
	"retrasyn/internal/obs"
	"strings"
	"testing"
)

func smallDataset(t *testing.T) (*Dataset, *Grid) {
	t.Helper()
	raw, bounds, err := StandardDataset("tdrive", 0.03, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(4, bounds)
	if err != nil {
		t.Fatal(err)
	}
	return Discretize(raw, g), g
}

func TestFrameworkRunEndToEnd(t *testing.T) {
	orig, g := smallDataset(t)
	fw, err := New(Options{
		Grid:    g,
		Epsilon: 1.0,
		Window:  10,
		Lambda:  orig.Stats().AvgLength,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn, stats, err := fw.Run(orig)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timestamps != orig.T {
		t.Fatalf("timestamps = %d", stats.Timestamps)
	}
	if err := syn.Validate(g, true); err != nil {
		t.Fatalf("invalid synthetic dataset: %v", err)
	}
	report := EvaluateUtility(orig, syn, g, UtilityOptions{Seed: 1})
	if report.DensityError < 0 || report.DensityError > math.Ln2+1e-9 {
		t.Fatalf("density error out of range: %v", report.DensityError)
	}
	if math.IsNaN(report.KendallTau) {
		t.Fatal("NaN Kendall tau")
	}
}

func TestFrameworkRunTwicRejected(t *testing.T) {
	orig, g := smallDataset(t)
	fw, _ := New(Options{Grid: g, Epsilon: 1, Window: 10, Lambda: 5})
	if _, _, err := fw.Run(orig); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fw.Run(orig); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestFrameworkStreamingAPI(t *testing.T) {
	orig, g := smallDataset(t)
	fw, err := New(Options{Grid: g, Epsilon: 1, Window: 10, Lambda: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	events, active := NewStreamEvents(orig)
	for ts := range events {
		if fw.Timestamp() != ts {
			t.Fatalf("Timestamp = %d, want %d", fw.Timestamp(), ts)
		}
		if err := fw.ProcessTimestamp(events[ts], active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	syn := fw.Synthetic("streamed")
	if syn.T != orig.T {
		t.Fatalf("synthetic timeline = %d", syn.T)
	}
	if err := syn.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	// Population division guarantees size mirroring.
	synActive := syn.ActiveCounts()
	for ts, want := range active {
		if synActive[ts] != want {
			t.Fatalf("t=%d: synthetic active %d, real %d", ts, synActive[ts], want)
		}
	}
}

func TestFrameworkSharded(t *testing.T) {
	orig, g := smallDataset(t)
	run := func(shards int) (*Dataset, RunStats) {
		fw, err := New(Options{
			Grid:    g,
			Epsilon: 1.0,
			Window:  10,
			Lambda:  orig.Stats().AvgLength,
			Shards:  shards,
			Seed:    9,
		})
		if err != nil {
			t.Fatal(err)
		}
		syn, stats, err := fw.Run(orig)
		if err != nil {
			t.Fatal(err)
		}
		return syn, stats
	}
	single, _ := run(1)
	sharded, stats := run(3)
	if err := sharded.Validate(g, true); err != nil {
		t.Fatalf("invalid merged release: %v", err)
	}
	if stats.Timestamps != orig.T {
		t.Fatalf("timestamps = %d", stats.Timestamps)
	}
	// The merged multi-shard release tracks the same global population as
	// the single-shard run.
	want := single.ActiveCounts()
	got := sharded.ActiveCounts()
	for ts := range want {
		if got[ts] != want[ts] {
			t.Fatalf("t=%d: sharded active %d, single-shard %d", ts, got[ts], want[ts])
		}
	}
	// And two identical sharded runs are deterministic.
	again, _ := run(3)
	if len(again.Trajs) != len(sharded.Trajs) {
		t.Fatalf("non-deterministic sharded run: %d vs %d streams", len(again.Trajs), len(sharded.Trajs))
	}
}

func TestFrameworkOptionsValidation(t *testing.T) {
	_, g := smallDataset(t)
	bad := []Options{
		{Grid: nil, Epsilon: 1, Window: 10, Lambda: 5},
		{Grid: g, Epsilon: 0, Window: 10, Lambda: 5},
		{Grid: g, Epsilon: 1, Window: 0, Lambda: 5},
		{Grid: g, Epsilon: 1, Window: 10, Lambda: 0},
		{Grid: g, Epsilon: 1, Window: 10, Lambda: 5, Strategy: "zigzag"},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("case %d accepted", i)
		} else if o.Strategy != "" && !strings.Contains(err.Error(), o.Strategy) {
			t.Errorf("case %d: error %v does not name strategy %q", i, err, o.Strategy)
		}
	}
	// All valid strategies and divisions construct.
	for _, s := range []string{"", StrategyAdaptive, StrategyUniform, StrategySample} {
		for _, d := range []Division{BudgetDivision, PopulationDivision} {
			if _, err := New(Options{Grid: g, Epsilon: 1, Window: 10, Lambda: 5, Strategy: s, Division: d}); err != nil {
				t.Errorf("strategy %q division %v rejected: %v", s, d, err)
			}
		}
	}
}

func TestFrameworkAblations(t *testing.T) {
	orig, g := smallDataset(t)
	for _, opts := range []Options{
		{Grid: g, Epsilon: 1, Window: 10, Lambda: 8, DisableDMU: true},
		{Grid: g, Epsilon: 1, Window: 10, DisableEQ: true},
		{Grid: g, Epsilon: 1, Window: 10, Lambda: 8, FaithfulClients: true},
	} {
		fw, err := New(opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		syn, _, err := fw.Run(orig)
		if err != nil {
			t.Fatal(err)
		}
		if err := syn.Validate(g, true); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	orig, g := smallDataset(t)
	for _, m := range []BaselineMethod{LBD, LBA, LPD, LPA} {
		syn, err := RunBaseline(orig, g, m, 1.0, 10, 7)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := syn.Validate(g, true); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestStandardDatasetNames(t *testing.T) {
	for _, name := range []string{"tdrive", "oldenburg", "sanjoaquin"} {
		raw, bounds, err := StandardDataset(name, 0.02, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(raw.Trajs) == 0 || !bounds.Valid() {
			t.Fatalf("%s: degenerate output", name)
		}
	}
	if _, _, err := StandardDataset("mars", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestGenerateHelpers(t *testing.T) {
	net, err := GenerateRoadNetwork(6, Bounds{MaxX: 5, MaxY: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := GenerateBrinkhoffLike(net, BrinkhoffConfig{T: 20, InitialUsers: 10, QuitProb: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Trajs) != 10 {
		t.Fatalf("streams = %d", len(raw.Trajs))
	}
	td, err := GenerateTDriveLike(TDriveConfig{T: 20, ArrivalsPerTs: 5, MaxX: 10, MaxY: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Trajs) == 0 {
		t.Fatal("empty tdrive output")
	}
}

func TestStateConstructors(t *testing.T) {
	m := MoveState(1, 2)
	if m.From != 1 || m.To != 2 {
		t.Fatal("MoveState")
	}
	e := EnterState(3)
	if e.To != 3 {
		t.Fatal("EnterState")
	}
	q := QuitState(4)
	if q.From != 4 {
		t.Fatal("QuitState")
	}
}

// equalDatasets compares two releases stream-by-stream.
func equalDatasets(a, b *Dataset) bool {
	if a.T != b.T || len(a.Trajs) != len(b.Trajs) {
		return false
	}
	for i := range a.Trajs {
		if a.Trajs[i].Start != b.Trajs[i].Start || len(a.Trajs[i].Cells) != len(b.Trajs[i].Cells) {
			return false
		}
		for j, c := range a.Trajs[i].Cells {
			if b.Trajs[i].Cells[j] != c {
				return false
			}
		}
	}
	return true
}

// TestFrameworkSnapshotRoundTrip checks the facade checkpoint contract for
// both the single-engine and the multi-shard coordinator paths: snapshot at
// T/2, serialize through Encode/Decode, restore into a fresh framework, and
// the final release must be bit-identical to an uninterrupted run.
func TestFrameworkSnapshotRoundTrip(t *testing.T) {
	orig, g := smallDataset(t)
	events, active := NewStreamEvents(orig)
	for _, shards := range []int{1, 3} {
		opts := Options{
			Grid:    g,
			Epsilon: 1.0,
			Window:  10,
			Lambda:  orig.Stats().AvgLength,
			Shards:  shards,
			Seed:    17,
		}
		feed := func(fw *Framework, from, to int) {
			t.Helper()
			for ts := from; ts < to; ts++ {
				if err := fw.ProcessTimestamp(events[ts], active[ts]); err != nil {
					t.Fatal(err)
				}
			}
		}

		uninterrupted, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		feed(uninterrupted, 0, orig.T)

		half := orig.T / 2
		fw, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		feed(fw, 0, half)
		cp, err := fw.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := Restore(opts, decoded)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Timestamp() != half {
			t.Fatalf("shards=%d: restored at t=%d, want %d", shards, resumed.Timestamp(), half)
		}
		feed(resumed, half, orig.T)

		if !equalDatasets(resumed.Synthetic("syn"), uninterrupted.Synthetic("syn")) {
			t.Fatalf("shards=%d: resumed release differs from uninterrupted run", shards)
		}
		// Restoring into a mismatched shard count must fail.
		bad := opts
		bad.Shards = shards + 1
		if _, err := Restore(bad, decoded); err == nil {
			t.Fatalf("shards=%d: restore into %d shards accepted", shards, bad.Shards)
		}
	}
}

// TestProcessTimestampValidation covers the facade input checks: negative
// active counts and duplicate per-timestamp user IDs are rejected without
// advancing the stream.
func TestProcessTimestampValidation(t *testing.T) {
	g, err := NewGrid(4, Bounds{MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Options{Grid: g, Epsilon: 1, Window: 5, Lambda: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.ProcessTimestamp(nil, -1); err == nil {
		t.Fatal("negative activeUsers accepted")
	}
	dup := []Event{
		{User: 7, State: EnterState(0)},
		{User: 7, State: EnterState(1)},
	}
	err = fw.ProcessTimestamp(dup, 2)
	if err == nil {
		t.Fatal("duplicate user accepted")
	}
	if !strings.Contains(err.Error(), "user 7") {
		t.Fatalf("error does not name the duplicate user: %v", err)
	}
	if fw.Timestamp() != 0 {
		t.Fatalf("framework advanced to t=%d on rejected input", fw.Timestamp())
	}
	ok := []Event{
		{User: 7, State: EnterState(0)},
		{User: 8, State: EnterState(1)},
	}
	if err := fw.ProcessTimestamp(ok, 2); err != nil {
		t.Fatal(err)
	}
	if fw.Timestamp() != 1 {
		t.Fatalf("framework did not advance on valid input")
	}
	// The duplicate check's scratch is reused across timestamps: a user seen
	// at t must not count as a duplicate at t+1, while a duplicate inside t+1
	// is still caught before anything changed.
	before := datasetFingerprint(fw.Synthetic("syn"))
	dup = []Event{
		{User: 7, State: MoveState(0, 1)},
		{User: 9, State: EnterState(2)},
		{User: 9, State: EnterState(3)},
	}
	if err := fw.ProcessTimestamp(dup, 3); err == nil || !strings.Contains(err.Error(), "user 9") {
		t.Fatalf("duplicate inside t+1: got %v, want an error naming user 9", err)
	}
	if fw.Timestamp() != 1 || datasetFingerprint(fw.Synthetic("syn")) != before {
		t.Fatal("rejected duplicate at t+1 changed the framework")
	}
	again := []Event{
		{User: 7, State: MoveState(0, 1)},
		{User: 8, State: MoveState(1, 1)},
	}
	if err := fw.ProcessTimestamp(again, 2); err != nil {
		t.Fatalf("users present at t rejected at t+1: %v", err)
	}
	if fw.Timestamp() != 2 {
		t.Fatal("framework did not advance at t+1")
	}
}

// TestFrameworkMetricsBitIdentical is the golden bit-identity gate for the
// observability layer: a framework run with a live metrics registry must
// release the exact synthetic database an uninstrumented run does — the
// instrumentation never touches the RNG stream — while the registry's
// pipeline and budget series actually move.
func TestFrameworkMetricsBitIdentical(t *testing.T) {
	orig, g := smallDataset(t)
	opts := func() Options {
		return Options{Grid: g, Epsilon: 1, Window: 10, Lambda: 8, Seed: 3, Shards: 2}
	}
	run := func(o Options) *Dataset {
		fw, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		events, active := NewStreamEvents(orig)
		for ts := range events {
			if err := fw.ProcessTimestamp(events[ts], active[ts]); err != nil {
				t.Fatal(err)
			}
		}
		return fw.Synthetic("syn")
	}
	plain := run(opts())
	reg := NewMetrics()
	o := opts()
	o.Metrics = reg
	instrumented := run(o)

	if pa, pb := plain.ActiveCounts(), instrumented.ActiveCounts(); len(pa) != len(pb) {
		t.Fatal("timeline length diverged under instrumentation")
	}
	for i := range plain.Trajs {
		a, b := plain.Trajs[i], instrumented.Trajs[i]
		if a.Start != b.Start || len(a.Cells) != len(b.Cells) {
			t.Fatalf("trajectory %d diverged under instrumentation", i)
		}
		for j := range a.Cells {
			if a.Cells[j] != b.Cells[j] {
				t.Fatalf("trajectory %d cell %d diverged under instrumentation", i, j)
			}
		}
	}

	var stepped int64
	for shard := 0; shard < 2; shard++ {
		sh := obs.Label{Key: "shard", Value: strconv.Itoa(shard)}
		stepped += reg.Counter("pipeline.rounds", sh).Value() +
			reg.Counter("pipeline.silent_timestamps", sh).Value()
	}
	if want := int64(2 * orig.T); stepped != want {
		t.Fatalf("pipeline stepped %d shard-rounds, want %d", stepped, want)
	}
	if reg.Counter("budget.rounds").Value()+reg.Counter("budget.silent_rounds").Value() == 0 {
		t.Fatal("budget meter never observed a round")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`pipeline_stage_latency_us_count{shard="0",stage="dmu"}`,
		`pipeline_stage_latency_us_count{shard="1",stage="dmu"}`,
		"budget_cumulative_eps",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("facade exposition missing %q", want)
		}
	}
}
