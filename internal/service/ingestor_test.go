package service_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retrasyn"
	"retrasyn/internal/obs"
	"retrasyn/internal/service"
	"retrasyn/internal/trajectory"
)

const producers = 8

func testData(t *testing.T) (*retrasyn.Dataset, *retrasyn.Grid) {
	t.Helper()
	raw, bounds, err := retrasyn.StandardDataset("tdrive", 0.03, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := retrasyn.NewGrid(4, bounds)
	if err != nil {
		t.Fatal(err)
	}
	return retrasyn.Discretize(raw, g), g
}

func newFramework(t *testing.T, g *retrasyn.Grid, orig *retrasyn.Dataset, shards int) *retrasyn.Framework {
	t.Helper()
	fw, err := retrasyn.New(retrasyn.Options{
		Grid:    g,
		Epsilon: 1.0,
		Window:  10,
		Lambda:  orig.Stats().AvgLength,
		Shards:  shards,
		Seed:    23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func equalDatasets(a, b *retrasyn.Dataset) bool {
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

// ingestConcurrently drives the whole stream through the ingestor from
// `producers` goroutines: producer p submits every event whose slice index
// ≡ p (mod producers), one batch per timestamp, and whichever producer
// completes a timestamp's fan-in seals it. Timestamps are therefore
// submitted and sealed in racy, interleaved order while the barrier keeps
// engine processing strictly sequential.
func ingestConcurrently(t *testing.T, in *service.Ingestor, events [][]retrasyn.Event, active []int) {
	t.Helper()
	fanin := make([]atomic.Int32, len(events))
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for ts := range events {
				var batch []trajectory.Event
				for i := p; i < len(events[ts]); i += producers {
					batch = append(batch, events[ts][i])
				}
				if err := in.Submit(ts, batch); err != nil {
					t.Errorf("producer %d: submit t=%d: %v", p, ts, err)
					return
				}
				if fanin[ts].Add(1) == producers {
					if err := in.Seal(ts, active[ts]); err != nil {
						t.Errorf("producer %d: seal t=%d: %v", p, ts, err)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
}

// TestConcurrentIngestMatchesSequential is the acceptance test: 8 goroutines
// submit interleaved batches; the released synthetic database must be
// bit-identical to a sequential single-caller replay — for both the
// single-engine and the multi-shard coordinator paths.
func TestConcurrentIngestMatchesSequential(t *testing.T) {
	orig, g := testData(t)
	events, active := retrasyn.NewStreamEvents(orig)
	for _, shards := range []int{1, 3} {
		sequential := newFramework(t, g, orig, shards)
		for ts := range events {
			if err := sequential.ProcessTimestamp(events[ts], active[ts]); err != nil {
				t.Fatal(err)
			}
		}

		fw := newFramework(t, g, orig, shards)
		in := service.New(fw, service.Options{})
		ingestConcurrently(t, in, events, active)
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		if got := in.NextTimestamp(); got != orig.T {
			t.Fatalf("shards=%d: processed up to t=%d, want %d", shards, got, orig.T)
		}
		if !equalDatasets(fw.Synthetic("syn"), sequential.Synthetic("syn")) {
			t.Fatalf("shards=%d: concurrent ingest release differs from sequential replay", shards)
		}
		total := 0
		for ts := range events {
			total += len(events[ts])
		}
		st := in.Stats()
		if st.EventsAccepted != int64(total) || st.EventsDropped != 0 {
			t.Fatalf("shards=%d: stats %+v inconsistent with stream (%d events)", shards, st, total)
		}
	}
}

// TestIngestPassesPackedRoundsThrough pins that the ingest layer never
// touches a report: the concurrent ingest release must match a sequential
// replay exactly, proving the ingestor hands batches through untouched
// rather than re-encoding anything on the way down.
func TestIngestPassesPackedRoundsThrough(t *testing.T) {
	orig, g := testData(t)
	events, active := retrasyn.NewStreamEvents(orig)
	sequential := newFramework(t, g, orig, 1)
	for ts := range events {
		if err := sequential.ProcessTimestamp(events[ts], active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	fw := newFramework(t, g, orig, 1)
	in := service.New(fw, service.Options{})
	ingestConcurrently(t, in, events, active)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if !equalDatasets(fw.Synthetic("syn"), sequential.Synthetic("syn")) {
		t.Fatal("packed-round ingest release differs from sequential replay")
	}
}

// TestIngestBackpressure forces a tiny buffer and out-of-order window; the
// run must neither deadlock nor diverge from the sequential release.
func TestIngestBackpressure(t *testing.T) {
	orig, g := testData(t)
	events, active := retrasyn.NewStreamEvents(orig)

	sequential := newFramework(t, g, orig, 1)
	for ts := range events {
		if err := sequential.ProcessTimestamp(events[ts], active[ts]); err != nil {
			t.Fatal(err)
		}
	}

	fw := newFramework(t, g, orig, 1)
	in := service.New(fw, service.Options{MaxAhead: 2, MaxPendingEvents: 32})
	ingestConcurrently(t, in, events, active)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if !equalDatasets(fw.Synthetic("syn"), sequential.Synthetic("syn")) {
		t.Fatal("backpressured ingest release differs from sequential replay")
	}
	if in.Stats().BackpressureWaits == 0 {
		t.Fatal("expected backpressure with a 32-event buffer")
	}
}

// TestIngestQuiesceCheckpoint checkpoints mid-stream under concurrent
// ingestion, restores into a fresh framework + ingestor, replays the rest,
// and demands a release bit-identical to the uninterrupted run.
func TestIngestQuiesceCheckpoint(t *testing.T) {
	orig, g := testData(t)
	events, active := retrasyn.NewStreamEvents(orig)
	opts := retrasyn.Options{
		Grid: g, Epsilon: 1.0, Window: 10, Lambda: orig.Stats().AvgLength, Seed: 23,
	}

	uninterrupted := newFramework(t, g, orig, 1)
	for ts := range events {
		if err := uninterrupted.ProcessTimestamp(events[ts], active[ts]); err != nil {
			t.Fatal(err)
		}
	}

	half := orig.T / 2
	fw := newFramework(t, g, orig, 1)
	in := service.New(fw, service.Options{})
	ingestConcurrently(t, in, events[:half], active[:half])
	var cp *retrasyn.Checkpoint
	if err := in.Quiesce(func() error {
		var err error
		cp, err = fw.Snapshot()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if cp.T != half {
		t.Fatalf("checkpoint at t=%d, want %d", cp.T, half)
	}

	restored, err := retrasyn.Restore(opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	in2 := service.New(restored, service.Options{})
	if in2.NextTimestamp() != half {
		t.Fatalf("restored ingestor starts at t=%d, want %d", in2.NextTimestamp(), half)
	}
	var wg sync.WaitGroup
	for ts := half; ts < orig.T; ts++ {
		wg.Add(1)
		go func(ts int) {
			defer wg.Done()
			if err := in2.Submit(ts, events[ts]); err != nil {
				t.Errorf("submit t=%d: %v", ts, err)
				return
			}
			if err := in2.Seal(ts, active[ts]); err != nil {
				t.Errorf("seal t=%d: %v", ts, err)
			}
		}(ts)
	}
	wg.Wait()
	if err := in2.Close(); err != nil {
		t.Fatal(err)
	}
	if !equalDatasets(restored.Synthetic("syn"), uninterrupted.Synthetic("syn")) {
		t.Fatal("checkpoint-resumed release differs from uninterrupted run")
	}
}

// blockingEngine parks inside ProcessTimestamp until released, so tests can
// observe the ingestor mid-call.
type blockingEngine struct {
	t       int
	entered chan struct{}
	release chan struct{}
}

func (b *blockingEngine) ProcessTimestamp(events []trajectory.Event, active int) error {
	b.entered <- struct{}{}
	<-b.release
	b.t++
	return nil
}

func (b *blockingEngine) Timestamp() int { return b.t }

// TestSubmitDuringProcessingRejected pins the in-flight contract: once the
// drain has handed timestamp t to the engine, Submit(t)/Seal(t) must report
// the timestamp closed rather than silently buffering events that will
// never be processed.
func TestSubmitDuringProcessingRejected(t *testing.T) {
	eng := &blockingEngine{entered: make(chan struct{}), release: make(chan struct{})}
	in := service.New(eng, service.Options{})
	ev := []trajectory.Event{{User: 1}}
	if err := in.Submit(0, ev); err != nil {
		t.Fatal(err)
	}
	if err := in.Seal(0, 1); err != nil {
		t.Fatal(err)
	}
	<-eng.entered // drain is now inside ProcessTimestamp(0, ...)
	if err := in.Submit(0, ev); !errors.Is(err, service.ErrTimestampClosed) {
		t.Fatalf("submit to in-flight timestamp: %v", err)
	}
	if err := in.Seal(0, 1); !errors.Is(err, service.ErrTimestampClosed) {
		t.Fatalf("seal of in-flight timestamp: %v", err)
	}
	close(eng.release)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if p := in.Pending(); p != 0 {
		t.Fatalf("pending events leaked: %d", p)
	}
}

// TestIngestErrorsAndLifecycle covers the error contract: stale and
// duplicate submissions, engine-failure stickiness, and post-Close behavior.
func TestIngestErrorsAndLifecycle(t *testing.T) {
	orig, g := testData(t)
	fw := newFramework(t, g, orig, 1)
	in := service.New(fw, service.Options{})

	enter := retrasyn.EnterState(0)
	if err := in.Submit(0, []retrasyn.Event{{User: 1, State: enter}}); err != nil {
		t.Fatal(err)
	}
	if err := in.Seal(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := in.Seal(0, 1); !errors.Is(err, service.ErrAlreadySealed) && !errors.Is(err, service.ErrTimestampClosed) {
		t.Fatalf("duplicate seal: %v", err)
	}
	// Wait for t=0 to drain, then a stale submit must be rejected.
	if err := in.Quiesce(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := in.Submit(0, nil); !errors.Is(err, service.ErrTimestampClosed) {
		t.Fatalf("stale submit: %v", err)
	}

	// A duplicate user within one timestamp is an engine-level error; it
	// must stick and surface through Close.
	dup := []retrasyn.Event{{User: 2, State: enter}, {User: 2, State: enter}}
	if err := in.Submit(1, dup); err != nil {
		t.Fatal(err)
	}
	if err := in.Seal(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := in.Quiesce(func() error { return nil }); err == nil {
		t.Fatal("engine failure not sticky")
	}
	if err := in.Close(); err == nil {
		t.Fatal("Close did not report the engine failure")
	}

	in2 := service.New(newFramework(t, g, orig, 1), service.Options{})
	if err := in2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in2.Submit(0, nil); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if err := in2.Seal(0, 0); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("seal after close: %v", err)
	}
	if err := in2.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestRelayoutHookDuringConcurrentIngest drives concurrent producers while
// the ingestor migrates the engine mid-stream through the Relayout quiesce
// hook. The migration target is layout-identical to the boot grid, so the
// identity-migration invariant makes the released database bit-identical to
// a plain sequential replay no matter where the barrier lands between the
// racing timestamps (run with -race).
func TestRelayoutHookDuringConcurrentIngest(t *testing.T) {
	orig, g := testData(t)
	events, active := retrasyn.NewStreamEvents(orig)

	seqFW := newFramework(t, g, orig, 1)
	for ts := range events {
		if err := seqFW.ProcessTimestamp(events[ts], active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	want := seqFW.Synthetic("seq")

	fw := newFramework(t, g, orig, 1)
	in := service.New(fw, service.Options{})
	clone, err := retrasyn.NewGrid(4, g.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Race the migration against the producers; the hook refuses while
		// old-layout events sit in the buffer, so retry until it lands in a
		// submission lull (or after the stream drains).
		for {
			err := in.Relayout(clone)
			if err == nil || !strings.Contains(err.Error(), "buffered events") {
				done <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	ingestConcurrently(t, in, events, active)
	if err := <-done; err != nil {
		t.Fatalf("relayout hook: %v", err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if !equalDatasets(want, fw.Synthetic("seq")) {
		t.Fatal("identity migration through the ingestor changed the release")
	}
	if fw.LayoutGeneration() != 1 {
		t.Fatalf("engine generation = %d, want 1", fw.LayoutGeneration())
	}
}

// TestRelayoutHookRejectsPlainEngine pins the error for engines that cannot
// migrate.
func TestRelayoutHookRejectsPlainEngine(t *testing.T) {
	eng := &blockingEngine{release: make(chan struct{})}
	close(eng.release)
	in := service.New(eng, service.Options{})
	defer in.Close()
	g, err := retrasyn.NewGrid(2, retrasyn.Bounds{MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Relayout(g); err == nil {
		t.Fatal("relayout accepted on an engine without migration support")
	}
}

// failingEngine fails every ProcessTimestamp call and counts how many it
// received.
type failingEngine struct {
	calls atomic.Int32
}

func (f *failingEngine) ProcessTimestamp([]trajectory.Event, int) error {
	f.calls.Add(1)
	return errors.New("shard wedged")
}

func (f *failingEngine) Timestamp() int { return 0 }

// TestEngineFailureStopsDrain: once the engine fails, the drain must never
// feed it another timestamp — the error is sticky and later rounds would
// only pile results onto broken state. Pre-fix the drain kept popping
// sealed timestamps into the failed engine (three calls here) and the
// buffered events vanished without being counted as dropped.
func TestEngineFailureStopsDrain(t *testing.T) {
	eng := &failingEngine{}
	in := service.New(eng, service.Options{})
	batch := func(users ...int) []trajectory.Event {
		evs := make([]trajectory.Event, len(users))
		for i, u := range users {
			evs[i].User = u
		}
		return evs
	}
	if err := in.Submit(0, batch(1)); err != nil {
		t.Fatal(err)
	}
	if err := in.Submit(1, batch(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := in.Submit(2, batch(4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	// Seal in reverse so the barrier releases everything at once: when the
	// t=0 seal lands, t=1 and t=2 are already sealed and ready — exactly the
	// shape where a drain that ignores the sticky error marches on.
	for _, ts := range []int{2, 1, 0} {
		if err := in.Seal(ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for in.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("engine failure never surfaced via Err")
		}
		time.Sleep(time.Millisecond)
	}
	if got := eng.calls.Load(); got != 1 {
		t.Fatalf("failed engine got %d ProcessTimestamp calls, want 1", got)
	}
	if st := in.Stats(); st.EventsDropped != 5 {
		t.Fatalf("EventsDropped = %d, want 5 (the t=1 and t=2 buffers)", st.EventsDropped)
	}
	if got := in.Pending(); got != 0 {
		t.Fatalf("Pending = %d after failure, want 0", got)
	}
	if err := in.Submit(3, batch(7)); err == nil || !strings.Contains(err.Error(), "shard wedged") {
		t.Fatalf("submit after failure = %v, want the sticky engine error", err)
	}
	if err := in.Close(); err == nil || !strings.Contains(err.Error(), "shard wedged") {
		t.Fatalf("Close = %v, want the sticky engine error", err)
	}
}

// nopEngine accepts everything instantly.
type nopEngine struct{ processed atomic.Int32 }

func (e *nopEngine) ProcessTimestamp([]trajectory.Event, int) error {
	e.processed.Add(1)
	return nil
}

func (e *nopEngine) Timestamp() int { return 0 }

// TestBackpressureWaitsCountsEpisodes: a Submit that blocks, wakes on a
// space broadcast and finds the buffer still full must count again —
// pre-fix a once-per-call flag froze the counter at its first wait, hiding
// sustained pressure from exactly the stats a replay harness watches.
func TestBackpressureWaitsCountsEpisodes(t *testing.T) {
	eng := &nopEngine{}
	in := service.New(eng, service.Options{MaxPendingEvents: 4})
	fill := make([]trajectory.Event, 4)
	for i := range fill {
		fill[i].User = i
	}
	// t=5 is read-ahead (next is 0) but the empty-buffer override admits it,
	// so the buffer is now exactly full with nothing the drain can process.
	if err := in.Submit(5, fill); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- in.Submit(6, []trajectory.Event{{User: 99}})
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s (BackpressureWaits = %d)", what, in.Stats().BackpressureWaits)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("second submit never blocked", func() bool {
		return in.Stats().BackpressureWaits >= 1
	})
	// Draining the empty t=0 broadcasts space without freeing any: the
	// blocked producer wakes, still does not fit, and must wait again.
	if err := in.Seal(0, 0); err != nil {
		t.Fatal(err)
	}
	waitFor("wait episodes after a wakeup go uncounted", func() bool {
		return in.Stats().BackpressureWaits >= 2
	})
	for ts := 1; ts <= 5; ts++ {
		if err := in.Seal(ts, 0); err != nil {
			t.Fatalf("seal t=%d: %v", ts, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked submit: %v", err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.processed.Load(); got != 6 {
		t.Fatalf("engine processed %d timestamps, want 6", got)
	}
}

// TestIngestMetricsMirrorStats: with a registry wired in, the ingest.*
// series must agree with the ingestor's own Stats ledger after a full
// concurrent replay, and the occupancy gauges must read empty once closed.
func TestIngestMetricsMirrorStats(t *testing.T) {
	orig, g := testData(t)
	events, active := retrasyn.NewStreamEvents(orig)
	reg := obs.NewRegistry()
	fw := newFramework(t, g, orig, 1)
	in := service.New(fw, service.Options{Metrics: reg})
	ingestConcurrently(t, in, events, active)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	for name, want := range map[string]int64{
		"ingest.batches_accepted":     st.BatchesAccepted,
		"ingest.events_accepted":      st.EventsAccepted,
		"ingest.timestamps_processed": st.TimestampsProcessed,
		"ingest.backpressure_waits":   st.BackpressureWaits,
		"ingest.events_dropped":       0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d (stats %+v)", name, got, want, st)
		}
	}
	if st.EventsAccepted == 0 || st.TimestampsProcessed != int64(orig.T) {
		t.Fatalf("replay did not exercise the ingestor: %+v", st)
	}
	for _, name := range []string{"ingest.pending_events", "ingest.buffered_timestamps", "ingest.sealed_waiting"} {
		if got := reg.Gauge(name).Value(); got != 0 {
			t.Fatalf("%s = %v after close, want 0", name, got)
		}
	}
}

// TestIngestMetricsCountCloseDrops: events buffered for a never-sealed
// timestamp are purged on Close and must land in ingest.events_dropped.
func TestIngestMetricsCountCloseDrops(t *testing.T) {
	orig, g := testData(t)
	reg := obs.NewRegistry()
	in := service.New(newFramework(t, g, orig, 1), service.Options{Metrics: reg})
	if err := in.Submit(0, []trajectory.Event{{User: 1}, {User: 2}}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("ingest.pending_events").Value(); got != 2 {
		t.Fatalf("pending_events = %v, want 2", got)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ingest.events_dropped").Value(); got != 2 {
		t.Fatalf("events_dropped = %d, want 2", got)
	}
	if got := reg.Gauge("ingest.pending_events").Value(); got != 0 {
		t.Fatalf("pending_events = %v after close, want 0", got)
	}
}
