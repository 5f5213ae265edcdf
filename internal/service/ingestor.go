// Package service is the production ingest layer over the RetraSyn engine:
// a concurrent-safe Ingestor that accepts batched per-timestamp event
// submissions from many goroutines (gateway shards, HTTP handlers, message
// consumers), buffers bounded out-of-order arrivals behind a per-timestamp
// barrier, applies backpressure when the buffer fills, and drives the
// underlying single-threaded engine strictly in timestamp order.
//
// Determinism: within a timestamp, events are processed in ascending user-ID
// order regardless of arrival interleaving, so a concurrent ingest run
// releases exactly the same synthetic database as a sequential replay of the
// same stream — the ingestion layer adds throughput, not noise. Combined
// with the engine's checkpointing (Quiesce + Framework.Snapshot) this gives
// a durable, resumable curator service.
//
// The ingest layer never sees a report: it buffers raw events and hands each
// timestamp's batch to the engine untouched. The engine's collector perturbs
// the round into bit-packed rows and folds them — nothing here inspects or
// re-encodes reports, so rounds flow through at full batch granularity.
package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"retrasyn/internal/obs"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

// Engine is the single-threaded stream processor the Ingestor serializes
// onto — retrasyn.Framework satisfies it on both its single-engine and
// multi-shard coordinator paths.
type Engine interface {
	// ProcessTimestamp ingests the next timestamp's events and the publicly
	// known active-user count.
	ProcessTimestamp(events []trajectory.Event, activeUsers int) error
	// Timestamp returns the next timestamp the engine expects.
	Timestamp() int
}

// Errors returned by Ingestor methods.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("service: ingestor closed")
	// ErrTimestampClosed is returned for submissions to a timestamp the
	// engine has already processed.
	ErrTimestampClosed = errors.New("service: timestamp already processed")
	// ErrAlreadySealed is returned for a duplicate Seal of a timestamp.
	ErrAlreadySealed = errors.New("service: timestamp already sealed")
)

// Options tunes the ingest buffer.
type Options struct {
	// MaxAhead bounds how far ahead of the engine's current timestamp a
	// submission may arrive: events for timestamps ≥ current+MaxAhead block
	// until the engine catches up. Default 64.
	MaxAhead int
	// MaxPendingEvents bounds the total buffered (unprocessed) events;
	// submissions that would exceed it block until the drain frees space.
	// A batch larger than the whole buffer is admitted alone when the
	// buffer is empty. Default 65536.
	MaxPendingEvents int
	// Metrics, when non-nil, mirrors the Stats counters and the live buffer
	// occupancy into registry series under "ingest." — see the README's
	// observability catalog. Nil leaves instrumentation off.
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.MaxAhead <= 0 {
		o.MaxAhead = 64
	}
	if o.MaxPendingEvents <= 0 {
		o.MaxPendingEvents = 1 << 16
	}
}

// Stats counts ingestor activity. Snapshot it with Ingestor.Stats.
type Stats struct {
	BatchesAccepted     int64 `json:"batches_accepted"`
	EventsAccepted      int64 `json:"events_accepted"`
	TimestampsProcessed int64 `json:"timestamps_processed"`
	// BackpressureWaits counts blocking episodes: every time a Submit had
	// to wait for space. A call that blocks, wakes and must block again
	// counts once per wait, so under sustained replay pressure the counter
	// tracks how hard producers are leaning on the buffer, not merely how
	// many calls ever touched it.
	BackpressureWaits int64 `json:"backpressure_waits"`
	// EventsDropped counts buffered events discarded because the ingestor
	// closed before their timestamp was sealed.
	EventsDropped int64 `json:"events_dropped"`
}

// Ingestor is the concurrent ingest front of an Engine. All methods are safe
// for concurrent use. Create with New, feed with Submit/Seal, stop with
// Close.
type Ingestor struct {
	eng  Engine
	opts Options

	mu    sync.Mutex
	space *sync.Cond // waiters for buffer space (producers)
	work  *sync.Cond // drain waiting for sealed work
	idle  *sync.Cond // waiters for the drain to go idle (Quiesce, Close)

	next          int // next timestamp the engine expects
	buf           map[int][]trajectory.Event
	sealed        map[int]int // timestamp → active-user count
	pendingEvents int
	processing    bool // drain is inside eng.ProcessTimestamp
	closed        bool
	failed        error // sticky engine error
	stats         Stats
	done          chan struct{}
	metrics       ingestMetrics
}

// ingestMetrics mirrors the Stats counters and live buffer occupancy into
// registry series. The zero value (nil handles) records nothing.
type ingestMetrics struct {
	batches    *obs.Counter
	events     *obs.Counter
	processed  *obs.Counter
	waits      *obs.Counter
	dropped    *obs.Counter
	pending    *obs.Gauge // buffered (unprocessed) events
	buffered   *obs.Gauge // distinct timestamps currently buffered
	sealedOpen *obs.Gauge // sealed timestamps not yet drained
}

func newIngestMetrics(reg *obs.Registry) ingestMetrics {
	if reg == nil {
		return ingestMetrics{}
	}
	return ingestMetrics{
		batches:    reg.Counter("ingest.batches_accepted"),
		events:     reg.Counter("ingest.events_accepted"),
		processed:  reg.Counter("ingest.timestamps_processed"),
		waits:      reg.Counter("ingest.backpressure_waits"),
		dropped:    reg.Counter("ingest.events_dropped"),
		pending:    reg.Gauge("ingest.pending_events"),
		buffered:   reg.Gauge("ingest.buffered_timestamps"),
		sealedOpen: reg.Gauge("ingest.sealed_waiting"),
	}
}

// sync refreshes the occupancy gauges; callers hold in.mu.
func (in *Ingestor) syncOccupancy() {
	in.metrics.pending.Set(float64(in.pendingEvents))
	in.metrics.buffered.Set(float64(len(in.buf)))
	in.metrics.sealedOpen.Set(float64(len(in.sealed)))
}

// New starts an ingestor over eng. The caller must not drive eng directly
// while the ingestor owns it.
func New(eng Engine, opts Options) *Ingestor {
	opts.defaults()
	in := &Ingestor{
		eng:     eng,
		opts:    opts,
		next:    eng.Timestamp(),
		buf:     make(map[int][]trajectory.Event),
		sealed:  make(map[int]int),
		done:    make(chan struct{}),
		metrics: newIngestMetrics(opts.Metrics),
	}
	in.space = sync.NewCond(&in.mu)
	in.work = sync.NewCond(&in.mu)
	in.idle = sync.NewCond(&in.mu)
	go in.drain()
	return in
}

// Submit buffers a batch of events for timestamp t. It blocks while the
// buffer is full or t is beyond the out-of-order window (backpressure), and
// returns once the batch is accepted. Events for an already-processed
// timestamp return ErrTimestampClosed; submissions after Close return
// ErrClosed; a sticky engine error is returned to all subsequent calls.
func (in *Ingestor) Submit(t int, events []trajectory.Event) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		switch {
		case in.failed != nil:
			return in.failed
		case in.closed:
			return ErrClosed
		case t < in.next, t == in.next && in.processing:
			// A timestamp is closed the moment the drain hands it to the
			// engine, not only after next advances — accepting events for
			// the in-flight timestamp would silently drop them.
			return ErrTimestampClosed
		}
		if _, ok := in.sealed[t]; ok {
			return fmt.Errorf("service: submit to timestamp %d: %w", t, ErrAlreadySealed)
		}
		// The head timestamp is always admitted: its seal is what lets the
		// drain shrink the buffer, so holding it back for space would
		// deadlock a full buffer whose timestamps are all waiting on their
		// last producer. The event bound therefore governs read-ahead
		// timestamps, with at most one head timestamp of overage.
		fits := t == in.next ||
			in.pendingEvents == 0 ||
			in.pendingEvents+len(events) <= in.opts.MaxPendingEvents
		if t < in.next+in.opts.MaxAhead && fits {
			break
		}
		in.stats.BackpressureWaits++
		in.metrics.waits.Inc()
		in.space.Wait()
	}
	in.buf[t] = append(in.buf[t], events...)
	in.pendingEvents += len(events)
	in.stats.BatchesAccepted++
	in.stats.EventsAccepted += int64(len(events))
	in.metrics.batches.Inc()
	in.metrics.events.Add(int64(len(events)))
	in.syncOccupancy()
	return nil
}

// Seal declares timestamp t complete: no more events will arrive for it, and
// the publicly known active-user count is activeUsers. The drain processes a
// timestamp once it and every earlier timestamp are sealed (the per-
// timestamp barrier). Sealing an already-sealed or already-processed
// timestamp is an error; seals may arrive in any order.
func (in *Ingestor) Seal(t int, activeUsers int) error {
	if activeUsers < 0 {
		return fmt.Errorf("service: Seal(%d): negative active count %d", t, activeUsers)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	switch {
	case in.failed != nil:
		return in.failed
	case in.closed:
		return ErrClosed
	case t < in.next, t == in.next && in.processing:
		return ErrTimestampClosed
	}
	if _, ok := in.sealed[t]; ok {
		return ErrAlreadySealed
	}
	in.sealed[t] = activeUsers
	if t == in.next {
		in.work.Signal()
	}
	return nil
}

// drain is the single consumer: it pops the next sealed timestamp, orders
// its events by user ID, and hands them to the engine outside the lock.
func (in *Ingestor) drain() {
	defer close(in.done)
	in.mu.Lock()
	for {
		active, ok := in.sealed[in.next]
		if !ok {
			if in.closed {
				break
			}
			in.idle.Broadcast()
			in.work.Wait()
			continue
		}
		t := in.next
		events := in.buf[t]
		delete(in.buf, t)
		delete(in.sealed, t)
		in.processing = true
		in.mu.Unlock()

		// Deterministic processing order: ascending user ID, exactly the
		// order a sequential replay feeds. One event per user per timestamp
		// (duplicates are rejected by the engine), so the sort is total.
		sort.Slice(events, func(a, b int) bool { return events[a].User < events[b].User })
		err := in.eng.ProcessTimestamp(events, active)

		in.mu.Lock()
		in.processing = false
		in.next = t + 1
		in.pendingEvents -= len(events)
		in.stats.TimestampsProcessed++
		in.metrics.processed.Inc()
		if err != nil && in.failed == nil {
			in.failed = fmt.Errorf("service: engine failed at timestamp %d: %w", t, err)
			// A failed engine must never be fed another timestamp: the
			// error is sticky, so later sealed timestamps would only pile
			// results onto broken state. Discard everything buffered
			// (counted as dropped), free the buffer accounting, and wake
			// every blocked producer so it observes the sticky error
			// instead of waiting for space that will never drain.
			for ts, evs := range in.buf {
				in.stats.EventsDropped += int64(len(evs))
				in.metrics.dropped.Add(int64(len(evs)))
				delete(in.buf, ts)
			}
			for ts := range in.sealed {
				delete(in.sealed, ts)
			}
			in.pendingEvents = 0
		}
		in.syncOccupancy()
		in.space.Broadcast()
		in.idle.Broadcast()
	}
	// Closed with work drained: discard whatever was never sealed.
	for t, events := range in.buf {
		in.stats.EventsDropped += int64(len(events))
		in.metrics.dropped.Add(int64(len(events)))
		delete(in.buf, t)
	}
	in.pendingEvents = 0
	in.syncOccupancy()
	in.idle.Broadcast()
	in.mu.Unlock()
}

// Quiesce waits until the contiguous sealed prefix of the stream has been
// processed and no engine call is in flight, then runs fn while ingestion is
// paused — the hook for checkpointing the underlying engine (e.g.
// Framework.Snapshot). Concurrent Submit/Seal calls block for fn's duration.
//
// Timestamps sealed beyond a gap (an earlier timestamp still unsealed)
// cannot be drained by the barrier and are therefore NOT in the engine state
// fn observes; a checkpoint taken here covers exactly the timestamps before
// NextTimestamp, and callers that need sealed-means-durable must re-submit
// anything at or after that point when resuming.
func (in *Ingestor) Quiesce(fn func() error) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.failed != nil {
			return in.failed
		}
		_, ready := in.sealed[in.next]
		if !in.processing && !ready {
			break
		}
		in.idle.Wait()
	}
	return fn()
}

// Relayouter is an Engine that can migrate onto a new spatial
// discretization between timestamps — retrasyn.Framework implements it.
type Relayouter interface {
	Relayout(sp spatial.Discretizer) error
}

// Relayout quiesces the ingest stream — the contiguous sealed prefix is
// drained and no engine call is in flight — and migrates the underlying
// engine onto the new discretization, holding concurrent Submit/Seal calls
// for the duration. Events already buffered for future timestamps were
// discretized under the *current* layout; feeding them to a migrated engine
// would silently misattribute their cells, so Relayout refuses while any
// are pending — pause the producers (or wait for a submission lull) and
// retry. Also errors when the engine does not support relayout.
func (in *Ingestor) Relayout(sp spatial.Discretizer) error {
	return in.Quiesce(func() error {
		// Quiesce runs fn under in.mu, so reading the buffer here is safe.
		if in.pendingEvents > 0 {
			return fmt.Errorf("service: relayout with %d buffered events for future timestamps — their cells were discretized under the current layout; pause producers and retry", in.pendingEvents)
		}
		r, ok := in.eng.(Relayouter)
		if !ok {
			return fmt.Errorf("service: engine %T does not support relayout", in.eng)
		}
		return r.Relayout(sp)
	})
}

// Err returns the sticky engine error, if any.
func (in *Ingestor) Err() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.failed
}

// Pending returns the buffered (unprocessed) event count.
func (in *Ingestor) Pending() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.pendingEvents
}

// NextTimestamp returns the next timestamp the engine expects.
func (in *Ingestor) NextTimestamp() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.next
}

// Stats returns a snapshot of the activity counters.
func (in *Ingestor) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Close shuts the ingestor down gracefully: it stops accepting submissions,
// processes every timestamp already sealed (in order, up to the first gap),
// discards events whose timestamp was never sealed, and waits for the drain
// to exit. Close is idempotent; it returns the sticky engine error, if any.
func (in *Ingestor) Close() error {
	in.mu.Lock()
	if !in.closed {
		in.closed = true
		in.work.Broadcast()
		in.space.Broadcast()
	}
	in.mu.Unlock()
	<-in.done
	return in.Err()
}
