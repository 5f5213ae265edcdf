// Command curator serves the RetraSyn collection protocol over HTTP: device
// clients announce presence and ship locally perturbed OUE reports —
// individually or in gateway-aggregated batches — a coordinator ticks
// timestamps, and anyone can fetch the evolving private synthetic release.
// Estimation, model update and synthesis run on the same internal/pipeline
// stages as the in-process engine.
//
// The curator is durable: -checkpoint names a state file that is loaded on
// boot (when present) and written on graceful shutdown (SIGINT/SIGTERM), so
// a restarted curator resumes the stream with releases bit-identical to an
// uninterrupted run. The same state is served live on /v1/snapshot and
// accepted on /v1/restore for migration without a restart.
//
// Endpoints (see internal/remote). Presence, assignments and report bodies
// are binary frames (Content-Type application/x-retrasyn); any other type
// gets 415. The control plane speaks JSON.
//
//	POST /v1/presence    presence frame: t + users
//	POST /v1/plan        {t}
//	POST /v1/assignments assignments frame: t + users — the assignment poll
//	POST /v1/report      report frame: a sparse or bit-packed batch
//	POST /v1/finalize    {t, active}
//	GET  /v1/synthetic
//	GET  /v1/stats      — rounds, reports, stage wall time, layout status
//	GET  /v1/snapshot   — full curator state (checkpoint)
//	POST /v1/restore    — load a checkpoint
//	POST /v1/relayout   {force} — rebuild the layout from the released stream
//	                    and migrate live state onto it (see -rediscretize-every)
//	GET  /metrics       — Prometheus text exposition of the curator's
//	                    observability series (see the README's catalog)
//
// Observability: -trace-rounds FILE writes one JSONL event per finalized
// round (stage latencies, report counts, budget stats, relayout decisions);
// -pprof additionally mounts net/http/pprof under /debug/pprof/.
//
// Usage:
//
//	curator -addr :8080 -k 6 -boundsMax 30 -eps 1.0 -w 20 -lambda 13.6 \
//	        -checkpoint /var/lib/retrasyn/curator.ckpt
//	curator -spatial quadtree -density historical.csv -max-leaves 64 \
//	        -boundsMax 30 -eps 1.0 -w 20 -lambda 13.6
//	curator -spatial geofence -fence districts.geojson -eps 1.0 -w 20 -lambda 13.6
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"retrasyn/internal/core"
	"retrasyn/internal/remote"
)

func main() {
	cur, s, err := boot(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatalf("curator: %v", err)
	}
	if s.checkpoint != "" {
		if err := loadCheckpoint(cur, s.checkpoint); err != nil {
			log.Fatal(err)
		}
	}

	// Round-processing and relayout failures surface on stderr with
	// timestamp context (they also count on curator.round_errors /
	// curator.relayout_errors in the registry).
	cur.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if s.traceRounds != "" {
		tf, err := os.OpenFile(s.traceRounds, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("curator: open -trace-rounds: %v", err)
		}
		defer tf.Close()
		cur.SetTracer(slog.New(slog.NewJSONHandler(tf, nil)))
		fmt.Printf("curator: tracing rounds to %s\n", s.traceRounds)
	}

	handler := remote.NewHandler(cur)
	if s.pprof {
		// Wrap the protocol mux so /debug/pprof/ resolves without exposing
		// the default serve mux.
		top := http.NewServeMux()
		top.HandleFunc("/debug/pprof/", pprof.Index)
		top.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		top.HandleFunc("/debug/pprof/profile", pprof.Profile)
		top.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		top.HandleFunc("/debug/pprof/trace", pprof.Trace)
		top.Handle("/", handler)
		handler = top
	}

	srv := &http.Server{
		Addr:              s.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("curator: serving w-event ε-LDP collection on %s (ε=%.2f w=%d, %s division, %d cells / %d states via %s)\n",
		s.addr, s.cfg.Epsilon, s.cfg.W, s.cfg.Division, s.cfg.Space.NumCells(), cur.Domain().Size(), s.spatial)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight handlers, then
	// checkpoint the quiesced state.
	fmt.Println("curator: shutting down...")
	drainCtx, cancel := context.WithTimeout(context.Background(), s.drainGrace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("curator: drain: %v", err)
	}
	if s.checkpoint != "" {
		if err := writeCheckpoint(cur, s.checkpoint); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("curator: state checkpointed to %s\n", s.checkpoint)
	}
}

// settings is the curator's parsed command line.
type settings struct {
	cfg                                    remote.CuratorConfig
	addr, spatial, checkpoint, traceRounds string
	drainGrace                             time.Duration
	pprof                                  bool
}

// boot parses args, rejecting unusable flags with errors that name them, and
// constructs the curator they configure.
func boot(args []string) (*remote.Curator, *settings, error) {
	fs := flag.NewFlagSet("curator", flag.ContinueOnError)
	shared := core.RegisterFlags(fs)
	s := &settings{}
	fs.StringVar(&s.addr, "addr", ":8080", "listen address")
	fs.Float64Var(&shared.Lambda, "lambda", 13.6, "synthesis termination factor λ")
	fs.IntVar(&shared.MonitorWindow, "monitor-window", 0, "utility monitor release-sketch length in timestamps (0 = default: w)")
	fs.StringVar(&s.checkpoint, "checkpoint", "", "state file loaded on boot and written on graceful shutdown")
	fs.DurationVar(&s.drainGrace, "drainGrace", 10*time.Second, "graceful-shutdown grace for in-flight requests")
	fs.StringVar(&s.traceRounds, "trace-rounds", "", "write one JSONL trace event per finalized round to this file")
	fs.BoolVar(&s.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if err := shared.Validate(); err != nil {
		return nil, nil, err
	}
	if s.drainGrace <= 0 {
		return nil, nil, fmt.Errorf("-drainGrace must be positive, got %v", s.drainGrace)
	}
	space, err := shared.Space(shared.Bounds(), nil)
	if err != nil {
		return nil, nil, err
	}
	s.cfg, s.spatial = shared.Config, shared.Spatial
	s.cfg.Space = space
	cur, err := remote.NewCurator(s.cfg)
	if err != nil {
		return nil, nil, core.FlagError(err)
	}
	return cur, s, nil
}

// loadCheckpoint restores the curator from a state file; a missing file is a
// fresh start, not an error.
func loadCheckpoint(cur *remote.Curator, path string) error {
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("curator: read checkpoint: %w", err)
	}
	var st remote.CuratorState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("curator: decode checkpoint %s: %w", path, err)
	}
	if err := cur.Restore(&st); err != nil {
		return fmt.Errorf("curator: restore checkpoint %s: %w", path, err)
	}
	fmt.Printf("curator: resumed from %s\n", path)
	return nil
}

// writeCheckpoint snapshots the curator into the state file atomically and
// durably: the snapshot is written to a temporary file, synced, closed and
// renamed over the old file, and the parent directory is synced so the
// rename itself survives a power loss. A crash mid-write never corrupts the
// previous checkpoint.
func writeCheckpoint(cur *remote.Curator, path string) error {
	st, err := cur.Snapshot()
	if err != nil {
		return fmt.Errorf("curator: snapshot: %w", err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("curator: encode checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("curator: write checkpoint: %w", err)
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return fmt.Errorf("curator: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("curator: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("curator: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("curator: commit checkpoint: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("curator: open checkpoint directory: %w", err)
	}
	if err := dir.Sync(); err != nil {
		dir.Close()
		return fmt.Errorf("curator: sync checkpoint directory: %w", err)
	}
	if err := dir.Close(); err != nil {
		return fmt.Errorf("curator: close checkpoint directory: %w", err)
	}
	return nil
}
