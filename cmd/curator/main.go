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

	"retrasyn"
	"retrasyn/internal/allocation"
	"retrasyn/internal/geofence"
	"retrasyn/internal/grid"
	"retrasyn/internal/relayout"
	"retrasyn/internal/remote"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		k           = flag.Int("k", 6, "grid granularity K (-spatial uniform)")
		boundMin    = flag.Float64("boundsMin", 0, "spatial lower bound (both axes)")
		boundMax    = flag.Float64("boundsMax", 30, "spatial upper bound (both axes)")
		eps         = flag.Float64("eps", 1.0, "privacy budget ε")
		w           = flag.Int("w", 20, "window size w")
		lambda      = flag.Float64("lambda", 13.6, "synthesis termination factor λ")
		division    = flag.String("division", "population", `"budget" or "population"`)
		spatialKind = flag.String("spatial", "uniform", `spatial discretization: "uniform" (K×K grid), "quadtree" (density-adaptive; requires -density) or "geofence" (polygonal; requires -fence)`)
		maxLeaves   = flag.Int("max-leaves", 64, "quadtree leaf budget (-spatial quadtree)")
		density     = flag.String("density", "", "public/historical raw-trajectory CSV that seeds the quadtree density sketch (-spatial quadtree)")
		fence       = flag.String("fence", "", "GeoJSON fence file whose polygons become the cells (-spatial geofence)")
		seed        = flag.Uint64("seed", 2024, "curator randomness seed")
		checkpoint  = flag.String("checkpoint", "", "state file loaded on boot and written on graceful shutdown")
		drainGrace  = flag.Duration("drainGrace", 10*time.Second, "graceful-shutdown grace for in-flight requests")
		rediscEvery = flag.Int("rediscretize-every", 0, "rebuild the spatial layout from the released stream every N windows at finalize and migrate when it drifted (0 = frozen layout; POST /v1/relayout still works)")
		relayoutThr = flag.Float64("relayout-threshold", 0, "minimum layout distance in [0,1) for a rebuilt layout to replace the current one (0 = default 0.1)")
		monitorWin  = flag.Int("monitor-window", 0, "utility monitor release-sketch length in timestamps (0 = default: w)")
		trigger     = flag.String("trigger", "", `relayout trigger policy: "geometric" (default), "degradation-or" or "degradation-and" (combine the distance threshold with utility-monitor alarms)`)
		traceRounds = flag.String("trace-rounds", "", "write one JSONL trace event per finalized round to this file")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	if err := validateFlags(*k, *eps, *w, *lambda, *boundMin, *boundMax, *spatialKind, *maxLeaves, *density, *fence, *drainGrace); err != nil {
		log.Fatalf("curator: %v", err)
	}
	space, err := buildSpace(*spatialKind, *k, *boundMin, *boundMax, *maxLeaves, *density, *fence)
	if err != nil {
		log.Fatalf("curator: %v", err)
	}
	div := allocation.Population
	switch *division {
	case "population":
	case "budget":
		div = allocation.Budget
	default:
		log.Fatalf("curator: unknown -division %q (want \"budget\" or \"population\")", *division)
	}
	if *rediscEvery < 0 {
		log.Fatalf("curator: -rediscretize-every must be ≥ 0, got %d", *rediscEvery)
	}
	if *relayoutThr < 0 || *relayoutThr >= 1 {
		log.Fatalf("curator: -relayout-threshold must be in [0,1), got %v", *relayoutThr)
	}
	if *monitorWin < 0 {
		log.Fatalf("curator: -monitor-window must be ≥ 0, got %d", *monitorWin)
	}
	policy := relayout.TriggerPolicy(*trigger)
	if err := policy.Validate(); err != nil {
		log.Fatalf("curator: -trigger: %v", err)
	}
	cur, err := remote.NewCurator(remote.CuratorConfig{
		Space: space, Epsilon: *eps, W: *w, Division: div, Lambda: *lambda, Seed: *seed,
		RediscretizeEvery: *rediscEvery, RelayoutThreshold: *relayoutThr,
		MonitorWindow: *monitorWin, TriggerPolicy: policy,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *checkpoint != "" {
		if err := loadCheckpoint(cur, *checkpoint); err != nil {
			log.Fatal(err)
		}
	}

	// Round-processing and relayout failures surface on stderr with
	// timestamp context (they also count on curator.round_errors /
	// curator.relayout_errors in the registry).
	cur.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if *traceRounds != "" {
		tf, err := os.OpenFile(*traceRounds, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("curator: open -trace-rounds: %v", err)
		}
		defer tf.Close()
		cur.SetTracer(slog.New(slog.NewJSONHandler(tf, nil)))
		fmt.Printf("curator: tracing rounds to %s\n", *traceRounds)
	}

	handler := remote.NewHandler(cur)
	if *pprofOn {
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
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("curator: serving w-event ε-LDP collection on %s (ε=%.2f w=%d, %s division, %d cells / %d states via %s)\n",
		*addr, *eps, *w, div, space.NumCells(), cur.Domain().Size(), *spatialKind)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight handlers, then
	// checkpoint the quiesced state.
	fmt.Println("curator: shutting down...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("curator: drain: %v", err)
	}
	if *checkpoint != "" {
		if err := writeCheckpoint(cur, *checkpoint); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("curator: state checkpointed to %s\n", *checkpoint)
	}
}

// validateFlags rejects unusable configurations up front with errors that
// name the flag and the accepted range, instead of panicking mid-boot or
// silently falling back to defaults.
func validateFlags(k int, eps float64, w int, lambda, boundMin, boundMax float64, spatialKind string, maxLeaves int, density, fence string, drainGrace time.Duration) error {
	if !(eps > 0) {
		return fmt.Errorf("-eps must be > 0, got %v", eps)
	}
	if w < 1 {
		return fmt.Errorf("-w must be ≥ 1, got %d", w)
	}
	if !(lambda > 0) {
		return fmt.Errorf("-lambda must be > 0, got %v", lambda)
	}
	if boundMax <= boundMin {
		return fmt.Errorf("-boundsMax (%v) must exceed -boundsMin (%v)", boundMax, boundMin)
	}
	if drainGrace <= 0 {
		return fmt.Errorf("-drainGrace must be positive, got %v", drainGrace)
	}
	switch spatialKind {
	case "uniform":
		if k < 1 {
			return fmt.Errorf("-k must be ≥ 1, got %d", k)
		}
	case "quadtree":
		if maxLeaves < 1 {
			return fmt.Errorf("-max-leaves must be ≥ 1, got %d", maxLeaves)
		}
		if density == "" {
			return fmt.Errorf("-spatial quadtree needs -density, a public/historical raw-trajectory CSV that seeds the density sketch")
		}
	case "geofence":
		if fence == "" {
			return fmt.Errorf("-spatial geofence needs -fence, a GeoJSON file whose polygons become the cells")
		}
	default:
		return fmt.Errorf("unknown -spatial %q (want \"uniform\", \"quadtree\" or \"geofence\")", spatialKind)
	}
	return nil
}

// buildSpace constructs the configured spatial discretization.
func buildSpace(kind string, k int, boundMin, boundMax float64, maxLeaves int, density, fence string) (spatial.Discretizer, error) {
	b := spatial.Bounds{MinX: boundMin, MinY: boundMin, MaxX: boundMax, MaxY: boundMax}
	if kind == "uniform" {
		return grid.New(k, b)
	}
	if kind == "geofence" {
		f, err := os.Open(fence)
		if err != nil {
			return nil, fmt.Errorf("open -fence: %w", err)
		}
		defer f.Close()
		polys, err := geofence.ParseFence(f)
		if err != nil {
			return nil, fmt.Errorf("-fence %s: %w", fence, err)
		}
		gf, err := geofence.NewFence(polys)
		if err != nil {
			return nil, fmt.Errorf("-fence %s: %w", fence, err)
		}
		return gf, nil
	}
	f, err := os.Open(density)
	if err != nil {
		return nil, fmt.Errorf("open -density: %w", err)
	}
	defer f.Close()
	raw, err := trajectory.ReadRaw(f)
	if err != nil {
		return nil, fmt.Errorf("parse -density %s: %w", density, err)
	}
	pts := retrasyn.DensitySketch(raw)
	if len(pts) == 0 {
		return nil, fmt.Errorf("-density %s holds no points; the quadtree needs a non-empty sketch", density)
	}
	return spatial.NewQuadtree(b, pts, spatial.QuadtreeOptions{MaxLeaves: maxLeaves})
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
