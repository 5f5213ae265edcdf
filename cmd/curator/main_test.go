package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"retrasyn/internal/allocation"
	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/remote"
)

func newTestCurator(t *testing.T) *remote.Curator {
	t.Helper()
	cur, err := remote.NewCurator(remote.CuratorConfig{
		Space:   grid.MustNew(4, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}),
		Epsilon: 1, W: 5, Division: allocation.Population, Lambda: 6, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// driveRounds runs timestamps [from, to) through the curator's Go API with
// 40 always-present users. Each round's perturbation is seeded by its
// timestamp, so a run split by a checkpoint ships the same reports as an
// uninterrupted one.
func driveRounds(t *testing.T, cur *remote.Curator, from, to int) {
	t.Helper()
	users := make([]int, 40)
	for i := range users {
		users[i] = i
	}
	d := cur.DomainSize()
	for ts := from; ts < to; ts++ {
		if err := cur.PresenceBatch(users, ts); err != nil {
			t.Fatalf("t=%d presence: %v", ts, err)
		}
		if err := cur.Plan(ts); err != nil {
			t.Fatalf("t=%d plan: %v", ts, err)
		}
		as, err := cur.AssignmentsFor(users, ts)
		if err != nil {
			t.Fatalf("t=%d assignments: %v", ts, err)
		}
		rng := ldp.NewRand(uint64(ts), 1)
		var batch []remote.BatchReport
		for i, a := range as {
			if a.Report {
				batch = append(batch, remote.BatchReport{User: users[i], Ones: ldp.MustOUE(d, a.Epsilon).Perturb(rng, (users[i]*7+ts)%d)})
			}
		}
		if err := cur.ReportBatch(ts, batch); err != nil {
			t.Fatalf("t=%d report: %v", ts, err)
		}
		if err := cur.Finalize(ts, len(users)); err != nil {
			t.Fatalf("t=%d finalize: %v", ts, err)
		}
	}
}

// TestCheckpointResumesBitIdentical: a curator checkpointed mid-stream and
// reloaded into a fresh process continues with the same releases as one
// that never stopped, and the write leaves no temporary file behind.
func TestCheckpointResumesBitIdentical(t *testing.T) {
	const split, T = 6, 14
	whole := newTestCurator(t)
	driveRounds(t, whole, 0, T)

	path := filepath.Join(t.TempDir(), "curator.ckpt")
	first := newTestCurator(t)
	driveRounds(t, first, 0, split)
	if err := writeCheckpoint(first, path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left after a successful write (stat: %v)", err)
	}
	resumed := newTestCurator(t)
	if err := loadCheckpoint(resumed, path); err != nil {
		t.Fatal(err)
	}
	driveRounds(t, resumed, split, T)
	if rounds, _ := whole.Stats(); rounds == 0 {
		t.Fatal("no round collected reports")
	}
	if !reflect.DeepEqual(whole.Synthetic("x"), resumed.Synthetic("x")) {
		t.Fatal("resumed curator released a different synthetic database")
	}
}

func TestLoadCheckpointMissingIsFreshStart(t *testing.T) {
	if err := loadCheckpoint(newTestCurator(t), filepath.Join(t.TempDir(), "absent.ckpt")); err != nil {
		t.Fatalf("missing checkpoint: %v, want a fresh start", err)
	}
}

func TestLoadCheckpointCorruptNamesPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.ckpt")
	if err := os.WriteFile(path, []byte(`{"version":2,"engine":`), 0o600); err != nil {
		t.Fatal(err)
	}
	err := loadCheckpoint(newTestCurator(t), path)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt checkpoint: error %v does not name %s", err, path)
	}
}

func TestValidateFlags(t *testing.T) {
	type flags struct {
		k                  int
		eps                float64
		w                  int
		lambda, bmin, bmax float64
		spatial            string
		maxLeaves          int
		density, fence     string
		drain              time.Duration
	}
	ok := flags{k: 6, eps: 1, w: 20, lambda: 13.6, bmax: 30, spatial: "uniform", maxLeaves: 64, drain: time.Second}
	validate := func(f flags) error {
		return validateFlags(f.k, f.eps, f.w, f.lambda, f.bmin, f.bmax, f.spatial, f.maxLeaves, f.density, f.fence, f.drain)
	}
	if err := validate(ok); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	for flag, mutate := range map[string]func(*flags){
		"-eps":        func(f *flags) { f.eps = 0 },
		"-w":          func(f *flags) { f.w = 0 },
		"-lambda":     func(f *flags) { f.lambda = -1 },
		"-boundsMax":  func(f *flags) { f.bmax = f.bmin },
		"-drainGrace": func(f *flags) { f.drain = 0 },
		"-k":          func(f *flags) { f.k = 0 },
		"-max-leaves": func(f *flags) { f.spatial, f.density, f.maxLeaves = "quadtree", "d.csv", 0 },
		"-density":    func(f *flags) { f.spatial = "quadtree" },
		"-fence":      func(f *flags) { f.spatial = "geofence" },
		"-spatial":    func(f *flags) { f.spatial = "hexagonal" },
	} {
		f := ok
		mutate(&f)
		if err := validate(f); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s: error %v does not name the flag", flag, err)
		}
	}
}
