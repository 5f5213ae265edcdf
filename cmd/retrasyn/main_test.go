package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

func TestValidateFlags(t *testing.T) {
	type flags struct {
		k          int
		eps        float64
		w, shards  int
		scale      float64
		bmin, bmax float64
		spatial    string
		maxLeaves  int
		fence      string
	}
	ok := flags{k: 6, eps: 1, w: 20, shards: 1, scale: 0.5, bmax: 30, spatial: "uniform", maxLeaves: 64}
	validate := func(f flags) error {
		return validateFlags(f.k, f.eps, f.w, f.shards, f.scale, f.bmin, f.bmax, f.spatial, f.maxLeaves, f.fence)
	}
	if err := validate(ok); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	for flag, mutate := range map[string]func(*flags){
		"-k":          func(f *flags) { f.k = 0 },
		"-eps":        func(f *flags) { f.eps = 0 },
		"-w":          func(f *flags) { f.w = 0 },
		"-shards":     func(f *flags) { f.shards = 0 },
		"-scale":      func(f *flags) { f.scale = -1 },
		"-boundsMax":  func(f *flags) { f.bmax = f.bmin },
		"-max-leaves": func(f *flags) { f.spatial, f.maxLeaves = "quadtree", 0 },
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

func TestWriteCellsRoundTrip(t *testing.T) {
	want := &trajectory.Dataset{Name: "syn", T: 4, Trajs: []trajectory.CellTrajectory{
		{Start: 0, Cells: []spatial.Cell{0, 1, 2}},
		{Start: 2, Cells: []spatial.Cell{5, 4}},
	}}
	path := filepath.Join(t.TempDir(), "syn.csv")
	if err := writeCells(path, want); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trajectory.ReadCells(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestWriteCellsUnwritablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "syn.csv")
	err := writeCells(path, &trajectory.Dataset{Name: "syn", T: 1})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("unwritable path: error %v does not name %s", err, path)
	}
}
