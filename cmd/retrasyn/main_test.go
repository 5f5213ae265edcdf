package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

// TestValidateFlags: the command's own flags are rejected naming the flag,
// the shared ones (see core.TestValidateFlags) are wired in, and a toy run
// with valid flags succeeds.
func TestValidateFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scale", "0.02", "-w", "5", "-strategy", "sample", "-monitor-window", "5"}, &out); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if !strings.Contains(out.String(), "monitor: status") || !strings.Contains(out.String(), "utility") {
		t.Fatalf("toy run printed no monitor line or utility report:\n%s", out.String())
	}
	for flag, args := range map[string][]string{
		"-shards":         {"-shards", "0"},
		"-scale":          {"-scale", "-1"},
		"-monitor-window": {"-monitor-window", "-1"},
		"-eps":            {"-eps", "0"},
		"-strategy":       {"-strategy", "zigzag"},
		"-trigger":        {"-trigger", "bogus"},
		"-spatial":        {"-spatial", "hexagonal"},
		// The baselines' grid is built whatever -spatial says.
		"-k":      {"-k", "0", "-spatial", "quadtree", "-scale", "0.02"},
		"-method": {"-method", "lbx", "-scale", "0.02"},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), flag) {
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
