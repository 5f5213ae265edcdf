package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"retrasyn/internal/trajectory"
)

func TestWriteRawRoundTrip(t *testing.T) {
	want := &trajectory.RawDataset{Name: "raw", T: 3, Trajs: []trajectory.RawTrajectory{
		{Start: 0, Points: []trajectory.RawPoint{{X: 0.5, Y: 1.25}, {X: 2, Y: 3.75}}},
		{Start: 1, Points: []trajectory.RawPoint{{X: 7.125, Y: 0}}},
	}}
	path := filepath.Join(t.TempDir(), "raw.csv")
	if err := writeRaw(path, want); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trajectory.ReadRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestWriteRawUnwritablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "raw.csv")
	err := writeRaw(path, &trajectory.RawDataset{Name: "raw", T: 1})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("unwritable path: error %v does not name %s", err, path)
	}
}
