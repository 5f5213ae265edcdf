package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunRejectionsNameTheFlag(t *testing.T) {
	for flag, args := range map[string][]string{
		"-eps":   {"-eps", "0"},
		"-w":     {"-w", "0"},
		"-k":     {"-k", "0"},
		"-scale": {"-scale", "-1"},
		"-exp":   {"-exp", "table2"},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s: error %v does not name the flag", flag, err)
		}
	}
}

func TestRunTable1ToyScale(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "table1", "-scale", "0.02", "-k", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# RetraSyn evaluation", "table1", "TDriveSim", "OldenburgSim", "SanJoaquinSim"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
