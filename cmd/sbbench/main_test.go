package main

import (
	"bytes"
	"os"
	"testing"

	"softbound/internal/vm"
)

// TestParseEngine: -engine accepts the two engines (empty selects the
// fast default) and rejects anything else, including the retired
// "compiled" tier, instead of silently running the default.
func TestParseEngine(t *testing.T) {
	for in, want := range map[string]vm.InterpKind{
		"":     vm.InterpFast,
		"fast": vm.InterpFast,
		"ref":  vm.InterpRef,
	} {
		got, err := parseEngine(in)
		if err != nil || got != want {
			t.Errorf("parseEngine(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"compiled", "Fast", "reference"} {
		if got, err := parseEngine(in); err == nil {
			t.Errorf("parseEngine(%q) = %v, want an error", in, got)
		}
	}
}

// TestExperimentsGolden: -experiment=all at scale 1 prints, byte for
// byte, the committed output of the per-experiment run loops the report
// views replaced (testdata/experiments_scale1.txt).
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/experiments_scale1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runExperiments(&got, "all", 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-experiment=all -scale 1 output differs from testdata/experiments_scale1.txt:\n%s", got.String())
	}
}

// TestUnknownExperiment: a misspelt or retired -experiment name (the old
// "bench" alias included) is an error, not silently empty output.
func TestUnknownExperiment(t *testing.T) {
	for _, name := range []string{"bench", "figure3", ""} {
		var out bytes.Buffer
		if err := runExperiments(&out, name, 1); err == nil || out.Len() != 0 {
			t.Errorf("-experiment=%q: err %v, output %q; want an error and no output", name, err, out.String())
		}
	}
}
