package main

import (
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
