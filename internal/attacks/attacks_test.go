package attacks

import (
	"fmt"
	"strings"
	"testing"

	"softbound/internal/driver"
	"softbound/internal/meta"
	"softbound/internal/vm"
)

// run executes one attack under the given mode.
func run(t *testing.T, a Attack, mode driver.Mode) *driver.Result {
	t.Helper()
	res, err := driver.RunSource(a.Source, driver.DefaultConfig(mode))
	if err != nil {
		t.Fatalf("%s: compile: %v", a.Name, err)
	}
	return res
}

// succeeded reports whether the attack took control in this run.
func succeeded(res *driver.Result) bool {
	return res.ExitCode == 66 || strings.Contains(res.Output, "ATTACK SUCCESSFUL")
}

func TestSuiteHas18Attacks(t *testing.T) {
	suite := Suite()
	if len(suite) != 18 {
		t.Fatalf("suite has %d attacks, want 18 (Table 3)", len(suite))
	}
	seen := make(map[string]bool)
	for _, a := range suite {
		if a.Name == "" || a.Source == "" || a.Target == "" {
			t.Errorf("incomplete attack entry %+v", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate attack name %s", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestAttacksSucceedUnprotected verifies each attack genuinely redirects
// control flow when checking is off — the testbed is real, not a mock.
func TestAttacksSucceedUnprotected(t *testing.T) {
	for _, a := range Suite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			res := run(t, a, driver.ModeNone)
			if !succeeded(res) {
				t.Fatalf("attack did not succeed unprotected: exit=%d err=%v hijacks=%v output=%q",
					res.ExitCode, res.Err, res.Hijacks, res.Output)
			}
		})
	}
}

// TestFullCheckingDetectsAll is Table 3, "Full" column: 18/18 detected.
func TestFullCheckingDetectsAll(t *testing.T) {
	for _, a := range Suite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			res := run(t, a, driver.ModeFull)
			if res.Violation == nil {
				t.Fatalf("full checking missed the attack: exit=%d err=%v output=%q",
					res.ExitCode, res.Err, res.Output)
			}
			if succeeded(res) {
				t.Fatal("attack succeeded despite full checking")
			}
		})
	}
}

// TestStoreOnlyCheckingDetectsAll is Table 3, "Store" column: every
// attack requires an out-of-bounds write, so store-only checking detects
// all of them too (the paper's key observation about store-only mode).
func TestStoreOnlyCheckingDetectsAll(t *testing.T) {
	for _, a := range Suite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			res := run(t, a, driver.ModeStoreOnly)
			if res.Violation == nil {
				t.Fatalf("store-only checking missed the attack: exit=%d err=%v output=%q",
					res.ExitCode, res.Err, res.Output)
			}
			if succeeded(res) {
				t.Fatal("attack succeeded despite store-only checking")
			}
		})
	}
}

// TestMetadataLaunderingSucceedsUnprotected verifies the laundering
// attack genuinely corrupts the record when checking is off: the
// in-bounds-per-caller writes really do smash the privileged field.
func TestMetadataLaunderingSucceedsUnprotected(t *testing.T) {
	res := run(t, MetadataLaundering(), driver.ModeNone)
	if !succeeded(res) {
		t.Fatalf("attack did not succeed unprotected: exit=%d err=%v output=%q",
			res.ExitCode, res.Err, res.Output)
	}
}

// TestMetadataLaunderingDetected is the ISSUE 6 regression: the
// signature-mismatched indirect call must route the shrunk field bounds
// to the dynamic callee's pointer parameter, so the 24-byte write
// through the 8-byte field traps — under every checking mode, both
// metadata schemes, and both interpreter engines. The old inline
// push-order ABI missed this under ALL of these configurations.
func TestMetadataLaunderingDetected(t *testing.T) {
	a := MetadataLaundering()
	for _, mode := range []driver.Mode{driver.ModeStoreOnly, driver.ModeFull} {
		for _, kind := range []meta.Kind{meta.KindShadowSpace, meta.KindHashTable} {
			for _, engine := range []vm.InterpKind{vm.InterpFast, vm.InterpRef} {
				name := fmt.Sprintf("%v/%v/%s", mode, kind, engine)
				t.Run(name, func(t *testing.T) {
					cfg := driver.DefaultConfig(mode)
					cfg.Meta = kind
					cfg.Interp = engine
					res, err := driver.RunSource(a.Source, cfg)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					if succeeded(res) {
						t.Fatal("attack succeeded despite checking: call-site metadata was misrouted")
					}
					if res.Violation == nil {
						t.Fatalf("attack not detected as a spatial violation: exit=%d err=%v output=%q",
							res.ExitCode, res.Err, res.Output)
					}
					if code := vm.CodeOf(res.Err); code != vm.TrapSpatial {
						t.Fatalf("trap code = %q, want %q", code, vm.TrapSpatial)
					}
				})
			}
		}
	}
}
