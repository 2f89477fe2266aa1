package attacks

import (
	"fmt"
	"testing"

	"softbound/internal/driver"
	"softbound/internal/meta"
	"softbound/internal/vm"
)

// spatialKinds are the schemes that track bounds only; cetsKinds add the
// CETS lock-and-key temporal identity.
var (
	spatialKinds = []meta.Kind{meta.KindShadowSpace, meta.KindHashTable}
	cetsKinds    = []meta.Kind{meta.KindShadowCETS, meta.KindHashTableCETS}
)

func TestDanglingSuiteComplete(t *testing.T) {
	suite := DanglingSuite()
	if len(suite) != 4 {
		t.Fatalf("dangling suite has %d attacks, want 4", len(suite))
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

// TestDanglingAttacksSucceedUnprotected verifies each dangling attack
// genuinely corrupts the recycled allocation when checking is off.
func TestDanglingAttacksSucceedUnprotected(t *testing.T) {
	for _, a := range DanglingSuite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			res := run(t, a, driver.ModeNone)
			if !succeeded(res) {
				t.Fatalf("attack did not succeed unprotected: exit=%d err=%v output=%q",
					res.ExitCode, res.Err, res.Output)
			}
		})
	}
}

// TestDanglingAttacksEvadeSpatialChecking pins the gap this suite
// exists for: every write is in bounds of its pointer's original
// object, so full spatial checking under both spatial-only schemes
// passes every check and the attack still corrupts the recycled
// memory. This is the use-after-free bug ISSUE 7 fixes — with CETS off,
// the attacks MUST keep succeeding, or the suite no longer demonstrates
// anything.
func TestDanglingAttacksEvadeSpatialChecking(t *testing.T) {
	for _, a := range DanglingSuite() {
		for _, mode := range []driver.Mode{driver.ModeStoreOnly, driver.ModeFull} {
			for _, kind := range spatialKinds {
				a, mode, kind := a, mode, kind
				t.Run(fmt.Sprintf("%s/%v/%v", a.Name, mode, kind), func(t *testing.T) {
					cfg := driver.DefaultConfig(mode)
					cfg.Meta = kind
					res, err := driver.RunSource(a.Source, cfg)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					if res.Violation != nil || res.TemporalHit != nil {
						t.Fatalf("spatial-only scheme flagged the temporal attack: %v", res.Err)
					}
					if !succeeded(res) {
						t.Fatalf("attack no longer corrupts under spatial-only checking: exit=%d err=%v output=%q",
							res.ExitCode, res.Err, res.Output)
					}
				})
			}
		}
	}
}

// TestDanglingAttacksDetectedUnderCETS is the tentpole acceptance: under
// both -cets schemes, every dangling attack is caught as a typed
// temporal violation, in both checking modes, on both engines.
func TestDanglingAttacksDetectedUnderCETS(t *testing.T) {
	for _, a := range DanglingSuite() {
		for _, mode := range []driver.Mode{driver.ModeStoreOnly, driver.ModeFull} {
			for _, kind := range cetsKinds {
				for _, engine := range []vm.InterpKind{vm.InterpFast, vm.InterpRef} {
					a, mode, kind, engine := a, mode, kind, engine
					t.Run(fmt.Sprintf("%s/%v/%v/%s", a.Name, mode, kind, engine), func(t *testing.T) {
						cfg := driver.DefaultConfig(mode)
						cfg.Meta = kind
						cfg.Interp = engine
						res, err := driver.RunSource(a.Source, cfg)
						if err != nil {
							t.Fatalf("compile: %v", err)
						}
						if succeeded(res) {
							t.Fatalf("attack succeeded despite CETS checking: output=%q", res.Output)
						}
						if res.TemporalHit == nil {
							t.Fatalf("attack not detected as a temporal violation: exit=%d err=%v output=%q",
								res.ExitCode, res.Err, res.Output)
						}
						if code := vm.CodeOf(res.Err); code != vm.TrapTemporal {
							t.Fatalf("trap code = %q, want %q", code, vm.TrapTemporal)
						}
					})
				}
			}
		}
	}
}
