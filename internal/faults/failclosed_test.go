// Fail-closed integration suite (external test package: it drives the
// whole pipeline through internal/driver, which itself imports faults).
//
// The contract under test is the tentpole of the failure model: with full
// checking on, a run under injected faults either behaves identically to
// the fault-free reference or stops with a typed trap — it never silently
// diverges. With checking off, the same faults visibly corrupt at least
// some runs, demonstrating the fault classes are real hazards rather than
// no-ops the checked configuration trivially survives.
package faults_test

import (
	"fmt"
	"testing"

	"softbound/internal/attacks"
	"softbound/internal/driver"
	"softbound/internal/faults"
	"softbound/internal/meta"
	"softbound/internal/progs"
	"softbound/internal/vm"
)

// failClosedPrograms is the benchmark subset the suite sweeps: pointer-
// dense Olden programs plus compress (dense array traffic), at a small
// scale so the full matrix stays fast.
var failClosedPrograms = []string{"treeadd", "health", "mst", "compress"}

const failClosedScale = 3

// plans covers every fault class, alone, each under two seeds, plus one
// combined plan. Periods are tight so small-scale runs still see faults.
func plans() []faults.Plan {
	var out []faults.Plan
	for _, seed := range []uint64{1, 99} {
		out = append(out,
			faults.Plan{Seed: seed, FlipEvery: 50},
			faults.Plan{Seed: seed, DropEvery: 40},
			faults.Plan{Seed: seed, CorruptEvery: 40},
			faults.Plan{Seed: seed, OOMAt: 2 + seed%5},
		)
	}
	out = append(out, faults.Plan{Seed: 7, FlipEvery: 80, DropEvery: 60, CorruptEvery: 70, OOMAt: 6})
	return out
}

// runProg executes one benchmark under the given mode/scheme/injector.
func runProg(t *testing.T, src string, mode driver.Mode, scheme meta.Kind, inj *faults.Injector) *driver.Result {
	t.Helper()
	cfg := driver.DefaultConfig(mode)
	cfg.Meta = scheme
	cfg.Faults = inj
	res, err := driver.RunSource(src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

// assertFailClosed checks the checked-build contract for one faulted run
// against its fault-free reference.
func assertFailClosed(t *testing.T, label string, ref, got *driver.Result, inj *faults.Injector) {
	t.Helper()
	if inj.Stats().Total() == 0 {
		// The schedule never fired (short run); the run must then be
		// identical to the reference.
		if got.Output != ref.Output || got.ExitCode != ref.ExitCode {
			t.Errorf("%s: no faults delivered yet run diverged (exit %d vs %d)",
				label, got.ExitCode, ref.ExitCode)
		}
		return
	}
	if got.Err != nil {
		// Detected: the error must carry a machine-readable trap code.
		if vm.CodeOf(got.Err) == "" {
			t.Errorf("%s: error without trap classification: %v", label, got.Err)
		}
		return
	}
	// Not detected: only acceptable if the run is indistinguishable from
	// the reference (the faults landed somewhere truly dead — e.g. a
	// dropped entry for a pointer never dereferenced again).
	if got.Output != ref.Output || got.ExitCode != ref.ExitCode {
		t.Errorf("%s: SILENT DIVERGENCE under %s: exit %d vs %d, faults %+v",
			label, inj.Plan(), got.ExitCode, ref.ExitCode, inj.Stats())
	}
}

// TestFailClosedPrograms sweeps programs × schemes × plans with full
// checking: every faulted run must detect-or-match, never silently
// diverge. It also requires a minimum number of detections across the
// sweep — the whole suite is deterministic (seeded injector, deterministic
// VM), and without this floor a regression that quietly disables checking
// would pass every per-run assertion by "matching" trivially.
func TestFailClosedPrograms(t *testing.T) {
	schemes := []string{"hashtable", "shadowspace"}
	var detections int
	for _, name := range failClosedPrograms {
		b, ok := progs.Get(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		src := b.Source(failClosedScale)
		for _, schemeName := range schemes {
			scheme, err := meta.ParseKind(schemeName)
			if err != nil {
				t.Fatal(err)
			}
			ref := runProg(t, src, driver.ModeFull, scheme, nil)
			if ref.Err != nil {
				t.Fatalf("%s/%s: fault-free reference failed: %v", name, schemeName, ref.Err)
			}
			for pi, plan := range plans() {
				label := fmt.Sprintf("%s/%s/plan%d(%s)", name, schemeName, pi, plan)
				inj := faults.NewInjector(plan)
				got := runProg(t, src, driver.ModeFull, scheme, inj)
				assertFailClosed(t, label, ref, got, inj)
				if got.Err != nil {
					detections++
				}
			}
		}
	}
	// Empirically ~40 of 72 cells detect; 20 leaves slack for benign
	// schedule shifts while still catching a neutered checker.
	if detections < 20 {
		t.Errorf("only %d detections across the sweep; checking looks ineffective", detections)
	}
}

// TestFailClosedAttacks repeats the sweep over a slice of the attack
// suite: programs that are already out to corrupt memory must stay
// detected (or identical) under injected faults too.
func TestFailClosedAttacks(t *testing.T) {
	scheme := meta.KindShadowSpace
	suite := attacks.Suite()
	if len(suite) > 4 {
		suite = suite[:4]
	}
	for _, a := range suite {
		ref := runProg(t, a.Source, driver.ModeFull, scheme, nil)
		for pi, plan := range plans() {
			label := fmt.Sprintf("attack/%s/plan%d", a.Name, pi)
			inj := faults.NewInjector(plan)
			got := runProg(t, a.Source, driver.ModeFull, scheme, inj)
			// For attacks the reference itself usually traps; the faulted
			// run must also end in a classified state or match exactly.
			if got.Err != nil {
				if vm.CodeOf(got.Err) == "" {
					t.Errorf("%s: unclassified error: %v", label, got.Err)
				}
				continue
			}
			if inj.Stats().Total() == 0 {
				continue
			}
			if ref.Err == nil && (got.Output != ref.Output || got.ExitCode != ref.ExitCode) {
				t.Errorf("%s: silent divergence under %s", label, plan)
			}
			if ref.Err != nil {
				// The reference trapped but the faulted run sailed through:
				// an injected fault must not mask a real violation...
				// unless it legitimately stopped the program earlier
				// (e.g. forced OOM starved the attack of its buffer). A
				// clean exit with matching output is the only pass.
				if got.ExitCode != ref.ExitCode && plan.OOMAt == 0 {
					t.Errorf("%s: faults masked a violation: ref %v, got clean exit %d",
						label, ref.Err, got.ExitCode)
				}
			}
		}
	}
}

// TestStaleKeyFaultsFailClosed (ISSUE 7): StaleEvery perturbs the key of
// metadata lookups that carry a temporal identity. Under the CETS schemes
// the perturbed key no longer matches its lock, so every affected
// dereference must fail closed as a typed temporal violation — or the run
// must be indistinguishable from the fault-free reference (the damaged
// entry was never checked again). A stale key can never widen access or
// silently change program output.
func TestStaleKeyFaultsFailClosed(t *testing.T) {
	var detections int
	for _, name := range failClosedPrograms {
		b, ok := progs.Get(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		src := b.Source(failClosedScale)
		for _, schemeName := range []string{"hashtable-cets", "shadow-cets"} {
			scheme, err := meta.ParseKind(schemeName)
			if err != nil {
				t.Fatal(err)
			}
			ref := runProg(t, src, driver.ModeFull, scheme, nil)
			if ref.Err != nil {
				t.Fatalf("%s/%s: fault-free reference failed: %v", name, schemeName, ref.Err)
			}
			for _, seed := range []uint64{1, 99} {
				label := fmt.Sprintf("%s/%s/seed%d", name, schemeName, seed)
				inj := faults.NewInjector(faults.Plan{Seed: seed, StaleEvery: 40})
				got := runProg(t, src, driver.ModeFull, scheme, inj)
				if got.Err != nil {
					if code := vm.CodeOf(got.Err); code != vm.TrapTemporal {
						t.Errorf("%s: stale key surfaced as %q, want %q (%v)",
							label, code, vm.TrapTemporal, got.Err)
					}
					detections++
					continue
				}
				if inj.Stats().Stales == 0 {
					continue
				}
				if got.Output != ref.Output || got.ExitCode != ref.ExitCode {
					t.Errorf("%s: SILENT DIVERGENCE under stale keys: exit %d vs %d, faults %+v",
						label, got.ExitCode, ref.ExitCode, inj.Stats())
				}
			}
		}
	}
	if detections == 0 {
		t.Error("no stale-key fault was ever detected; the class looks like a no-op")
	}

	// Control arm: spatial-only entries carry no keys, so the stale
	// schedule only defers — the class is a no-op there by construction.
	spatial := meta.KindShadowSpace
	b, _ := progs.Get("treeadd")
	inj := faults.NewInjector(faults.Plan{Seed: 1, StaleEvery: 40})
	res := runProg(t, b.Source(failClosedScale), driver.ModeFull, spatial, inj)
	if res.Err != nil {
		t.Errorf("spatial-only run failed under stale plan: %v", res.Err)
	}
	if inj.Stats().Stales != 0 {
		t.Errorf("stale faults delivered to a keyless scheme: %+v", inj.Stats())
	}
}

// TestUncheckedCorruption is the control arm: with checking off, the same
// fault plans must produce at least one visibly corrupted or crashed run
// across the sweep — otherwise the injector is a no-op and the fail-closed
// results above are vacuous.
func TestUncheckedCorruption(t *testing.T) {
	var divergences int
	scheme := meta.KindShadowSpace // unused in ModeNone
	for _, name := range failClosedPrograms {
		b, _ := progs.Get(name)
		src := b.Source(failClosedScale)
		ref := runProg(t, src, driver.ModeNone, scheme, nil)
		if ref.Err != nil {
			t.Fatalf("%s: unchecked reference failed: %v", name, ref.Err)
		}
		for _, plan := range plans() {
			if plan.DropEvery != 0 || plan.CorruptEvery != 0 {
				// Metadata faults need metadata; skip plans that are
				// no-ops without instrumentation.
				if plan.FlipEvery == 0 && plan.OOMAt == 0 {
					continue
				}
			}
			inj := faults.NewInjector(plan)
			got := runProg(t, src, driver.ModeNone, scheme, inj)
			if inj.Stats().Total() == 0 {
				continue
			}
			if got.Err != nil || got.Output != ref.Output || got.ExitCode != ref.ExitCode {
				divergences++
			}
		}
	}
	if divergences == 0 {
		t.Fatal("unchecked runs never diverged under faults: injector is a no-op")
	}
}
