package soak

import (
	"fmt"

	"softbound/internal/driver"
	"softbound/internal/gen"
	"softbound/internal/metrics"
	"softbound/internal/vm"
)

// checkRuns applies the differential invariants to one variant's matrix
// results. results[i] corresponds to cfgs[i]; nil entries (compile
// failures, cancelled runs) are skipped — the compile divergence was
// already recorded.
//
// Invariants:
//
//   - structured: every run ends in a clean exit or an expected
//     violation trap — never panic, memory-fault, step-limit, oom, ...
//   - detection: a planted variant traps exactly in the configurations
//     its Detected predicate names, with the matching trap code, and a
//     clean variant never traps.
//   - engine agreement: within a config the ref engine matches the fast
//     witness on exit, output, trap, and every modeled stat.
//   - scheme agreement: schemes of equal temporality are behaviorally
//     indistinguishable (exit/output/trap; stats differ by facility
//     cost model).
//   - baseline agreement: every non-detecting run matches the unchecked
//     baseline's exit and output bit-for-bit.
func checkRuns(seed uint64, variant string, pl *gen.Plant, cfgs []runCfg, results []*driver.Result) (divs []Divergence, traps []string) {
	add := func(check, config, detail string) {
		divs = append(divs, Divergence{
			Seed: seed, Variant: variant, Check: check, Config: config, Detail: detail,
		})
	}

	wantCode := string(vm.TrapSpatial)
	if pl != nil && pl.Kind == gen.PlantTemporal {
		wantCode = string(vm.TrapTemporal)
	}

	// Per-run structural and detection checks, plus the trap histogram.
	for i, res := range results {
		if res == nil {
			continue
		}
		rc := cfgs[i]
		code := string(res.TrapCode())
		if code != "" {
			traps = append(traps, code)
		}

		violation := code == string(vm.TrapSpatial) || code == string(vm.TrapTemporal)
		if code != "" && !violation {
			add(CheckUnstructured, rc.String(), fmt.Sprintf("trap %q: %v", code, res.Err))
			continue
		}

		want := false
		if pl != nil && rc.checked() {
			want = pl.Detected(rc.mode == driver.ModeFull, rc.scheme.Temporal())
		}
		switch {
		case want && !res.Detected():
			add(CheckMissed, rc.String(),
				fmt.Sprintf("plant %s (%v) not detected", pl.Site, pl.Kind))
		case want && code != wantCode:
			add(CheckWrongTrap, rc.String(),
				fmt.Sprintf("trap %q, want %q for plant %s", code, wantCode, pl.Site))
		case !want && res.Detected():
			add(CheckFalse, rc.String(),
				fmt.Sprintf("unexpected %s (violation=%v temporal=%v)", code, res.Violation, res.TemporalHit))
		}
	}

	// Engine agreement: within each config, the ref engine must match the
	// fast witness.
	witness := map[string]int{}
	for i, rc := range cfgs {
		if rc.interp == vm.InterpFast && results[i] != nil {
			witness[rc.configName()] = i
		}
	}
	for i, res := range results {
		rc := cfgs[i]
		if res == nil || rc.interp == vm.InterpFast {
			continue
		}
		wi, ok := witness[rc.configName()]
		if !ok {
			continue
		}
		fast, eng := results[wi], rc.interp.String()
		if fast.ExitCode != res.ExitCode || fast.Output != res.Output ||
			fast.TrapCode() != res.TrapCode() {
			add(CheckEngine, rc.String(), fmt.Sprintf(
				"fast(exit=%d trap=%q) vs %s(exit=%d trap=%q); output equal=%v",
				fast.ExitCode, fast.TrapCode(), eng, res.ExitCode, res.TrapCode(),
				fast.Output == res.Output))
			continue
		}
		if fk, rk := statsKey(fast.Stats), statsKey(res.Stats); fk != rk {
			add(CheckEngine, rc.String(),
				fmt.Sprintf("modeled stats diverge:\nfast: %s\n%s: %s", fk, eng, rk))
		}
	}

	// Baseline and scheme agreement, fast engine as the witness.
	baseline := pick(cfgs, results, func(rc runCfg) bool {
		return !rc.checked() && rc.interp == vm.InterpFast
	})
	classes := map[string]int{} // "temporal/mode" -> index of first scheme's run
	for i, res := range results {
		rc := cfgs[i]
		if res == nil || !rc.checked() || rc.interp != vm.InterpFast {
			continue
		}
		if baseline != nil && res.Trap == nil && !res.Detected() {
			if res.ExitCode != baseline.ExitCode || res.Output != baseline.Output {
				add(CheckBaseline, rc.String(), fmt.Sprintf(
					"exit=%d output %q, baseline exit=%d output %q",
					res.ExitCode, clip(res.Output), baseline.ExitCode, clip(baseline.Output)))
			}
		}
		class := fmt.Sprintf("%v/%v", rc.scheme.Temporal(), rc.mode)
		if j, ok := classes[class]; ok {
			peer, prc := results[j], cfgs[j]
			if res.ExitCode != peer.ExitCode || res.Output != peer.Output ||
				res.TrapCode() != peer.TrapCode() {
				add(CheckScheme, rc.String(), fmt.Sprintf(
					"disagrees with %s: exit %d vs %d, trap %q vs %q, output equal=%v",
					prc.String(), res.ExitCode, peer.ExitCode,
					res.TrapCode(), peer.TrapCode(), res.Output == peer.Output))
			}
		} else {
			classes[class] = i
		}
	}
	return divs, traps
}

// pick returns the first non-nil result whose config satisfies f.
func pick(cfgs []runCfg, results []*driver.Result, f func(runCfg) bool) *driver.Result {
	for i, rc := range cfgs {
		if f(rc) && results[i] != nil {
			return results[i]
		}
	}
	return nil
}

// statsKey renders modeled stats for bit-equality comparison: every
// field must match the ref engine exactly.
func statsKey(st *metrics.Stats) string {
	if st == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%+v", *st)
}

// clip bounds strings embedded in divergence details.
func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}
