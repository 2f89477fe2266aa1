// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment returns structured results; the
// sbbench command and the module's benchmarks format them; Figures 1 and
// 2 and the §6.5 comparison read theirs from one bench.Report. Absolute
// numbers come from this reproduction's simulated substrate; the claims
// being reproduced are the *shapes*: who detects what (Tables 3, 4),
// which scheme is qualitatively stronger (Table 1), how the pointer mix
// drives overhead (Figures 1, 2), and the relative cost of the two
// metadata organizations and two checking modes.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"softbound/internal/attacks"
	"softbound/internal/baseline"
	"softbound/internal/bench"
	"softbound/internal/bugbench"
	"softbound/internal/driver"
	"softbound/internal/meta"
	"softbound/internal/vm"
)

// ------------------------------------------------------------- Table 1

// SchemeRow is one row of the qualitative comparison (Table 1).
type SchemeRow struct {
	Scheme       string
	NoSrcChange  bool
	Complete     bool // detects sub-field overflows
	MemLayout    bool // memory layout unchanged
	ArbCasts     bool
	DynLinkLib   bool
	Demonstrated string // which experiment in this repo demonstrates it
}

// Table1 returns the scheme comparison. SoftBound's row is backed by the
// executable demonstrations in this repository; the comparison rows for
// schemes this repo implements (the object-table baseline) are measured,
// and the literature rows reproduce the paper's summary.
func Table1() []SchemeRow {
	return []SchemeRow{
		{Scheme: "SafeC", NoSrcChange: true, Complete: true, MemLayout: false, ArbCasts: true, DynLinkLib: false,
			Demonstrated: "paper §2.2 (fat pointers change layout)"},
		{Scheme: "JKRLDA (object-table)", NoSrcChange: true, Complete: false, MemLayout: true, ArbCasts: true, DynLinkLib: true,
			Demonstrated: "baseline.ObjectTable misses the §2.1 sub-object overflow"},
		{Scheme: "CCured Safe/Seq", NoSrcChange: false, Complete: true, MemLayout: false, ArbCasts: false, DynLinkLib: false,
			Demonstrated: "paper §2.2"},
		{Scheme: "CCured Wild", NoSrcChange: true, Complete: true, MemLayout: false, ArbCasts: true, DynLinkLib: false,
			Demonstrated: "paper §3.4"},
		{Scheme: "MSCC", NoSrcChange: true, Complete: false, MemLayout: true, ArbCasts: false, DynLinkLib: true,
			Demonstrated: "paper §2.2"},
		{Scheme: "SoftBound", NoSrcChange: true, Complete: true, MemLayout: true, ArbCasts: true, DynLinkLib: true,
			Demonstrated: "driver tests: sub-object, wild casts, separate compilation"},
	}
}

// FormatTable1 renders Table 1.
func FormatTable1(rows []SchemeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: comparison of approaches\n")
	fmt.Fprintf(&b, "%-22s %-8s %-9s %-7s %-6s %-8s\n",
		"Scheme", "NoSrc", "Complete", "Layout", "Casts", "DynLink")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-8s %-9s %-7s %-6s %-8s\n",
			r.Scheme, yn(r.NoSrcChange), yn(r.Complete), yn(r.MemLayout),
			yn(r.ArbCasts), yn(r.DynLinkLib))
	}
	return b.String()
}

func yn(v bool) string {
	if v {
		return "Yes"
	}
	return "No"
}

// ------------------------------------------------------------- Table 3

// AttackResult is one Table 3 row.
type AttackResult struct {
	Attack attacks.Attack
	// Succeeded: the attack hijacked control when run unprotected.
	Succeeded bool
	// DetectedFull / DetectedStore: SoftBound stopped it.
	DetectedFull  bool
	DetectedStore bool
}

// Table3 runs the 18-attack Wilander suite under no checking, full
// checking, and store-only checking.
func Table3() ([]AttackResult, error) {
	var out []AttackResult
	for _, a := range attacks.Suite() {
		r := AttackResult{Attack: a}
		res, err := driver.RunSource(a.Source, driver.DefaultConfig(driver.ModeNone))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		r.Succeeded = res.ExitCode == 66 || strings.Contains(res.Output, "ATTACK SUCCESSFUL")

		res, err = driver.RunSource(a.Source, driver.DefaultConfig(driver.ModeFull))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		r.DetectedFull = res.Violation != nil

		res, err = driver.RunSource(a.Source, driver.DefaultConfig(driver.ModeStoreOnly))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		r.DetectedStore = res.Violation != nil
		out = append(out, r)
	}
	return out, nil
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []AttackResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Wilander attack suite detection\n")
	fmt.Fprintf(&b, "%-34s %-9s %-9s %-6s %-6s\n",
		"Attack (technique/location)", "Target", "Exploits", "Full", "Store")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %-9.9s %-9s %-6s %-6s\n",
			r.Attack.Name, r.Attack.Target, yn(r.Succeeded),
			yn(r.DetectedFull), yn(r.DetectedStore))
	}
	return b.String()
}

// ------------------------------------------------------------- Table 4

// BugResult is one Table 4 row.
type BugResult struct {
	Program  bugbench.Program
	Valgrind bool
	Mudflap  bool
	Store    bool
	Full     bool
}

// Table4 runs the BugBench suite under the two baseline tools and the
// two SoftBound modes.
func Table4() ([]BugResult, error) {
	var out []BugResult
	for _, p := range bugbench.Suite() {
		r := BugResult{Program: p}
		runTool := func(mode driver.Mode, ck vm.Checker) (bool, error) {
			cfg := driver.DefaultConfig(mode)
			cfg.Checker = ck
			res, err := driver.RunSource(p.Source, cfg)
			if err != nil {
				return false, fmt.Errorf("%s: %w", p.Name, err)
			}
			return res.Detected(), nil
		}
		var err error
		if r.Valgrind, err = runTool(driver.ModeNone, baseline.NewValgrind()); err != nil {
			return nil, err
		}
		if r.Mudflap, err = runTool(driver.ModeNone, baseline.NewMudflap()); err != nil {
			return nil, err
		}
		if r.Store, err = runTool(driver.ModeStoreOnly, nil); err != nil {
			return nil, err
		}
		if r.Full, err = runTool(driver.ModeFull, nil); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []BugResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: BugBench detection efficacy\n")
	fmt.Fprintf(&b, "%-12s %-9s %-8s %-6s %-5s\n", "Benchmark", "Valgrind", "MudFlap", "Store", "Full")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-9s %-8s %-6s %-5s\n",
			r.Program.Name, yn(r.Valgrind), yn(r.Mudflap), yn(r.Store), yn(r.Full))
	}
	return b.String()
}

// ------------------------------------------------------------- Figures

// Figures 1 and 2 and the §6.5 comparison are views over one
// bench.Report. The *Cells functions select the cells each view reads;
// bench.Execute runs them in parallel, each crash-contained. A view whose
// cell errored or is missing returns an error naming it.

// Figure1Cells selects what Figure 1 reads: every program's baseline.
func Figure1Cells(scale int) bench.Config {
	return bench.Config{Workers: runtime.NumCPU(), Scale: scale, Modes: []driver.Mode{driver.ModeNone}}
}

// Figure2Cells selects the whole program × scheme × mode matrix, which
// also holds every cell Figure 1 and §6.5 read.
func Figure2Cells(scale int) bench.Config {
	return bench.Config{Workers: runtime.NumCPU(), Scale: scale}
}

// cell returns the report's finished run of one program and config
// ("baseline" or bench's "<scheme>-<mode>").
func cell(rep *bench.Report, prog, config string) (*bench.Run, error) {
	for i := range rep.Runs {
		if r := &rep.Runs[i]; r.Program == prog && r.Config == config {
			if r.Error != "" {
				return nil, fmt.Errorf("%s/%s: %s", prog, config, r.Error)
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("%s/%s: not in the report", prog, config)
}

// overhead returns one instrumented cell's overhead_sim.
func overhead(rep *bench.Report, prog, config string) (float64, error) {
	r, err := cell(rep, prog, config)
	switch {
	case err != nil:
		return 0, err
	case r.OverheadSim == nil:
		return 0, fmt.Errorf("%s/%s: no overhead against the baseline", prog, config)
	}
	return *r.OverheadSim, nil
}

// ------------------------------------------------------------- Figure 1

// MixResult is one Figure 1 bar.
type MixResult struct {
	Bench   string
	PtrFrac float64 // fraction of memory ops that move pointers
}

// Figure1 reads the pointer-memory-operation frequency, the quantity
// Figure 1 plots, from each program's baseline (uninstrumented,
// post-optimization) run.
func Figure1(rep *bench.Report) ([]MixResult, error) {
	out := make([]MixResult, 0, len(rep.Programs))
	for _, p := range rep.Programs {
		r, err := cell(rep, p, "baseline")
		if err != nil {
			return nil, err
		}
		out = append(out, MixResult{Bench: p, PtrFrac: r.Stats.PtrMemFrac})
	}
	// The paper presents benchmarks sorted by this fraction.
	sort.SliceStable(out, func(i, j int) bool { return out[i].PtrFrac < out[j].PtrFrac })
	return out, nil
}

// FormatFigure1 renders Figure 1 as a text bar chart.
func FormatFigure1(rows []MixResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: frequency of pointer memory operations\n")
	for _, r := range rows {
		bar := strings.Repeat("#", int(r.PtrFrac*60))
		fmt.Fprintf(&b, "%-11s %5.1f%% |%s\n", r.Bench, 100*r.PtrFrac, bar)
	}
	return b.String()
}

// ------------------------------------------------------------- Figure 2

// OverheadConfig is one bar group member of Figure 2.
type OverheadConfig struct {
	Name string
	Mode driver.Mode
	Meta meta.Kind
}

// benchName is bench's name for the configuration ("<scheme>-<mode>").
func (c OverheadConfig) benchName() string { return c.Meta.String() + "-" + c.Mode.String() }

// Figure2Configs returns the configurations of Figure 2, every metadata
// scheme (meta.Kinds) under both checking modes, with the paper's display
// names ("HashTable-Complete", ...).
func Figure2Configs() []OverheadConfig {
	var out []OverheadConfig
	for _, m := range []driver.Mode{driver.ModeFull, driver.ModeStoreOnly} {
		for _, k := range meta.Kinds() {
			out = append(out, OverheadConfig{Name: schemeDisplay(k) + "-" + modeDisplay(m), Mode: m, Meta: k})
		}
	}
	return out
}

func schemeDisplay(k meta.Kind) string {
	switch k {
	case meta.KindHashTable:
		return "HashTable"
	case meta.KindShadowSpace:
		return "ShadowSpace"
	}
	return k.String()
}

func modeDisplay(m driver.Mode) string {
	if m == driver.ModeStoreOnly {
		return "Stores"
	}
	return "Complete"
}

// OverheadResult is one benchmark's Figure 2 bar group.
type OverheadResult struct {
	Bench   string
	PtrFrac float64
	// Overheads maps config name to fractional overhead in simulated
	// instructions (0.79 = 79%).
	Overheads map[string]float64
}

// Figure2 reads the runtime overhead of every benchmark under each
// instrumentation configuration against its uninstrumented baseline,
// in Figure 1 order.
func Figure2(rep *bench.Report) ([]OverheadResult, error) {
	mix, err := Figure1(rep)
	if err != nil {
		return nil, err
	}
	out := make([]OverheadResult, 0, len(mix))
	for _, m := range mix {
		r := OverheadResult{Bench: m.Bench, PtrFrac: m.PtrFrac, Overheads: make(map[string]float64)}
		for _, cfg := range Figure2Configs() {
			if r.Overheads[cfg.Name], err = overhead(rep, m.Bench, cfg.benchName()); err != nil {
				return nil, err
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// Averages computes the per-config mean overhead across benchmarks.
func Averages(rows []OverheadResult) map[string]float64 {
	avg := make(map[string]float64)
	for _, r := range rows {
		for k, v := range r.Overheads {
			avg[k] += v
		}
	}
	for k := range avg {
		avg[k] /= float64(len(rows))
	}
	return avg
}

// FormatFigure2 renders Figure 2 as a table (benchmarks in Figure 1
// order, four config columns, average row).
func FormatFigure2(rows []OverheadResult) string {
	var b strings.Builder
	configs := Figure2Configs()
	fmt.Fprintf(&b, "Figure 2: runtime overhead (%% over uninstrumented, simulated instructions)\n")
	fmt.Fprintf(&b, "%-11s %6s", "bench", "ptr%")
	for _, c := range configs {
		fmt.Fprintf(&b, " %21s", c.Name)
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %5.1f%%", r.Bench, 100*r.PtrFrac)
		for _, c := range configs {
			fmt.Fprintf(&b, " %20.1f%%", 100*r.Overheads[c.Name])
		}
		fmt.Fprintf(&b, "\n")
	}
	avg := Averages(rows)
	fmt.Fprintf(&b, "%-11s %6s", "average", "")
	for _, c := range configs {
		fmt.Fprintf(&b, " %20.1f%%", 100*avg[c.Name])
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}
