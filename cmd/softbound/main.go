// Command softbound compiles and runs a C source file under the
// SoftBound pipeline.
//
// Usage:
//
//	softbound [-mode=none|store|full] [-meta=<scheme>] [-stats] [-dump]
//	          [-timeout=10s] [-steps=N] [-faults=seed=7,flip=200]
//	          [-format=text|json] file.c...
//
// With -format=json the single-run result is emitted as one JSON
// document on stdout using the BENCH.json field vocabulary (config,
// mode, scheme, exit_code, trap_code, stats, phases, wall_nanos), with
// program output captured into the document instead of echoed. Exit
// status is unchanged: the program's exit code, 3 for a guard trap with
// exit code 0, 1 for a compile failure, 2 for bad usage.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"softbound/internal/driver"
	"softbound/internal/faults"
	"softbound/internal/meta"
	"softbound/internal/metrics"
	"softbound/internal/vm"
)

func main() {
	mode := flag.String("mode", "full", "checking mode: none, store, full")
	metaKind := flag.String("meta", "shadow",
		"metadata scheme: shadowspace, hashtable, shadow-cets, hashtable-cets, "+
			"or the aliases hash, shadow")
	stats := flag.Bool("stats", false, "print execution statistics")
	dump := flag.Bool("dump", false, "dump the instrumented IR instead of running")
	noOpt := flag.Bool("no-opt", false, "disable the optimizer")
	timeout := flag.Duration("timeout", 0,
		"wall-clock execution deadline (0 = unbounded); expiring traps with code \"deadline\"")
	steps := flag.Uint64("steps", 0,
		"VM instruction budget (0 = default); exceeding it traps with code \"step-limit\"")
	faultSpec := flag.String("faults", "",
		"fault-injection plan, e.g. \"seed=7,flip=200,drop=500,corrupt=300,oom=4\" (empty = none)")
	format := flag.String("format", "text",
		"output format: text (program output to stdout, diagnostics to stderr) or "+
			"json (one BENCH.json-vocabulary result document on stdout)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: softbound [flags] file.c ...")
		os.Exit(2)
	}
	asJSON := false
	switch *format {
	case "text":
	case "json":
		asJSON = true
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	cfg := driver.DefaultConfig(driver.ModeFull)
	switch *mode {
	case "none":
		cfg.Mode = driver.ModeNone
	case "store":
		cfg.Mode = driver.ModeStoreOnly
	case "full":
		cfg.Mode = driver.ModeFull
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	schemeName := *metaKind
	switch *metaKind { // short aliases kept for compatibility
	case "shadow":
		schemeName = "shadowspace"
	case "hash":
		schemeName = "hashtable"
	}
	k, err := meta.ParseKind(schemeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown metadata scheme %q (have %v)\n",
			*metaKind, meta.KindNames())
		os.Exit(2)
	}
	cfg.Meta = k
	cfg.Optimize = !*noOpt
	cfg.Stdout = os.Stdout
	cfg.Timeout = *timeout
	if *steps != 0 {
		cfg.StepLimit = *steps
	}
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Faults = faults.NewInjector(plan)
	}

	var sources []driver.Source
	var names []string
	for _, name := range flag.Args() {
		text, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sources = append(sources, driver.Source{Name: name, Text: string(text)})
		names = append(names, name)
	}

	if asJSON {
		os.Exit(runJSON(sources, cfg, jsonMeta{
			program: strings.Join(names, ","),
			mode:    cfg.Mode,
			scheme:  schemeName,
		}))
	}

	mod, err := driver.Compile(sources, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *dump {
		fmt.Print(mod.String())
		return
	}
	res := driver.Execute(mod, cfg)
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, res.Err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "stats: %s\n", res.Stats)
		if inj := cfg.Faults; inj != nil {
			s := inj.Stats()
			fmt.Fprintf(os.Stderr, "faults: flips=%d drops=%d corrupts=%d ooms=%d\n",
				s.Flips, s.Drops, s.Corrupts, s.OOMs)
		}
	}
	// A trapped run exits with a distinct status so scripts can tell a
	// guard firing (e.g. deadline on a hung program) from the program's
	// own exit code.
	var trap *vm.Trap
	if errors.As(res.Err, &trap) && res.ExitCode == 0 {
		os.Exit(3)
	}
	os.Exit(int(res.ExitCode))
}

// jsonMeta carries the run identity for the JSON document.
type jsonMeta struct {
	program string
	mode    driver.Mode
	scheme  string
}

// jsonResult is the -format=json document. Field names follow the
// BENCH.json schema (and the sbserve /run response) so one decoder
// handles all three producers.
type jsonResult struct {
	Program   string                `json:"program"`
	Config    string                `json:"config"`
	Mode      string                `json:"mode"`
	Scheme    string                `json:"scheme,omitempty"`
	ExitCode  int64                 `json:"exit_code"`
	Output    string                `json:"output,omitempty"`
	TrapCode  string                `json:"trap_code,omitempty"`
	Error     string                `json:"error,omitempty"`
	Violation string                `json:"violation,omitempty"`
	Stats     *metrics.Report       `json:"stats,omitempty"`
	Phases    []metrics.PhaseTiming `json:"phases,omitempty"`
	WallNanos int64                 `json:"wall_nanos"`
	Faults    *faults.Stats         `json:"faults,omitempty"`
	// Compile identifies the pipeline stage that rejected the input,
	// present only on compile failures.
	Compile *jsonCompileError `json:"compile,omitempty"`
}

type jsonCompileError struct {
	Stage string `json:"stage"`
	Unit  string `json:"unit,omitempty"`
}

// runJSON compiles, executes, and emits the result document; the return
// value is the process exit status (same policy as text mode).
func runJSON(sources []driver.Source, cfg driver.Config, m jsonMeta) int {
	doc := jsonResult{
		Program: m.program,
		Mode:    m.mode.String(),
	}
	if m.mode == driver.ModeNone {
		doc.Config = "baseline"
	} else {
		doc.Config = m.scheme + "-" + m.mode.String()
		doc.Scheme = m.scheme
	}

	var out strings.Builder
	cfg.Stdout = &out

	var timer metrics.PhaseTimer
	start := time.Now()
	doneCompile := timer.Start("compile")
	mod, counters, err := driver.CompileWithStats(sources, cfg)
	doneCompile()
	if err != nil {
		doc.Error = err.Error()
		var ce *driver.CompileError
		if errors.As(err, &ce) {
			doc.Compile = &jsonCompileError{Stage: ce.Stage, Unit: ce.Unit}
		}
		doc.Phases = timer.Phases()
		doc.WallNanos = time.Since(start).Nanoseconds()
		emitJSON(doc)
		return 1
	}

	doneExec := timer.Start("execute")
	res := driver.Execute(mod, cfg)
	doneExec()
	doc.WallNanos = time.Since(start).Nanoseconds()
	doc.Phases = timer.Phases()
	doc.ExitCode = res.ExitCode
	doc.Output = out.String()
	if res.Err != nil {
		doc.Error = res.Err.Error()
	}
	if res.Violation != nil {
		doc.Violation = res.Violation.Error()
	}
	doc.TrapCode = string(res.TrapCode())
	if res.Stats != nil {
		res.Stats.Opt = counters
		res.Stats.CheckElims = counters.ChecksRemoved()
		res.Stats.TrapCode = doc.TrapCode
		rep := res.Stats.Report()
		doc.Stats = &rep
	}
	if inj := cfg.Faults; inj != nil {
		fs := inj.Stats()
		doc.Faults = &fs
	}
	emitJSON(doc)

	var trap *vm.Trap
	if errors.As(res.Err, &trap) && res.ExitCode == 0 {
		return 3
	}
	return int(res.ExitCode)
}

func emitJSON(doc jsonResult) {
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(append(blob, '\n'))
}
