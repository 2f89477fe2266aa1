// Command sbbench regenerates the paper's evaluation artifacts: every
// table and figure of §6, plus the compatibility case study, the related
// scheme comparison, and the ablations called out in DESIGN.md.
//
// It also hosts the parallel benchmark harness, which runs the full
// program × metadata-scheme × protection-mode matrix on a bounded worker
// pool and serializes per-run statistics and overhead-versus-baseline
// figures to the stable BENCH.json schema.
//
// Usage:
//
//	sbbench -experiment=all|table1|table3|table4|figure1|figure2|compat|related
//	        [-scale=N]
//	sbbench -parallel|-workers=N [-json=BENCH.json] [-schemes=hashtable,shadowspace]
//	        [-progs=go,treeadd,...] [-scale=N]
//	        [-timeout=30s] [-steps=N] [-faults=seed=7,flip=200,oom=4]
//	        [-engine=fast|ref] [-cpuprofile=cpu.pprof] [-memprofile=mem.pprof]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"softbound/internal/bench"
	"softbound/internal/experiments"
	"softbound/internal/faults"
	"softbound/internal/meta"
	"softbound/internal/vm"
)

func main() {
	exp := flag.String("experiment", "all",
		"which experiment to run: all, table1, table3, table4, figure1, figure2, compat, related "+
			"(ignored when a matrix flag such as -parallel or -workers selects the benchmark matrix)")
	scale := flag.Int("scale", 0, "benchmark problem size (0 = default)")
	parallel := flag.Bool("parallel", false,
		"run the benchmark matrix on a worker pool sized to the CPU count")
	workers := flag.Int("workers", 0,
		"worker pool size for the benchmark matrix (0 = NumCPU with -parallel, else 1)")
	jsonOut := flag.String("json", "",
		"write the benchmark matrix report to this file (BENCH.json schema)")
	schemes := flag.String("schemes", "",
		"comma-separated metadata schemes for the matrix (default: all: "+
			strings.Join(meta.KindNames(), ", ")+")")
	progList := flag.String("progs", "",
		"comma-separated benchmark subset for the matrix (default: all 15)")
	timeout := flag.Duration("timeout", 0,
		"per-cell execution deadline for the matrix (0 = unbounded); a hung cell "+
			"is recorded as failed with trap code \"deadline\" and the matrix continues")
	steps := flag.Uint64("steps", 0,
		"per-cell VM instruction budget for the matrix (0 = driver default); "+
			"exceeding it traps with code \"step-limit\"")
	faultSpec := flag.String("faults", "",
		"fault-injection plan for every matrix cell, e.g. \"seed=7,flip=200,drop=500,corrupt=300,oom=4\" "+
			"(empty = no injection); each cell gets a fresh deterministic injector")
	retries := flag.Int("retries", 0,
		"total attempts per cell for contained non-deterministic crashes (0 = harness default of 2, "+
			"1 = no retry); deterministic traps such as deadline and step-limit never retry")
	engine := flag.String("engine", "",
		"interpreter for matrix cells: fast (default) or ref "+
			"(engine A/B wall-clock comparison; modeled stats are identical)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			pf, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
				return
			}
			defer pf.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(pf); err != nil {
				fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
			}
		}()
	}

	// The harness path: any of its flags selects it.
	if *parallel || *jsonOut != "" || *workers > 0 || *schemes != "" ||
		*progList != "" || *timeout != 0 || *steps != 0 || *faultSpec != "" ||
		*retries != 0 || *engine != "" {
		if err := runBench(benchOptions{
			scale:    *scale,
			parallel: *parallel,
			workers:  *workers,
			jsonPath: *jsonOut,
			schemes:  *schemes,
			progs:    *progList,
			timeout:  *timeout,
			steps:    *steps,
			faults:   *faultSpec,
			retries:  *retries,
			engine:   *engine,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "sbbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if err := runExperiments(os.Stdout, *exp, *scale); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}

// runExperiments prints the named experiment, or every one for "all", to
// w, each followed by a blank line. The figure views read one bench
// report of just the cells they need; "all" runs the Figure 2 matrix,
// which holds every cell of Figure 1 and §6.5 too.
func runExperiments(w io.Writer, exp string, scale int) error {
	var rep *bench.Report
	if cells, ok := map[string]func(int) bench.Config{
		"all": experiments.Figure2Cells, "figure1": experiments.Figure1Cells,
		"figure2": experiments.Figure2Cells, "related": experiments.RelatedCells,
	}[exp]; ok {
		var err error
		if rep, err = bench.Execute(cells(scale)); err != nil {
			return err
		}
	}
	ran := false
	for _, e := range []struct {
		name string
		run  func() (string, error)
	}{
		{"table1", func() (string, error) { return experiments.FormatTable1(experiments.Table1()), nil }},
		{"table3", func() (string, error) { return render(experiments.FormatTable3)(experiments.Table3()) }},
		{"table4", func() (string, error) { return render(experiments.FormatTable4)(experiments.Table4()) }},
		{"figure1", func() (string, error) { return render(experiments.FormatFigure1)(experiments.Figure1(rep)) }},
		{"figure2", func() (string, error) { return render(experiments.FormatFigure2)(experiments.Figure2(rep)) }},
		{"compat", func() (string, error) { return render(experiments.FormatCompat)(experiments.Compat()) }},
		{"related", func() (string, error) { return render(experiments.FormatRelated)(experiments.Related(rep)) }},
	} {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		out, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w, out)
	}
	if !ran {
		return fmt.Errorf("unknown -experiment %q", exp)
	}
	return nil
}

// render formats an experiment's rows unless it failed.
func render[T any](format func(T) string) func(T, error) (string, error) {
	return func(rows T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return format(rows), nil
	}
}

// benchOptions carries the harness flag values.
type benchOptions struct {
	scale    int
	parallel bool
	workers  int
	jsonPath string
	schemes  string
	progs    string
	timeout  time.Duration
	steps    uint64
	faults   string
	retries  int
	engine   string
}

// parseEngine resolves the -engine flag.
func parseEngine(engine string) (vm.InterpKind, error) {
	switch engine {
	case "", "fast":
		return vm.InterpFast, nil
	case "ref":
		return vm.InterpRef, nil
	default:
		return 0, fmt.Errorf("unknown -engine %q (want fast or ref)", engine)
	}
}

// runBench executes the benchmark matrix and writes the human summary to
// stdout and, if requested, the JSON report to jsonPath.
func runBench(o benchOptions) error {
	schemes, err := meta.ParseKinds(o.schemes)
	if err != nil {
		return err
	}
	var programs []string
	for _, p := range strings.Split(o.progs, ",") {
		if p = strings.TrimSpace(p); p != "" {
			programs = append(programs, p)
		}
	}
	workers := o.workers
	if workers <= 0 {
		if o.parallel {
			workers = runtime.NumCPU()
		} else {
			workers = 1
		}
	}
	interp, err := parseEngine(o.engine)
	if err != nil {
		return err
	}
	var plan *faults.Plan
	if o.faults != "" {
		p, err := faults.ParsePlan(o.faults)
		if err != nil {
			return err
		}
		if p.Enabled() {
			plan = &p
		}
	}

	rep, err := bench.Execute(bench.Config{
		Workers:     workers,
		Scale:       o.scale,
		Programs:    programs,
		Schemes:     schemes,
		Log:         os.Stderr,
		CellTimeout: o.timeout,
		StepLimit:   o.steps,
		Faults:      plan,
		MaxAttempts: o.retries,
		Interp:      interp,
	})
	if err != nil {
		return err
	}
	fmt.Print(bench.Format(rep))

	if o.jsonPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (schema v%d, %d runs)\n", o.jsonPath, rep.Schema, len(rep.Runs))
	}
	return nil
}
