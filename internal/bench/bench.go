// Package bench is the parallel, instrumented benchmark harness: it runs
// the full program × metadata-scheme × protection-mode matrix behind the
// paper's Figure 2 on a bounded worker pool, one isolated compile+VM per
// run, and serializes per-run statistics, per-phase wall-clock timings,
// and overhead-versus-baseline figures to the stable BENCH.json schema.
//
// Isolation: every run compiles its own module and constructs its own VM
// and metadata facility, so concurrent runs share no mutable state (the
// compile pipeline and vm package keep no package-level mutable globals;
// internal/vm's isolation test holds this invariant under -race).
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"softbound/internal/driver"
	"softbound/internal/faults"
	"softbound/internal/ir"
	"softbound/internal/meta"
	"softbound/internal/metrics"
	"softbound/internal/progs"
	"softbound/internal/retry"
	"softbound/internal/vm"
)

// SchemaVersion identifies the BENCH.json layout. Bump it whenever a
// field of Report, Run, or metrics.Report is renamed or removed.
const SchemaVersion = 1

// baselineConfig names the uninstrumented runs overheads are computed
// against.
const baselineConfig = "baseline"

// Config selects the matrix and the execution policy.
type Config struct {
	// Workers bounds the worker pool. <= 0 means one worker (serial);
	// callers wanting full parallelism pass runtime.NumCPU().
	Workers int
	// Scale is the benchmark problem size (0 = each program's default).
	Scale int
	// Programs restricts the matrix to a subset of progs.All() by name
	// (nil = all 15, Figure 1 order).
	Programs []string
	// Schemes lists the metadata schemes to measure (nil = all of
	// meta.Kinds()).
	Schemes []meta.Kind
	// Modes lists the instrumented protection modes (nil = store-only
	// and full, the paper's two checking modes). The uninstrumented
	// baseline always runs; it is the denominator.
	Modes []driver.Mode
	// Log receives one line per completed run (nil = silent).
	Log io.Writer

	// CellTimeout bounds each cell's execute phase via the VM deadline
	// guard (0 = unbounded). A harness-level wall-clock backstop of
	// 2×CellTimeout+1s contains cells whose VM never reaches the guard.
	CellTimeout time.Duration
	// StepLimit overrides each cell's VM instruction budget (0 = the
	// driver default).
	StepLimit uint64
	// Faults, when non-nil, runs every cell under a fresh fault injector
	// built from this plan (one injector per cell keeps each schedule
	// deterministic and isolated).
	Faults *faults.Plan

	// MaxAttempts bounds the containment retry per cell (how many times a
	// panicking or hung cell runs before its failure is recorded; 0 = the
	// default of 2, i.e. one retry). Cells that fail deterministically —
	// VM deadline, step limit, detections — are never retried regardless.
	MaxAttempts int

	// Interp selects the interpreter engine for every cell (engine A/B
	// measurements; the modeled statistics are identical across engines,
	// only wall clock moves).
	Interp vm.InterpKind
}

// Run is one completed cell of the matrix.
type Run struct {
	Program string `json:"program"`
	Class   string `json:"class"`
	Scale   int    `json:"scale"`
	// Config is "baseline" for the uninstrumented run, otherwise
	// "<scheme>-<mode>".
	Config string `json:"config"`
	Mode   string `json:"mode"`
	Scheme string `json:"scheme,omitempty"`
	// Engine names the interpreter this cell ran on ("fast" or "ref") so
	// mixed-engine result sets stay distinguishable.
	Engine string `json:"engine"`

	Stats  metrics.Report        `json:"stats"`
	Phases []metrics.PhaseTiming `json:"phases"`
	// WallNanos is the execute-phase wall clock (compile excluded, as in
	// the paper's runtime measurements).
	WallNanos int64 `json:"wall_nanos"`
	// NsPerInst is WallNanos divided by executed IR instructions — the
	// host-side interpreter speed this cell observed. An additive
	// schema-v1 field; omitted when the run executed no instructions.
	NsPerInst float64 `json:"ns_per_inst,omitempty"`

	// OverheadSim and OverheadWall are relative to the same program's
	// baseline run (0.79 = 79%); nil on the baseline itself and on
	// errored runs.
	OverheadSim  *float64 `json:"overhead_sim,omitempty"`
	OverheadWall *float64 `json:"overhead_wall,omitempty"`

	Error string `json:"error,omitempty"`
	// TrapCode classifies how the cell ended ("" = clean exit): a
	// vm.TrapCode string, or "panic" when the harness contained a
	// panicking cell. An additive schema-v1 field.
	TrapCode string `json:"trap_code,omitempty"`
	// Attempts is how many times the harness ran the cell (> 1 after a
	// contained panic or hang triggered the bounded retry); omitted when 1.
	Attempts int `json:"attempts,omitempty"`
}

// ConfigSummary aggregates one configuration across all programs — the
// per-bar-group averages of Figure 2.
type ConfigSummary struct {
	Config           string  `json:"config"`
	Runs             int     `json:"runs"`
	MeanOverheadSim  float64 `json:"mean_overhead_sim"`
	MeanOverheadWall float64 `json:"mean_overhead_wall"`
}

// Report is the BENCH.json document.
type Report struct {
	Schema  int `json:"schema"`
	Workers int `json:"workers"`
	Scale   int `json:"scale"`
	// Engine is the interpreter every cell ran on: "fast" (default) or
	// "ref". An additive schema-v1 field.
	Engine       string          `json:"engine"`
	Programs     []string        `json:"programs"`
	Schemes      []string        `json:"schemes"`
	Modes        []string        `json:"modes"`
	ElapsedNanos int64           `json:"elapsed_nanos"`
	Runs         []Run           `json:"runs"`
	Summary      []ConfigSummary `json:"summary"`
}

// spec is one cell before execution.
type spec struct {
	bench  progs.Benchmark
	scale  int
	mode   driver.Mode
	scheme meta.Kind // unused for the baseline

	// Execution policy, copied from Config by buildMatrix.
	timeout time.Duration
	steps   uint64
	plan    *faults.Plan
	interp  vm.InterpKind
}

func (s spec) configName() string {
	if s.mode == driver.ModeNone {
		return baselineConfig
	}
	return s.scheme.String() + "-" + s.mode.String()
}

// DefaultModes returns the paper's two checking modes.
func DefaultModes() []driver.Mode {
	return []driver.Mode{driver.ModeStoreOnly, driver.ModeFull}
}

// selectPrograms resolves cfg.Programs against internal/progs, preserving
// Figure 1 order.
func selectPrograms(names []string) ([]progs.Benchmark, error) {
	all := progs.All()
	if len(names) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := progs.Get(n); !ok {
			return nil, fmt.Errorf("bench: unknown program %q", n)
		}
		want[n] = true
	}
	var out []progs.Benchmark
	for _, b := range all {
		if want[b.Name] {
			out = append(out, b)
		}
	}
	return out, nil
}

// buildMatrix expands the configuration into the ordered run list: for
// each program, the baseline followed by every scheme × mode cell.
func buildMatrix(cfg Config) ([]spec, error) {
	benches, err := selectPrograms(cfg.Programs)
	if err != nil {
		return nil, err
	}
	schemes := cfg.Schemes
	if len(schemes) == 0 {
		schemes = meta.Kinds()
	}
	modes := cfg.Modes
	if len(modes) == 0 {
		modes = DefaultModes()
	}
	var out []spec
	for _, b := range benches {
		cell := spec{bench: b, scale: cfg.Scale, mode: driver.ModeNone,
			timeout: cfg.CellTimeout, steps: cfg.StepLimit, plan: cfg.Faults,
			interp: cfg.Interp}
		out = append(out, cell)
		for _, sc := range schemes {
			for _, m := range modes {
				if m == driver.ModeNone {
					continue // the baseline is implicit
				}
				cell.mode, cell.scheme = m, sc
				out = append(out, cell)
			}
		}
	}
	return out, nil
}

// runCell is the per-cell entry point; a variable so tests can observe
// pool behaviour without doing real compiles.
var runCell = executeRun

// newRun seeds a Run's identity fields from its spec, so every exit path
// (including containment of a panicking or hung cell) reports which cell
// it was.
func newRun(s spec) Run {
	run := Run{
		Program: s.bench.Name,
		Class:   s.bench.Class.String(),
		Scale:   s.scale,
		Config:  s.configName(),
		Mode:    s.mode.String(),
		Engine:  s.interp.String(),
	}
	if s.mode != driver.ModeNone {
		run.Scheme = s.scheme.String()
	}
	return run
}

// executeRun compiles and executes one cell in isolation.
func executeRun(s spec) Run {
	run := newRun(s)

	dcfg := driver.DefaultConfig(s.mode)
	if s.mode != driver.ModeNone {
		dcfg.Meta = s.scheme
	}
	dcfg.Timeout = s.timeout
	if s.steps != 0 {
		dcfg.StepLimit = s.steps
	}
	if s.plan != nil {
		dcfg.Faults = faults.NewInjector(*s.plan)
	}
	dcfg.Interp = s.interp
	src := s.bench.Source(s.scale)

	var pt metrics.PhaseTimer
	var mod *ir.Module
	var counters metrics.OptCounters
	var err error
	pt.Time("compile", func() {
		mod, counters, err = driver.CompileWithStats(
			[]driver.Source{{Name: s.bench.Name + ".c", Text: src}}, dcfg)
	})
	if err != nil {
		run.Error = err.Error()
		run.Phases = pt.Phases()
		return run
	}

	var res *driver.Result
	execDone := pt.Start("execute")
	execStart := time.Now()
	res = driver.Execute(mod, dcfg)
	run.WallNanos = time.Since(execStart).Nanoseconds()
	execDone()

	run.Phases = pt.Phases()
	run.TrapCode = string(vm.CodeOf(res.Err))
	if res.Stats != nil {
		res.Stats.Opt = counters
		res.Stats.CheckElims = counters.ChecksRemoved()
		res.Stats.TrapCode = run.TrapCode
		run.Stats = res.Stats.Report()
		if run.Stats.Insts > 0 {
			run.NsPerInst = float64(run.WallNanos) / float64(run.Stats.Insts)
		}
	}
	if res.Err != nil {
		run.Error = res.Err.Error()
	}
	return run
}

// maxAttempts bounds the containment retry: a cell that panics or blows
// its wall-clock backstop gets exactly one more chance before its failure
// is recorded and the matrix moves on.
const maxAttempts = 2

// runGuarded executes one cell with crash containment: a panic inside the
// cell becomes a failed Run instead of killing the process, and a cell
// whose goroutine outlives twice its timeout is abandoned as hung. Panicked
// and hung cells are retried under the shared retry.Policy (the failure may
// be a transient artifact of load); a repeat failure is recorded as the
// cell's result and the rest of the matrix still completes. A VM-level
// deadline trap is NOT retried — the program genuinely ran past its budget,
// and a rerun would just double the wall time to the same answer
// (vm.TrapCode.Retryable encodes the same rule for the service).
func runGuarded(s spec, policy retry.Policy) Run {
	var run Run
	attempts := policy.Do(context.Background(), func(int) bool {
		var contained bool
		run, contained = runAttempt(s)
		return contained
	})
	if attempts > 1 {
		run.Attempts = attempts
	}
	return run
}

// runAttempt is one contained execution of a cell. contained reports that
// the harness had to intervene (panic recovery or backstop abandonment)
// rather than the cell finishing on its own.
func runAttempt(s spec) (run Run, contained bool) {
	type outcome struct {
		run       Run
		contained bool
	}
	done := make(chan outcome, 1)
	// Read the runCell hook on the harness goroutine: an abandoned attempt
	// goroutine may outlive Execute, and tests restore the hook after it
	// returns.
	exec := runCell
	go func() {
		defer func() {
			if r := recover(); r != nil {
				failed := newRun(s)
				failed.TrapCode = string(vm.TrapPanic)
				failed.Error = fmt.Sprintf("panic: %v", r)
				done <- outcome{run: failed, contained: true}
			}
		}()
		done <- outcome{run: exec(s)}
	}()

	// The VM deadline guard is the primary timeout; this wall-clock
	// backstop only fires if the cell never reaches the VM (compile hang,
	// stuck builtin). The goroutine cannot be killed, but the harness
	// abandons it and completes the matrix.
	if s.timeout > 0 {
		select {
		case o := <-done:
			return o.run, o.contained
		case <-time.After(2*s.timeout + time.Second):
			run = newRun(s)
			run.TrapCode = string(vm.TrapDeadline)
			run.Error = fmt.Sprintf("cell exceeded wall-clock backstop (%v); abandoned", 2*s.timeout+time.Second)
			return run, true
		}
	}
	o := <-done
	return o.run, o.contained
}

// Execute runs the whole matrix on a bounded worker pool and returns the
// finished report. Results keep matrix order regardless of completion
// order, so BENCH.json is stable across parallelism levels.
func Execute(cfg Config) (*Report, error) {
	specs, err := buildMatrix(cfg)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	policy := retry.Policy{MaxAttempts: cfg.MaxAttempts}
	if policy.MaxAttempts <= 0 {
		policy.MaxAttempts = maxAttempts
	}

	start := time.Now()
	runs := make([]Run, len(specs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var logMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				runs[i] = runGuarded(specs[i], policy)
				if cfg.Log != nil {
					logMu.Lock()
					fmt.Fprintf(cfg.Log, "bench: %-11s %-22s %8.2fms sim=%d\n",
						runs[i].Program, runs[i].Config,
						float64(runs[i].WallNanos)/1e6, runs[i].Stats.SimInsts)
					logMu.Unlock()
				}
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	rep := &Report{
		Schema:       SchemaVersion,
		Workers:      workers,
		Scale:        cfg.Scale,
		Engine:       cfg.Interp.String(),
		ElapsedNanos: time.Since(start).Nanoseconds(),
		Runs:         runs,
	}
	for _, s := range specs {
		rep.Programs = appendUnique(rep.Programs, s.bench.Name)
		if s.mode != driver.ModeNone {
			rep.Schemes = appendUnique(rep.Schemes, s.scheme.String())
			rep.Modes = appendUnique(rep.Modes, s.mode.String())
		}
	}
	computeOverheads(rep)
	return rep, nil
}

func appendUnique(list []string, v string) []string {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}

// computeOverheads fills every instrumented run's overhead fields from its
// program's baseline run, then aggregates the per-config summaries.
func computeOverheads(rep *Report) {
	base := make(map[string]*Run)
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if r.Config == baselineConfig && r.Error == "" {
			base[r.Program] = r
		}
	}
	type agg struct {
		sim, wall float64
		n         int
	}
	sums := make(map[string]*agg)
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if r.Config == baselineConfig || r.Error != "" {
			continue
		}
		b := base[r.Program]
		if b == nil || b.Stats.SimInsts == 0 || b.WallNanos == 0 {
			continue
		}
		sim := float64(r.Stats.SimInsts)/float64(b.Stats.SimInsts) - 1
		wall := float64(r.WallNanos)/float64(b.WallNanos) - 1
		r.OverheadSim = &sim
		r.OverheadWall = &wall
		a := sums[r.Config]
		if a == nil {
			a = &agg{}
			sums[r.Config] = a
		}
		a.sim += sim
		a.wall += wall
		a.n++
	}
	configs := make([]string, 0, len(sums))
	for c := range sums {
		configs = append(configs, c)
	}
	sort.Strings(configs)
	for _, c := range configs {
		a := sums[c]
		rep.Summary = append(rep.Summary, ConfigSummary{
			Config:           c,
			Runs:             a.n,
			MeanOverheadSim:  a.sim / float64(a.n),
			MeanOverheadWall: a.wall / float64(a.n),
		})
	}
}

// Format renders the report as the human-readable companion to the JSON.
func Format(rep *Report) string {
	var b []byte
	out := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	out("Benchmark matrix: %d runs (%d programs × configs), %d workers, %.1fs elapsed\n",
		len(rep.Runs), len(rep.Programs), rep.Workers,
		time.Duration(rep.ElapsedNanos).Seconds())
	out("%-11s %-22s %10s %12s %10s %9s %9s %-10s\n",
		"program", "config", "wall(ms)", "sim insts", "overhead", "chk-elim", "ml-hoist", "trap")
	for _, r := range rep.Runs {
		oh := "-"
		if r.OverheadSim != nil {
			oh = fmt.Sprintf("%.1f%%", 100**r.OverheadSim)
		}
		if r.Error != "" {
			oh = "ERROR"
		}
		trap := r.TrapCode
		if trap == "" {
			trap = "-"
		}
		// chk-elim is "local+global" checks the optimizer removed at
		// compile time; ml-hoist is loop-invariant metaloads hoisted.
		out("%-11s %-22s %10.2f %12d %10s %9s %9d %-10s\n",
			r.Program, r.Config, float64(r.WallNanos)/1e6, r.Stats.SimInsts, oh,
			fmt.Sprintf("%d+%d", r.Stats.Opt.ChecksRemovedLocal, r.Stats.Opt.ChecksRemovedGlobal),
			r.Stats.Opt.MetaLoadsHoisted, trap)
	}
	out("\nPer-config mean overhead vs baseline:\n")
	for _, s := range rep.Summary {
		out("%-22s sim %6.1f%%   wall %6.1f%%   (%d runs)\n",
			s.Config, 100*s.MeanOverheadSim, 100*s.MeanOverheadWall, s.Runs)
	}
	return string(b)
}
