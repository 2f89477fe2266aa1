// Package driver assembles the full pipeline: parse → typecheck → lower →
// optimize → (SoftBound) instrument per translation unit → link → cleanup
// optimize → execute. Instrumentation happens per unit, before linking,
// demonstrating the paper's separate-compilation property (§5.2): every
// unit is transformed with only its own code plus extern declarations.
package driver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"softbound/internal/core"
	"softbound/internal/cparser"
	"softbound/internal/ctypes"
	"softbound/internal/faults"
	"softbound/internal/ir"
	"softbound/internal/irgen"
	"softbound/internal/libc"
	"softbound/internal/meta"
	"softbound/internal/metrics"
	"softbound/internal/opt"
	"softbound/internal/sema"
	"softbound/internal/vm"
)

// Source is one C translation unit.
type Source struct {
	Name string
	Text string
}

// Mode is the end-to-end checking mode.
type Mode int

// Checking modes.
const (
	ModeNone Mode = iota
	ModeStoreOnly
	ModeFull
)

func (m Mode) String() string {
	return [...]string{"none", "store-only", "full"}[m]
}

// Config controls compilation and execution.
type Config struct {
	Mode     Mode
	Meta     meta.Kind
	Optimize bool
	// GlobalOpt enables the whole-function CFG passes in the
	// post-instrumentation cleanup: cross-block redundant-check
	// elimination, loop-invariant metadata-load hoisting, and dead
	// metadata-load removal. It has no effect with Optimize off.
	GlobalOpt bool
	// ShrinkBounds, ClearOnReturn mirror core.Options (both default on
	// via DefaultConfig).
	ShrinkBounds  bool
	ClearOnReturn bool
	// WithLibc links the C-subset libc (default on via DefaultConfig).
	WithLibc bool

	// Execution.
	Checker   vm.Checker
	Stdout    io.Writer
	StepLimit uint64
	HeapSize  uint64
	StackSize uint64
	Args      []string

	// Resource guards (ISSUE 3): zero values leave each guard off.
	// Timeout bounds wall-clock execution; when it fires the VM stops
	// with a deadline trap. ExecuteContext callers can pass their own
	// context instead (or in addition — whichever expires first wins).
	Timeout time.Duration
	// HeapLimit caps live heap bytes; exceeding it is an OOM trap. This
	// is distinct from HeapSize (segment size), whose exhaustion keeps C
	// semantics and returns NULL from malloc.
	HeapLimit uint64
	// MaxStackDepth caps call-frame depth (0 = vm.DefaultMaxStackDepth).
	MaxStackDepth int

	// Faults, when non-nil, injects this run's fault schedule: pointer
	// bit flips and forced OOM through the VM hooks, metadata drops and
	// corruption by wrapping the facility. One injector serves one run.
	Faults *faults.Injector

	// Interp selects the interpreter engine: the pre-decoded fast engine
	// (zero value) or the reference per-step switch. The differential
	// suite runs both and requires identical results; exposed so
	// harnesses and serve clients can do the same.
	Interp vm.InterpKind

	// RefInterp runs the reference interpreter.
	//
	// Deprecated: set Interp to vm.InterpRef instead. When set it wins
	// over Interp. It stays only because the sbperf stage replay
	// (internal/perf) reads it, and that package is frozen with the
	// benchmark it implements.
	RefInterp bool

	// MetaFacility, when non-nil, constructs the metadata facility
	// directly, overriding Meta. The facility's kind must agree with
	// Meta on Temporal, or the VM refuses to start.
	//
	// Deprecated: set Meta; every scheme is a meta.Kind. It stays only
	// because the sbperf harness (internal/perf) sets it, and that
	// package is frozen with the benchmark it implements.
	MetaFacility func() (meta.Facility, error)

	// MSCCModel applies the related-scheme cost model of §6.5: the same
	// full checking, but with MSCC's costlier linked-shadow metadata
	// lookups (14 instructions) and heavier check sequences (6).
	MSCCModel bool

	// CheckArith enables the arithmetic-time-check ablation (see
	// core.Options.CheckArith).
	CheckArith bool
}

// DefaultConfig returns the standard configuration for a mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:          mode,
		Meta:          meta.KindShadowSpace,
		Optimize:      true,
		GlobalOpt:     true,
		ShrinkBounds:  true,
		ClearOnReturn: true,
		WithLibc:      true,
	}
}

// Result is the outcome of executing a program.
type Result struct {
	ExitCode int64
	Stats    *metrics.Stats
	Output   string
	// Err is the execution error, if any (spatial violation, fault,
	// hijack-free crash...). A nil Err means clean termination.
	Err error
	// Hijacks lists successful control-flow attacks observed by the VM.
	Hijacks []vm.ControlHijack
	// Violation is Err narrowed to a SoftBound detection, if it is one.
	Violation *vm.SpatialViolation
	// TemporalHit is Err narrowed to a CETS lock-and-key detection (only
	// possible under the -cets metadata schemes).
	TemporalHit *vm.TemporalViolation
	// BaselineHit is Err narrowed to a baseline checker detection.
	BaselineHit *vm.BaselineViolation
	// Trap is Err's typed classification (nil on clean termination); its
	// Code is the machine-readable taxonomy surfaced in BENCH.json.
	Trap *vm.Trap
}

// TrapCode returns the machine-readable trap code, or "" if the run
// terminated cleanly.
func (r *Result) TrapCode() vm.TrapCode {
	if r.Trap == nil {
		return ""
	}
	return r.Trap.Code
}

// Detected reports whether SoftBound (or a baseline checker) flagged a
// spatial or temporal violation.
func (r *Result) Detected() bool {
	return r.Violation != nil || r.TemporalHit != nil || r.BaselineHit != nil
}

// CompileError is the typed failure of the compile pipeline: which stage
// rejected the input, on which translation unit, and the underlying
// cause. A Go panic anywhere in the frontend (tokenizer, parser, sema,
// irgen, optimizer, instrumentation, linker) is recovered at this
// boundary and surfaces as Stage "panic" with the captured stack — a
// hostile source becomes a structured error, never a dead process. The
// execution service maps any CompileError to HTTP 400.
type CompileError struct {
	// Stage is "parse", "typecheck", "lower", "link", or "panic".
	Stage string
	// Unit is the translation unit's name ("" when not unit-specific).
	Unit string
	// Err is the underlying cause.
	Err error
	// Stack is the goroutine stack at the point of a recovered panic
	// (nil for ordinary stage errors); fuzzing and service logs use it
	// to localize frontend bugs.
	Stack []byte
}

func (e *CompileError) Error() string {
	if e.Unit != "" {
		return e.Stage + " " + e.Unit + ": " + e.Err.Error()
	}
	return e.Stage + ": " + e.Err.Error()
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *CompileError) Unwrap() error { return e.Err }

// Compile builds, optimizes, instruments, and links the sources into one
// executable module.
func Compile(sources []Source, cfg Config) (*ir.Module, error) {
	mod, _, err := CompileWithStats(sources, cfg)
	return mod, err
}

// CompileWithStats is Compile plus the optimizer pass counters for the
// produced module (zero when cfg.Optimize is off). The benchmark harness
// surfaces these per program in BENCH.json.
//
// With cfg.WithLibc, the libc unit is not recompiled: it is built once
// per instrumentation configuration (see libcUnitFor) and its final
// functions are linked first, ahead of the user units. The returned
// module therefore shares libc's *ir.Func values with every other module
// compiled under the same configuration; they, like the rest of a
// compiled module, are read-only. Only the user units are front-ended,
// pre-optimized, instrumented and post-optimized here, and libc's
// counters are added to theirs.
//
// Every failure it returns is a *CompileError; a panicking frontend is
// recovered here (Stage "panic") so long-running callers survive inputs
// that crash the compiler.
func CompileWithStats(sources []Source, cfg Config) (mod *ir.Module, counters metrics.OptCounters, err error) {
	defer func() {
		if r := recover(); r != nil {
			mod = nil
			err = &CompileError{
				Stage: "panic",
				Err:   fmt.Errorf("compiler panic: %v", r),
				Stack: debug.Stack(),
			}
		}
	}()
	var lib *libcUnit
	var infos []*sema.Info
	if cfg.WithLibc {
		lib = libcUnitFor(cfg)
		if lib.err != nil {
			return nil, counters, lib.err
		}
		infos = append(infos, lib.info)
	}
	var mods []*ir.Module
	for _, u := range sources {
		info, mod, err := frontEnd(u, infos)
		if err != nil {
			return nil, counters, err
		}
		infos = append(infos, info)
		mods = append(mods, mod)
	}
	if lib != nil {
		counters = lib.counters
	}

	// Pre-instrumentation optimization (the paper applies SoftBound
	// post-optimization, §6.1). Block-local only: instrumentation has
	// not yet attached checks or metadata.
	if cfg.Optimize {
		for _, m := range mods {
			accumulateOpt(&counters, opt.Optimize(m))
		}
	}

	// Per-unit instrumentation with a size oracle standing in for the
	// extern declarations' types (separate compilation).
	if cfg.Mode != ModeNone {
		sizer := buildSizer(infos, mods)
		opts := coreOptions(cfg)
		for _, m := range mods {
			core.Transform(m, sizer, opts)
		}
	}

	// Link, libc first.
	linked := ir.NewModule("a.out")
	if lib != nil {
		if err := linked.Link(lib.mod); err != nil {
			return nil, counters, &CompileError{Stage: "link", Err: err}
		}
	}
	nlib := len(linked.Funcs)
	for _, m := range mods {
		if err := linked.Link(m); err != nil {
			return nil, counters, &CompileError{Stage: "link", Err: err}
		}
	}

	// Post-instrumentation cleanup (redundant checks, dead metadata);
	// GlobalOpt adds the whole-function CFG passes here. The passes work
	// one function at a time, so libc's functions, already in final
	// form, are skipped.
	if cfg.Optimize {
		accumulateOpt(&counters, opt.OptimizeFuncs(linked.Funcs[nlib:], opt.Options{Global: cfg.GlobalOpt}))
	}
	return linked, counters, nil
}

// frontEnd parses, typechecks (against the extern units' infos) and
// lowers one translation unit.
func frontEnd(u Source, externs []*sema.Info) (*sema.Info, *ir.Module, error) {
	unit, err := cparser.Parse(u.Name, u.Text)
	if err != nil {
		return nil, nil, &CompileError{Stage: "parse", Unit: u.Name, Err: err}
	}
	info, err := sema.Analyze(unit, externs...)
	if err != nil {
		return nil, nil, &CompileError{Stage: "typecheck", Unit: u.Name, Err: err}
	}
	mod, err := irgen.Generate(info)
	if err != nil {
		return nil, nil, &CompileError{Stage: "lower", Unit: u.Name, Err: err}
	}
	return info, mod, nil
}

// coreOptions is the instrumentation configuration cfg selects.
func coreOptions(cfg Config) core.Options {
	opts := core.DefaultOptions(coreMode(cfg.Mode))
	opts.ShrinkBounds = cfg.ShrinkBounds
	opts.ClearOnReturn = cfg.ClearOnReturn
	opts.CheckArith = cfg.CheckArith
	// Temporal lowering follows the metadata scheme: the -cets
	// facilities store (key, lock) words, so selecting one turns the
	// CETS instrumentation on; spatial-only schemes compile exactly as
	// before.
	opts.Temporal = cfg.Meta.Temporal()
	return opts
}

// libcKey is everything the pipeline reads when it compiles the libc
// unit: whether and how it is instrumented, and which optimizer passes
// run. Fields the pipeline ignores under a setting (the instrumentation
// options when instrumentation is off, GlobalOpt when Optimize is off)
// are left zero so equal builds share one entry.
type libcKey struct {
	instrument bool
	opts       core.Options
	optimize   bool
	globalOpt  bool
}

// libcUnit is the libc translation unit compiled to its final,
// post-optimized form under one libcKey. It is immutable once built:
// user units typecheck against info, and every linked module shares
// mod's functions read-only.
type libcUnit struct {
	once     sync.Once
	info     *sema.Info
	mod      *ir.Module
	counters metrics.OptCounters
	err      error
}

// libcUnits maps a libcKey to its *libcUnit. The key space is finite (a
// handful of booleans and two modes), so entries are never evicted.
var libcUnits sync.Map

// libcUnitFor returns the libc unit built for cfg's configuration,
// building it on first use.
//
// Building libc apart from the user units yields exactly the functions
// and counters a joint build would: libc has no globals and no string
// literals, so it neither contributes to nor reads the size oracle the
// user units are instrumented with, and every optimizer pass works one
// function at a time.
func libcUnitFor(cfg Config) *libcUnit {
	k := libcKey{optimize: cfg.Optimize, globalOpt: cfg.Optimize && cfg.GlobalOpt}
	if cfg.Mode != ModeNone {
		k.instrument = true
		k.opts = coreOptions(cfg)
	}
	v, _ := libcUnits.LoadOrStore(k, &libcUnit{})
	u := v.(*libcUnit)
	u.once.Do(func() { u.build(k) })
	return u
}

func (u *libcUnit) build(k libcKey) {
	defer func() {
		if r := recover(); r != nil {
			u.err = &CompileError{
				Stage: "panic",
				Unit:  "libc.c",
				Err:   fmt.Errorf("compiler panic: %v", r),
				Stack: debug.Stack(),
			}
		}
	}()
	info, mod, err := frontEnd(Source{Name: "libc.c", Text: libc.Unit()}, nil)
	if err != nil {
		u.err = err
		return
	}
	var counters metrics.OptCounters
	if k.optimize {
		accumulateOpt(&counters, opt.Optimize(mod))
	}
	if k.instrument {
		core.Transform(mod, nil, k.opts)
	}
	if k.optimize {
		accumulateOpt(&counters, opt.OptimizeWith(mod, opt.Options{Global: k.globalOpt}))
	}
	u.info, u.mod, u.counters = info, mod, counters
}

// accumulateOpt folds one opt.Result into the run's counters.
func accumulateOpt(c *metrics.OptCounters, r opt.Result) {
	c.FoldedConsts += uint64(r.FoldedConsts)
	c.RemovedInsts += uint64(r.RemovedInsts)
	c.ChecksRemovedLocal += uint64(r.RemovedChecks)
	c.ChecksRemovedGlobal += uint64(r.RemovedChecksGlobal)
	c.MetaLoadsMerged += uint64(r.MergedMetaLoads)
	c.MetaLoadsHoisted += uint64(r.HoistedMetaLoads)
	c.DeadMetaLoads += uint64(r.DeadMetaLoads)
}

func coreMode(m Mode) core.Mode {
	if m == ModeStoreOnly {
		return core.ModeStoreOnly
	}
	return core.ModeFull
}

func vmMode(m Mode) vm.CheckMode {
	switch m {
	case ModeStoreOnly:
		return vm.CheckStoreOnly
	case ModeFull:
		return vm.CheckFull
	}
	return vm.CheckNone
}

// buildSizer resolves global object sizes across all units, standing in
// for the sizes extern declarations provide in real separate compilation.
func buildSizer(infos []*sema.Info, mods []*ir.Module) core.GlobalSizer {
	sizes := make(map[string]int64)
	for _, m := range mods {
		for _, g := range m.Globals {
			sizes[g.Name] = g.Size
		}
	}
	for _, info := range infos {
		for _, g := range info.Globals {
			if _, ok := sizes[g.Name]; !ok && g.Type.Kind != ctypes.Func {
				sizes[g.Name] = g.Type.Size()
			}
		}
	}
	return func(name string) (int64, bool) {
		s, ok := sizes[name]
		return s, ok
	}
}

// Execute runs a compiled module under the configured VM, deriving a
// deadline from cfg.Timeout when set.
func Execute(mod *ir.Module, cfg Config) *Result {
	return ExecuteContext(context.Background(), mod, cfg)
}

// ExecuteContext is Execute under a caller-supplied context: the run stops
// with a deadline trap when ctx expires (or when cfg.Timeout elapses,
// whichever comes first).
func ExecuteContext(ctx context.Context, mod *ir.Module, cfg Config) *Result {
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	var buf bytes.Buffer
	out := cfg.Stdout
	if out == nil {
		out = &buf
	} else {
		out = io.MultiWriter(out, &buf)
	}
	var fac meta.Facility
	var err error
	if cfg.MetaFacility != nil {
		fac, err = cfg.MetaFacility()
	} else {
		fac, err = meta.New(cfg.Meta)
	}
	if err != nil {
		return &Result{Err: err, Stats: &metrics.Stats{}}
	}
	var checkCost uint64
	if cfg.MSCCModel {
		fac = meta.Costed(fac, meta.Costs{Lookup: 14, Update: 14})
		checkCost = 6
	}
	vmCfg := vm.Config{
		Mode:          vmMode(cfg.Mode),
		Meta:          fac,
		Temporal:      cfg.Meta.Temporal(),
		Checker:       cfg.Checker,
		Stdout:        out,
		StepLimit:     cfg.StepLimit,
		HeapSize:      cfg.HeapSize,
		StackSize:     cfg.StackSize,
		Args:          cfg.Args,
		CheckCost:     checkCost,
		HeapLimit:     cfg.HeapLimit,
		MaxStackDepth: cfg.MaxStackDepth,
	}
	vmCfg.Interp = cfg.Interp
	if cfg.RefInterp {
		vmCfg.Interp = vm.InterpRef
	}
	if inj := cfg.Faults; inj != nil {
		vmCfg.Meta = inj.WrapFacility(fac)
		vmCfg.PtrStoreFault = inj.PtrStoreMask
		vmCfg.AllocFault = inj.AllowAlloc
		// The injector's Lookup consumes scheduled metadata drop/corrupt
		// events; a lookaside hit would silently skip them, so the cache
		// stays off for fault-injected runs.
		vmCfg.DisableMetaCache = true
	}
	machine, err := vm.New(mod, vmCfg)
	if err != nil {
		return &Result{Err: err, Stats: &metrics.Stats{}}
	}
	code, runErr := machine.RunContext(ctx)
	res := &Result{
		ExitCode: code,
		Stats:    machine.Stats(),
		Output:   buf.String(),
		Err:      runErr,
		Hijacks:  machine.Hijacks,
	}
	var sv *vm.SpatialViolation
	if errors.As(runErr, &sv) {
		res.Violation = sv
	}
	var tv *vm.TemporalViolation
	if errors.As(runErr, &tv) {
		res.TemporalHit = tv
	}
	var bv *vm.BaselineViolation
	if errors.As(runErr, &bv) {
		res.BaselineHit = bv
	}
	var trap *vm.Trap
	if errors.As(runErr, &trap) {
		res.Trap = trap
	}
	return res
}

// Run compiles and executes in one step.
func Run(sources []Source, cfg Config) (*Result, error) {
	mod, counters, err := CompileWithStats(sources, cfg)
	if err != nil {
		return nil, err
	}
	res := Execute(mod, cfg)
	res.Stats.Opt = counters
	res.Stats.CheckElims = counters.ChecksRemoved()
	return res, nil
}

// RunSource is the single-file convenience used by tests and examples.
func RunSource(src string, cfg Config) (*Result, error) {
	return Run([]Source{{Name: "main.c", Text: src}}, cfg)
}
