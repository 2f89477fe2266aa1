package perf

import (
	"bytes"
	"context"
	"errors"
	"io"

	"softbound/internal/core"
	"softbound/internal/cparser"
	"softbound/internal/ctypes"
	"softbound/internal/driver"
	"softbound/internal/ir"
	"softbound/internal/irgen"
	"softbound/internal/libc"
	"softbound/internal/meta"
	"softbound/internal/metrics"
	"softbound/internal/opt"
	"softbound/internal/sema"
	"softbound/internal/vm"
)

// The traced run times each layer from outside by replaying the driver's
// two entry points through the layers' public functions, one span per
// stage. The replay must build the same program the driver builds and
// run it the same way; replay_test.go holds it byte-identical (module
// text) and bit-equal (exit, output, trap, statistics) to the driver, so
// a change to the driver's pipeline fails that test instead of letting
// the traced numbers quietly describe a different program.

// irCounts are instruction counts of the linked module before and after
// the post-instrumentation cleanup.
type irCounts struct {
	linked, final int
}

func countInsts(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Insts)
		}
	}
	return n
}

// compileTraced replays driver.CompileWithStats stage by stage.
func compileTraced(ot opTrace, sources []driver.Source, cfg driver.Config) (*ir.Module, metrics.OptCounters, irCounts, error) {
	var counters metrics.OptCounters
	var counts irCounts
	units := make([]driver.Source, 0, len(sources)+1)
	if cfg.WithLibc {
		units = append(units, driver.Source{Name: "libc.c", Text: libc.Unit()})
	}
	units = append(units, sources...)

	var infos []*sema.Info
	var mods []*ir.Module
	for _, u := range units {
		_, done := ot.span("cparser.parse", u.Name)
		unit, err := cparser.Parse(u.Name, u.Text)
		done()
		if err != nil {
			return nil, counters, counts, &driver.CompileError{Stage: "parse", Unit: u.Name, Err: err}
		}
		_, done = ot.span("sema.typecheck", u.Name)
		info, err := sema.Analyze(unit, infos...)
		done()
		if err != nil {
			return nil, counters, counts, &driver.CompileError{Stage: "typecheck", Unit: u.Name, Err: err}
		}
		_, done = ot.span("irgen.lower", u.Name)
		mod, err := irgen.Generate(info)
		done()
		if err != nil {
			return nil, counters, counts, &driver.CompileError{Stage: "lower", Unit: u.Name, Err: err}
		}
		infos = append(infos, info)
		mods = append(mods, mod)
	}

	if cfg.Optimize {
		for i, m := range mods {
			_, done := ot.span("opt.pre", units[i].Name)
			addOpt(&counters, opt.Optimize(m))
			done()
		}
	}

	if cfg.Mode != driver.ModeNone {
		sizer := globalSizer(infos, mods)
		opts := core.DefaultOptions(core.ModeFull)
		if cfg.Mode == driver.ModeStoreOnly {
			opts = core.DefaultOptions(core.ModeStoreOnly)
		}
		opts.ShrinkBounds = cfg.ShrinkBounds
		opts.ClearOnReturn = cfg.ClearOnReturn
		opts.CheckArith = cfg.CheckArith
		opts.Temporal = cfg.Meta.Temporal()
		for i, m := range mods {
			_, done := ot.span("core.instrument", units[i].Name)
			core.Transform(m, sizer, opts)
			done()
		}
	}

	_, done := ot.span("ir.link", "")
	linked := ir.NewModule("a.out")
	for _, m := range mods {
		if err := linked.Link(m); err != nil {
			done()
			return nil, counters, counts, &driver.CompileError{Stage: "link", Err: err}
		}
	}
	done()
	counts.linked = countInsts(linked)

	if cfg.Optimize {
		_, done := ot.span("opt.post", "")
		addOpt(&counters, opt.OptimizeWith(linked, opt.Options{Global: cfg.GlobalOpt}))
		done()
	}
	counts.final = countInsts(linked)
	return linked, counters, counts, nil
}

// addOpt folds one optimizer result into the compile's counters, as the
// driver does.
func addOpt(c *metrics.OptCounters, r opt.Result) {
	c.FoldedConsts += uint64(r.FoldedConsts)
	c.RemovedInsts += uint64(r.RemovedInsts)
	c.ChecksRemovedLocal += uint64(r.RemovedChecks)
	c.ChecksRemovedGlobal += uint64(r.RemovedChecksGlobal)
	c.MetaLoadsMerged += uint64(r.MergedMetaLoads)
	c.MetaLoadsHoisted += uint64(r.HoistedMetaLoads)
	c.DeadMetaLoads += uint64(r.DeadMetaLoads)
}

// globalSizer resolves global object sizes across all units, standing in
// for the sizes extern declarations provide under separate compilation.
func globalSizer(infos []*sema.Info, mods []*ir.Module) core.GlobalSizer {
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

// newFacility builds the run's metadata facility as the driver does.
func newFacility(cfg driver.Config) (meta.Facility, error) {
	if cfg.MetaFacility != nil {
		return cfg.MetaFacility()
	}
	return meta.New(cfg.Meta)
}

// vmConfig is the VM configuration driver.ExecuteContext derives from a
// driver configuration (fault injection and the MSCC cost model, which
// the benchmark never selects, left out).
func vmConfig(cfg driver.Config, fac meta.Facility, out io.Writer) vm.Config {
	mode := vm.CheckNone
	switch cfg.Mode {
	case driver.ModeStoreOnly:
		mode = vm.CheckStoreOnly
	case driver.ModeFull:
		mode = vm.CheckFull
	}
	vc := vm.Config{
		Mode:          mode,
		Meta:          fac,
		Temporal:      cfg.Meta.Temporal(),
		Checker:       cfg.Checker,
		Stdout:        out,
		StepLimit:     cfg.StepLimit,
		HeapSize:      cfg.HeapSize,
		StackSize:     cfg.StackSize,
		Args:          cfg.Args,
		HeapLimit:     cfg.HeapLimit,
		MaxStackDepth: cfg.MaxStackDepth,
		Interp:        cfg.Interp,
	}
	if cfg.RefInterp {
		vc.Interp = vm.InterpRef
	}
	return vc
}

// executeTraced replays driver.ExecuteContext as facility construction,
// vm.New and RunContext. The module is freshly compiled wherever the
// benchmark calls this, so its vm.New is the module's first: it pays the
// decode (and compiled-tier) work that later VMs of the module reuse.
func executeTraced(ctx context.Context, ot opTrace, mod *ir.Module, cfg driver.Config) *driver.Result {
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	var buf bytes.Buffer
	_, done := ot.span("meta.new", "")
	fac, err := newFacility(cfg)
	done()
	if err != nil {
		return &driver.Result{Err: err, Stats: &metrics.Stats{}}
	}
	_, done = ot.span("vm.new_cold", "")
	machine, err := vm.New(mod, vmConfig(cfg, fac, &buf))
	done()
	if err != nil {
		return &driver.Result{Err: err, Stats: &metrics.Stats{}}
	}
	_, done = ot.span("vm.run", "")
	code, runErr := machine.RunContext(ctx)
	done()
	res := &driver.Result{
		ExitCode: code,
		Stats:    machine.Stats(),
		Output:   buf.String(),
		Err:      runErr,
		Hijacks:  machine.Hijacks,
	}
	errors.As(runErr, &res.Violation)
	errors.As(runErr, &res.TemporalHit)
	errors.As(runErr, &res.BaselineHit)
	errors.As(runErr, &res.Trap)
	return res
}

// warmProbes is how many operations of a traced window get a warm
// vm.New probe.
const warmProbes = 16

// probeWarmNew builds the module of an operation again and times its
// second vm.New: the per-request VM set-up a cached module pays
// (segments, globals, metadata seeding) without the decode work the
// first one did. It runs after the traced window, because its extra
// allocation would otherwise move garbage-collection work out of the
// operations being timed.
func probeWarmNew(ot opTrace, e *entry, c config) error {
	cfg := c.driverConfig()
	mod, _, err := driver.CompileWithStats([]driver.Source{{Name: "main.c", Text: e.src}}, cfg)
	if err != nil {
		return err
	}
	for _, timed := range []bool{false, true} {
		fac, err := newFacility(cfg)
		if err != nil {
			return err
		}
		done := func() {}
		if timed {
			_, done = ot.span("vm.new_warm", "")
		}
		_, err = vm.New(mod, vmConfig(cfg, fac, io.Discard)) // the probe only times construction
		done()
		if err != nil {
			return err
		}
	}
	return nil
}
