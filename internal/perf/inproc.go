package perf

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"softbound/internal/driver"
	"softbound/internal/progs"
)

// runOp compiles and executes one program under one configuration as a
// user of the driver does, then checks the answer outside the timed
// calls. With a tracer it replays both calls stage by stage instead, and
// records the layer counters.
func runOp(ctx context.Context, tr *tracer, k int, e *entry, c config) opStat {
	cfg := c.driverConfig()
	src := []driver.Source{{Name: "main.c", Text: e.src}}
	st := opStat{cell: e.name + "/" + c.name}
	var res *driver.Result
	if tr == nil {
		start := time.Now()
		mod, _, err := driver.CompileWithStats(src, cfg)
		st.compile = time.Since(start)
		if err != nil {
			st.err = fmt.Errorf("%s: %w", st.cell, err)
			st.latency = st.compile
			return st
		}
		start = time.Now()
		res = driver.ExecuteContext(ctx, mod, cfg)
		st.execute = time.Since(start)
	} else {
		ot, endOp := opTrace{tr: tr, op: int64(k), parent: -1}.span("op", "")
		defer endOp()
		cot, endCompile := ot.span("driver.compile", "")
		start := time.Now()
		mod, counters, counts, err := compileTraced(cot, src, cfg)
		st.compile = time.Since(start)
		endCompile()
		if err != nil {
			st.err = fmt.Errorf("%s: %w", st.cell, err)
			st.latency = st.compile
			return st
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eot, endExecute := ot.span("driver.execute", "")
		start = time.Now()
		res = executeTraced(ctx, eot, mod, cfg)
		st.execute = time.Since(start)
		endExecute()
		runtime.ReadMemStats(&after)

		st.counts = counts
		st.checksRm = counters.ChecksRemoved()
		st.hoisted = counters.MetaLoadsHoisted
		st.runAlloc = after.TotalAlloc - before.TotalAlloc
		st.insts = res.Stats.Insts
		st.metaLoads = res.Stats.MetaLoads
		st.lookHits = res.Stats.MetaCacheHits
		st.lookMisses = res.Stats.MetaCacheMisses
		st.metaBytes = res.Stats.MetaBytes
	}
	st.latency = st.compile + st.execute
	got := outcomeOf(res)
	st.err = e.check(c, got)
	st.sim = e.simRatio(c, got)
	return st
}

// figure2 runs the paper's 15 programs under the baseline and every
// scheme × mode (135 cells), one cell at a time, recompiling every cell
// on every pass; each pass visits the cells in a seeded order. Execution
// dominates, so this shows engine and metadata changes: the SPEC-style
// programs move few pointers, the Olden-style ones many. It bypasses
// serve entirely.
type figure2 struct {
	o       Options
	cfgs    []config
	entries []*entry
}

func (f *figure2) setup(ctx context.Context) error {
	f.cfgs = configs()
	var entries []*entry
	for _, b := range progs.All() {
		scale := 0
		if f.o.Smoke {
			scale = smallScale[b.Name]
		}
		entries = append(entries, progEntry(b, scale))
	}
	if err := runOracles(ctx, entries, clients()); err != nil {
		return err
	}
	f.entries = entries
	return nil
}

// measure runs passes until d has passed, always completing the first so
// that every cell is measured.
func (f *figure2) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	n := len(f.entries) * len(f.cfgs)
	win := &window{}
	start := time.Now()
	u0 := readUsage()
	k := 0
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for _, cell := range permutation(mix(f.o.Seed, uint64(pass)), n) {
			if pass > 0 && time.Since(start) >= d {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			before := readUsage()
			e, c := f.cell(cell)
			op := runOp(ctx, tr, k, e, c)
			used := readUsage().sub(before)
			op.cpu, op.alloc = used.cpu, used.alloc
			win.ops = append(win.ops, op)
			k++
		}
	}
	win.use = readUsage().sub(u0)
	win.lat = latencies(win.ops)
	if tr != nil {
		for i, cell := range permutation(mix(f.o.Seed, 0), n)[:warmProbes] {
			e, c := f.cell(cell)
			if err := probeWarmNew(opTrace{tr: tr, op: int64(i), parent: -1}, e, c); err != nil {
				return nil, err
			}
		}
	}
	return win, nil
}

// cell is one program under one configuration.
func (f *figure2) cell(i int) (*entry, config) {
	return f.entries[i/len(f.cfgs)], f.cfgs[i%len(f.cfgs)]
}

// endToEnd reduces each cell to its median over the passes, so a partly
// finished last pass does not tilt the mix: times are geometric means
// over cells, per-operation costs are means over cells (one average
// pass), and throughput is cells per second of that average pass.
func (f *figure2) endToEnd(w *window) (map[string]float64, map[string]string) {
	cells := perCell(w.ops)
	var exec, comp, sims, lat, cpu, alloc []float64
	for _, ops := range cells {
		exec = append(exec, medianOf(ops, func(o opStat) float64 { return ms(o.execute) }))
		comp = append(comp, medianOf(ops, func(o opStat) float64 { return ms(o.compile) }))
		lat = append(lat, medianOf(ops, func(o opStat) float64 { return ms(o.latency) }))
		cpu = append(cpu, medianOf(ops, func(o opStat) float64 { return ms(o.cpu) }))
		alloc = append(alloc, medianOf(ops, func(o opStat) float64 { return float64(o.alloc) / 1e6 }))
		if s := medianOf(ops, func(o opStat) float64 { return o.sim }); s > 0 {
			sims = append(sims, s)
		}
	}
	values := map[string]float64{
		"exec_geomean_ms":      geomean(exec),
		"compile_geomean_ms":   geomean(comp),
		"sim_overhead_geomean": geomean(sims),
		"throughput_ops_s":     1e3 / mean(lat),
		"cpu_ms_per_op":        mean(cpu),
		"alloc_mb_per_op":      mean(alloc),
	}
	notes := map[string]string{
		"exec_geomean_ms":      fmt.Sprintf("%d cells, %d runs", len(cells), len(w.ops)),
		"sim_overhead_geomean": fmt.Sprintf("%d checked cells", len(sims)),
		"throughput_ops_s":     "cells per second of a pass at each cell's median time, one at a time",
	}
	addLatency(values, notes, w.lat, "cell runs")
	return values, notes
}

func (f *figure2) perLayer(w *window, spans []Span) map[string]float64 {
	return inProcessLayers(w, spans)
}

func (f *figure2) close() {}

// perCell groups operations by cell, in first-seen order.
func perCell(ops []opStat) [][]opStat {
	idx := map[string]int{}
	var out [][]opStat
	for _, op := range ops {
		i, ok := idx[op.cell]
		if !ok {
			i = len(out)
			idx[op.cell] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], op)
	}
	return out
}

func medianOf(ops []opStat, f func(opStat) float64) float64 {
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = f(op)
	}
	return median(xs)
}

// oneshot compiles and executes seeded generated programs once each,
// drawn from a pool of 256 (three clean to one planted) under a rotating
// configuration, from a closed loop of one client per CPU. A run takes
// about 0.1 ms of a ~17 ms operation, so this shows per-request fixed
// cost (libc recompiled on every compile, VM segments and metadata
// tables built on every run) and should not move with engine speedups.
type oneshot struct {
	o    Options
	cfgs []config
	pool []*entry
}

func (g *oneshot) setup(ctx context.Context) error {
	g.cfgs = configs()
	n := poolSize
	if g.o.Smoke {
		n = smokePoolSize
	}
	pool := newPool(g.o.Seed, n)
	if err := runOracles(ctx, pool, clients()); err != nil {
		return err
	}
	g.pool = pool
	return nil
}

// op is the k-th operation of the seeded stream.
func (g *oneshot) op(k int) (*entry, config) {
	return g.pool[mix(^g.o.Seed, uint64(k))%uint64(len(g.pool))], g.cfgs[k%len(g.cfgs)]
}

// measure runs the closed loop for d. A traced run uses one client, so
// the process-wide allocation counter read around each execute belongs
// to that execute alone; its untraced parts do the same, to stay
// comparable.
func (g *oneshot) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	n := clients()
	if g.o.Trace {
		n = 1
	}
	u0 := readUsage()
	samples, span := closedLoop(ctx, d, n, 0, func(k int) opStat {
		e, c := g.op(k)
		return runOp(ctx, tr, k, e, c)
	})
	win := &window{use: readUsage().sub(u0), span: span}
	for _, s := range samples {
		win.ops = append(win.ops, s.r)
		if s.r.err == nil {
			win.done++
		}
	}
	win.lat = latencies(win.ops)
	if tr != nil {
		for k := 0; k < warmProbes; k++ {
			e, c := g.op(k)
			if err := probeWarmNew(opTrace{tr: tr, op: int64(k), parent: -1}, e, c); err != nil {
				return nil, err
			}
		}
	}
	return win, ctx.Err()
}

func (g *oneshot) endToEnd(w *window) (map[string]float64, map[string]string) {
	var exec, comp, sims []float64
	for _, op := range w.ops {
		comp = append(comp, ms(op.compile))
		if op.execute > 0 {
			exec = append(exec, ms(op.execute))
		}
		if op.sim > 0 {
			sims = append(sims, op.sim)
		}
	}
	n := float64(len(w.ops))
	values := map[string]float64{
		"exec_geomean_ms":      geomean(exec),
		"compile_geomean_ms":   geomean(comp),
		"sim_overhead_geomean": geomean(sims),
		"throughput_ops_s":     float64(w.done) / w.span.Seconds(),
		"cpu_ms_per_op":        ms(w.use.cpu) / n,
		"alloc_mb_per_op":      float64(w.use.alloc) / 1e6 / n,
	}
	notes := map[string]string{
		"throughput_ops_s":     fmt.Sprintf("closed loop, %d clients, %d operations", clients(), len(w.ops)),
		"sim_overhead_geomean": fmt.Sprintf("%d checked runs of clean programs", len(sims)),
	}
	addLatency(values, notes, w.lat, "operations")
	return values, notes
}

func (g *oneshot) perLayer(w *window, spans []Span) map[string]float64 {
	return inProcessLayers(w, spans)
}

func (g *oneshot) close() {}

// inProcessLayers computes the per-layer metrics of a traced in-process
// window: mean self time per operation of each stage span, and the
// means of the layer counters.
func inProcessLayers(w *window, spans []Span) map[string]float64 {
	values := zeroLayers()
	self := selfTimes(spans)
	total := map[string]int64{}
	var libcNs, unitNs int64
	probes := 0
	for i, s := range spans {
		total[s.Name] += self[i]
		if s.Name == "vm.new_warm" {
			probes++
		}
		if s.Unit != "" {
			unitNs += self[i]
			if s.Unit == "libc.c" {
				libcNs += self[i]
			}
		}
	}
	n := float64(len(w.ops))
	if n == 0 {
		return values
	}
	for _, name := range []string{
		"cparser.parse", "sema.typecheck", "irgen.lower", "opt.pre", "core.instrument",
		"ir.link", "opt.post", "driver.compile", "meta.new", "vm.new_cold", "vm.run", "driver.execute",
	} {
		values[name+"_ms"] = float64(total[name]) / n / 1e6
	}
	if probes > 0 {
		values["vm.new_warm_ms"] = float64(total["vm.new_warm"]) / float64(probes) / 1e6
	}
	if unitNs > 0 {
		values["libc.frontend_share"] = float64(libcNs) / float64(unitNs)
	}
	var linked, final, checksRm, hoisted, insts, loads, hits, misses, runAlloc float64
	var metaBytes float64
	for _, op := range w.ops {
		linked += float64(op.counts.linked)
		final += float64(op.counts.final)
		checksRm += float64(op.checksRm)
		hoisted += float64(op.hoisted)
		insts += float64(op.insts)
		loads += float64(op.metaLoads)
		hits += float64(op.lookHits)
		misses += float64(op.lookMisses)
		metaBytes += float64(op.metaBytes)
		runAlloc += float64(op.runAlloc)
	}
	values["ir.insts_linked"] = linked / n
	values["ir.insts_final"] = final / n
	values["opt.checks_removed"] = checksRm / n
	values["opt.metaloads_hoisted"] = hoisted / n
	values["vm.alloc_mb_per_run"] = runAlloc / 1e6 / n
	if insts > 0 {
		values["vm.ns_per_inst"] = float64(total["vm.run"]) / insts
	}
	values["vm.insts"] = insts / n
	values["meta.lookups"] = loads / n
	if hits+misses > 0 {
		values["meta.lookaside_hit_ratio"] = hits / (hits + misses)
	}
	values["meta.table_bytes"] = metaBytes / n
	values["runtime.gc_cycles_per_op"] = float64(w.use.gcs) / n
	return values
}

// zeroLayers returns every per-layer metric at 0, the value of a layer
// the workload cannot observe.
func zeroLayers() map[string]float64 {
	values := make(map[string]float64, len(PerLayer))
	for _, m := range PerLayer {
		values[m.Name] = 0
	}
	return values
}
