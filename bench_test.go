package softbound

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§6), per-benchmark Figure 2 series, metadata
// facility micro-benchmarks, and ablation benchmarks for the design
// decisions DESIGN.md calls out.
//
// Figures report their headline quantities through b.ReportMetric:
// overhead% (relative simulated-instruction overhead vs the
// uninstrumented baseline — the Figure 2 y-axis) and ptrmem% (the
// Figure 1 y-axis).

import (
	"fmt"
	"testing"

	"softbound/internal/driver"
	"softbound/internal/experiments"
	"softbound/internal/ir"
	"softbound/internal/meta"
	"softbound/internal/progs"
	"softbound/internal/splay"
)

// benchScale keeps benchmark iterations fast while preserving each
// workload's memory-operation mix.
var benchScale = map[string]int{
	"go": 10, "lbm": 4, "hmmer": 8, "compress": 4, "ijpeg": 2,
	"bh": 24, "tsp": 7, "libquantum": 2, "perimeter": 5, "health": 16,
	"bisort": 8, "mst": 32, "li": 5, "em3d": 60, "treeadd": 10,
}

func mustCompile(b *testing.B, src string, cfg driver.Config) *ir.Module {
	b.Helper()
	mod, err := driver.Compile([]driver.Source{{Name: "bench.c", Text: src}}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return mod
}

func mustExecute(b *testing.B, mod *ir.Module, cfg driver.Config) *driver.Result {
	b.Helper()
	res := driver.Execute(mod, cfg)
	if res.Err != nil {
		b.Fatalf("run: %v", res.Err)
	}
	return res
}

// ------------------------------------------------------------- Figure 1

// BenchmarkFigure1 measures, for each of the 15 workloads, the fraction
// of memory operations that load or store a pointer (the Figure 1 bars),
// reported as the ptrmem% metric.
func BenchmarkFigure1(b *testing.B) {
	for _, bench := range progs.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			cfg := driver.DefaultConfig(driver.ModeNone)
			mod := mustCompile(b, bench.Source(benchScale[bench.Name]), cfg)
			var frac float64
			for i := 0; i < b.N; i++ {
				res := mustExecute(b, mod, cfg)
				frac = res.Stats.PtrMemFrac()
			}
			b.ReportMetric(100*frac, "ptrmem%")
		})
	}
}

// ------------------------------------------------------------- Figure 2

// BenchmarkFigure2 regenerates the Figure 2 series: for every benchmark
// and each of the four instrumentation configurations, the overhead%
// metric is the simulated-instruction overhead over the uninstrumented
// baseline (the figure's y-axis).
func BenchmarkFigure2(b *testing.B) {
	for _, bench := range progs.All() {
		bench := bench
		src := bench.Source(benchScale[bench.Name])
		baseCfg := driver.DefaultConfig(driver.ModeNone)
		baseMod := mustCompile(b, src, baseCfg)
		base := mustExecute(b, baseMod, baseCfg)

		for _, cfg := range experiments.Figure2Configs() {
			cfg := cfg
			b.Run(bench.Name+"/"+cfg.Name, func(b *testing.B) {
				c := driver.DefaultConfig(cfg.Mode)
				c.Meta = cfg.Meta
				mod := mustCompile(b, src, c)
				var ovh float64
				for i := 0; i < b.N; i++ {
					res := mustExecute(b, mod, c)
					ovh = res.Stats.Overhead(base.Stats)
				}
				b.ReportMetric(100*ovh, "overhead%")
			})
		}
	}
}

// ---------------------------------------------------------------- Tables

// BenchmarkTable1 regenerates the qualitative scheme comparison.
func BenchmarkTable1(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.FormatTable1(experiments.Table1())
	}
	if len(s) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkTable3 runs the 18-attack Wilander suite through all three
// modes per iteration and asserts the paper's 18/18 detection result.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Succeeded || !r.DetectedFull || !r.DetectedStore {
				b.Fatalf("attack %s: succeeded=%v full=%v store=%v",
					r.Attack.Name, r.Succeeded, r.DetectedFull, r.DetectedStore)
			}
		}
	}
}

// BenchmarkTable4 runs the BugBench matrix per iteration and asserts the
// paper's detection pattern.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Valgrind != r.Program.Valgrind || r.Mudflap != r.Program.Mudflap ||
				r.Store != r.Program.StoreOnly || r.Full != r.Program.Full {
				b.Fatalf("%s: matrix mismatch", r.Program.Name)
			}
		}
	}
}

// ---------------------------------------------------- §6.4 / §6.5 extras

// BenchmarkCompat runs the two multi-module daemon case studies (§6.4)
// per iteration.
func BenchmarkCompat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Compat()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if !r.OutputsMatch {
				b.Fatalf("%s: outputs differ across modes", r.Daemon)
			}
		}
	}
}

// BenchmarkRelatedMSCC compares SoftBound with the MSCC-style cost model
// on the treeadd workload (§6.5 shape: MSCC overhead is uniformly higher).
func BenchmarkRelatedMSCC(b *testing.B) {
	bench, _ := progs.Get("treeadd")
	src := bench.Source(benchScale["treeadd"])
	baseCfg := driver.DefaultConfig(driver.ModeNone)
	base := mustExecute(b, mustCompile(b, src, baseCfg), baseCfg)

	b.Run("softbound", func(b *testing.B) {
		cfg := driver.DefaultConfig(driver.ModeFull)
		mod := mustCompile(b, src, cfg)
		var ovh float64
		for i := 0; i < b.N; i++ {
			ovh = mustExecute(b, mod, cfg).Stats.Overhead(base.Stats)
		}
		b.ReportMetric(100*ovh, "overhead%")
	})
	b.Run("mscc-model", func(b *testing.B) {
		cfg := driver.DefaultConfig(driver.ModeFull)
		cfg.Meta = meta.KindHashTable
		cfg.MSCCModel = true
		mod := mustCompile(b, src, cfg)
		var ovh float64
		for i := 0; i < b.N; i++ {
			ovh = mustExecute(b, mod, cfg).Stats.Overhead(base.Stats)
		}
		b.ReportMetric(100*ovh, "overhead%")
	})
}

// ------------------------------------------------------------- Ablations

// ablationOverhead measures the overhead of a configuration on treeadd
// (pointer-heavy, so metadata choices show) and ijpeg (scalar, so check
// placement shows).
func ablationOverhead(b *testing.B, name string, mutate func(*driver.Config)) {
	for _, bn := range []string{"treeadd", "ijpeg"} {
		bn := bn
		b.Run(name+"/"+bn, func(b *testing.B) {
			bench, _ := progs.Get(bn)
			src := bench.Source(benchScale[bn])
			baseCfg := driver.DefaultConfig(driver.ModeNone)
			base := mustExecute(b, mustCompile(b, src, baseCfg), baseCfg)
			cfg := driver.DefaultConfig(driver.ModeFull)
			mutate(&cfg)
			mod := mustCompile(b, src, cfg)
			var ovh float64
			for i := 0; i < b.N; i++ {
				ovh = mustExecute(b, mod, cfg).Stats.Overhead(base.Stats)
			}
			b.ReportMetric(100*ovh, "overhead%")
		})
	}
}

// BenchmarkAblationShrinkBounds compares full checking with and without
// sub-object bounds shrinking (design decision 5 in DESIGN.md).
func BenchmarkAblationShrinkBounds(b *testing.B) {
	ablationOverhead(b, "on", func(c *driver.Config) { c.ShrinkBounds = true })
	ablationOverhead(b, "off", func(c *driver.Config) { c.ShrinkBounds = false })
}

// BenchmarkAblationOptimizer compares instrumented execution with and
// without the post-pass cleanup optimizer (redundant-check elimination,
// metadata-load CSE, DCE — design decision 6).
func BenchmarkAblationOptimizer(b *testing.B) {
	ablationOverhead(b, "opt", func(c *driver.Config) { c.Optimize = true })
	ablationOverhead(b, "noopt", func(c *driver.Config) { c.Optimize = false })
}

// BenchmarkAblationClearOnReturn compares with and without epilogue
// metadata clearing (paper §5.2 stale-metadata hygiene).
func BenchmarkAblationClearOnReturn(b *testing.B) {
	ablationOverhead(b, "on", func(c *driver.Config) { c.ClearOnReturn = true })
	ablationOverhead(b, "off", func(c *driver.Config) { c.ClearOnReturn = false })
}

// BenchmarkAblationCheckAtArith quantifies the extra cost of checking at
// pointer-arithmetic time instead of dereference time (design decision 3;
// the correctness argument is TestCheckAtArithFalsePositive).
func BenchmarkAblationCheckAtArith(b *testing.B) {
	ablationOverhead(b, "deref-time", func(c *driver.Config) { c.CheckArith = false })
	ablationOverhead(b, "arith-time", func(c *driver.Config) { c.CheckArith = true })
}

// ----------------------------------------------------- micro-benchmarks

// BenchmarkMetaHashTable and BenchmarkMetaShadowSpace measure raw
// facility operation throughput (design decision 2). The hash table also
// reports probes/op, its probe steps per operation, which shows
// clustering independently of the wall clock.
func BenchmarkMetaHashTable(b *testing.B) {
	h := meta.MustHashTable(1<<16, false)
	benchFacility(b, h, &h.Probes)
}

// BenchmarkMetaShadowSpace measures the shadow-space facility.
func BenchmarkMetaShadowSpace(b *testing.B) {
	benchFacility(b, meta.NewShadowSpace(false), nil)
}

// benchFacility runs the update, lookup and copyrange sub-benchmarks on
// f; probes, when non-nil, is f's probe counter.
func benchFacility(b *testing.B, f meta.Facility, probes *uint64) {
	var start uint64
	startProbes := func() {
		if probes != nil {
			start = *probes
		}
	}
	reportProbes := func(b *testing.B) {
		if probes != nil {
			b.ReportMetric(float64(*probes-start)/float64(b.N), "probes/op")
		}
	}
	b.Run("update", func(b *testing.B) {
		startProbes()
		for i := 0; i < b.N; i++ {
			a := uint64(i%4096) * 8
			f.Update(a, meta.Entry{Base: a, Bound: a + 64})
		}
		reportProbes(b)
	})
	b.Run("lookup", func(b *testing.B) {
		for i := 0; i < 4096; i++ {
			a := uint64(i) * 8
			f.Update(a, meta.Entry{Base: a, Bound: a + 64})
		}
		b.ResetTimer()
		startProbes()
		var e meta.Entry
		for i := 0; i < b.N; i++ {
			e = f.Lookup(uint64(i%4096) * 8)
		}
		_ = e
		reportProbes(b)
	})
	b.Run("copyrange", func(b *testing.B) {
		startProbes()
		for i := 0; i < b.N; i++ {
			f.CopyRange(1<<20, 0, 512)
		}
		reportProbes(b)
	})
}

// BenchmarkSplayTree measures the object-table substrate the baselines
// use (and the paper blames for object-table overhead).
func BenchmarkSplayTree(b *testing.B) {
	b.Run("insert-find", func(b *testing.B) {
		t := splay.New()
		for i := 0; i < 4096; i++ {
			a := uint64(i) * 64
			t.Insert(splay.Range{Start: a, End: a + 48})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Find(uint64(i%4096)*64 + 16)
		}
	})
}

// BenchmarkPipeline measures the compiler itself: parse→check→lower→
// optimize→instrument→link for a representative workload.
func BenchmarkPipeline(b *testing.B) {
	bench, _ := progs.Get("li")
	src := bench.Source(2)
	for _, mode := range []driver.Mode{driver.ModeNone, driver.ModeFull} {
		mode := mode
		b.Run(fmt.Sprint(mode), func(b *testing.B) {
			cfg := driver.DefaultConfig(mode)
			for i := 0; i < b.N; i++ {
				if _, err := driver.Compile([]driver.Source{{Name: "li.c", Text: src}}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
