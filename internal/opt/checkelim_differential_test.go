package opt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"softbound/internal/attacks"
	"softbound/internal/bugbench"
	"softbound/internal/core"
	"softbound/internal/cparser"
	"softbound/internal/ctypes"
	"softbound/internal/gen"
	"softbound/internal/ir"
	"softbound/internal/irgen"
	"softbound/internal/libc"
	"softbound/internal/progs"
	"softbound/internal/sema"
)

// The bitset check-elimination passes are held to the map-keyed model
// (model_test.go) over three inputs: the package's differential corpus,
// every user function of the compile corpus under every configuration,
// and random control-flow graphs. At every step both passes must keep
// exactly the model's instructions, and the optimizer's round loop must
// print the same functions and report the same Result as the same loop
// run with the model.

// requireModelAgreement runs the local (or, with global, the global)
// check-elimination pass and its model on copies of f and fails unless
// both remove the same number of checks and keep the same instructions
// in the same order. f itself is left untouched.
func requireModelAgreement(t testing.TB, where string, f *ir.Func, global bool) int {
	t.Helper()
	got, want := tagged(f), tagged(f)
	var n, m int
	if global {
		n, m = EliminateRedundantChecksGlobal(got), modelEliminateChecksGlobal(want)
	} else {
		n, m = EliminateRedundantChecks(got), modelEliminateChecks(want)
	}
	if n != m {
		t.Fatalf("%s (global=%v): removed %d checks, model %d\n%s", where, global, n, m, f)
	}
	for b, blk := range want.Blocks {
		g, w := got.Blocks[b].Insts, blk.Insts
		if len(g) != len(w) {
			t.Fatalf("%s (global=%v): block %d keeps %d instructions, model %d\n%s",
				where, global, b, len(g), len(w), f)
		}
		for i := range w {
			if g[i].Align != w[i].Align {
				t.Fatalf("%s (global=%v): block %d position %d keeps instruction %d, model %d\n%s",
					where, global, b, i, g[i].Align, w[i].Align, f)
			}
		}
	}
	return n
}

// eliminateChecked runs the local (or, with global, the global) check
// pass on f after holding it to the model on a copy, so every hand-built
// check-elimination case is a differential case too.
func eliminateChecked(t *testing.T, f *ir.Func, global bool) int {
	t.Helper()
	requireModelAgreement(t, t.Name(), f, global)
	if global {
		return EliminateRedundantChecksGlobal(f)
	}
	return EliminateRedundantChecks(f)
}

// tagged returns a copy of f whose instructions carry their original
// position in Align, a KAlloca field no check pass reads.
func tagged(f *ir.Func) *ir.Func {
	c := cloneFunc(f)
	pos := int64(0)
	for _, blk := range c.Blocks {
		for i := range blk.Insts {
			blk.Insts[i].Align = pos
			pos++
		}
	}
	return c
}

// requireRoundsAgree optimizes copies of funcs with OptimizeFuncs and
// with its round loop rebuilt from the standalone passes, the two check
// passes replaced by their model and each held to it on the way. Both
// must print the same functions and report the same Result, which it
// returns.
func requireRoundsAgree(t testing.TB, where string, funcs []*ir.Func, o Options) Result {
	t.Helper()
	got := make([]*ir.Func, len(funcs))
	for i, f := range funcs {
		got[i] = cloneFunc(f)
	}
	gotRes := OptimizeFuncs(got, o)
	var want Result
	for i, f := range funcs {
		f = cloneFunc(f)
		for iter := 0; iter < 8; iter++ {
			r := Result{}
			r.FoldedConsts = ConstFold(f)
			requireModelAgreement(t, where, f, false)
			r.RemovedChecks = modelEliminateChecks(f)
			if o.Global {
				requireModelAgreement(t, where, f, true)
				r.RemovedChecksGlobal = modelEliminateChecksGlobal(f)
			}
			r.MergedMetaLoads = CSEMetaLoads(f)
			r.RemovedInsts, r.DeadMetaLoads = deadCodeElim(f, o.Global)
			want.add(r)
			if r == (Result{}) {
				break
			}
		}
		if g, w := got[i].String(), f.String(); g != w {
			t.Fatalf("%s: OptimizeFuncs prints\n%s\nmodel rounds print\n%s", where, g, w)
		}
	}
	if gotRes != want {
		t.Fatalf("%s: OptimizeFuncs reports %+v, model rounds %+v", where, gotRes, want)
	}
	return want
}

// requireBothRemove fails unless the local and the global pass each
// removed some check over an input family.
func requireBothRemove(t *testing.T, total Result) {
	t.Helper()
	if total.RemovedChecks == 0 || total.RemovedChecksGlobal == 0 {
		t.Fatalf("input removes %d checks locally and %d globally: the comparison is vacuous",
			total.RemovedChecks, total.RemovedChecksGlobal)
	}
}

// Input 1: the seeded modules of TestDifferentialOptIR and the package's
// hand-built loop with two invariant metaloads.
func TestDifferentialCheckElimRegressCorpus(t *testing.T) {
	var total Result
	for _, global := range []bool{false, true} {
		requireRoundsAgree(t, "two invariant metaloads", []*ir.Func{twoInvariantMetaLoadsFunc()}, Options{Global: global})
	}
	for seed := 0; seed < 120; seed++ {
		m := genModule(rand.New(rand.NewSource(int64(seed))))
		for _, global := range []bool{false, true} {
			total.add(requireRoundsAgree(t, fmt.Sprintf("seed %d", seed), m.Funcs, Options{Global: global}))
		}
	}
	requireBothRemove(t, total)
}

// Input 2: every user function of the compile corpus, as the pipeline
// hands it to post-instrumentation optimization, under every
// configuration. A configuration without pre-optimization hands its raw
// instrumented functions to the rounds instead, a harder input.
func TestDifferentialCheckElimCompileCorpus(t *testing.T) {
	cfgs := pipelineConfigs()
	for _, p := range compileCorpus() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range cfgs {
				funcs, err := pipelineFuncs(p.src, c)
				if err != nil {
					if c.libc {
						t.Fatalf("%s: %v", c.name, err)
					}
					continue // programs calling libc do not typecheck without it
				}
				requireRoundsAgree(t, p.name+" "+c.name, funcs, Options{Global: c.global})
			}
		})
	}
}

// Input 3: random control-flow graphs.
func TestDifferentialCheckElimRandomCFG(t *testing.T) {
	seeds := 1500
	if testing.Short() {
		seeds = 300
	}
	var total Result
	for seed := 0; seed < seeds; seed++ {
		f := randomCheckFunc(rand.New(rand.NewSource(int64(seed))))
		for _, global := range []bool{false, true} {
			total.add(requireRoundsAgree(t, fmt.Sprintf("seed %d", seed), []*ir.Func{f}, Options{Global: global}))
		}
	}
	requireBothRemove(t, total)
}

// randomCheckFunc builds a function over a random CFG: blocks branch to
// random blocks, so loops, self loops, irreducible regions and
// unreachable blocks all arise. Each block draws checks from a small
// pool, spatial and temporal, so repeats are common, and mixes in
// redefinitions of their registers, metadata loads, calls and setjmp
// calls. It is never executed.
func randomCheckFunc(rng *rand.Rand) *ir.Func {
	const regs = 8
	f := &ir.Func{Name: "r"}
	for i := 0; i < regs; i++ {
		f.NewReg(ir.ClassInt)
	}
	nblocks := 1 + rng.Intn(10)
	for b := 0; b < nblocks; b++ {
		f.NewBlock(fmt.Sprintf("b%d", b))
	}
	reg := func() ir.Reg { return ir.Reg(rng.Intn(regs)) }
	val := func() ir.Value {
		if rng.Intn(4) == 0 {
			return ir.GV("g", 8*rng.Int63n(3))
		}
		return ir.R(reg())
	}
	dsts := func() [4]ir.Reg { return [4]ir.Reg{reg(), reg(), reg(), reg()} }
	pool := make([]ir.Inst, 2+rng.Intn(4))
	for i := range pool {
		c := ir.Inst{Kind: ir.KCheck, A: val(), Meta: [4]ir.Value{val(), val()},
			AccessSize: 4 << rng.Intn(2), CheckK: ir.CheckKind(rng.Intn(2))}
		if rng.Intn(3) == 0 {
			c.TMeta, c.Meta[2], c.Meta[3] = true, val(), val()
		}
		pool[i] = c
	}
	for _, blk := range f.Blocks {
		for i, n := 0, rng.Intn(9); i < n; i++ {
			var in ir.Inst
			switch rng.Intn(16) {
			case 0, 1, 2, 3, 4, 5, 6, 7:
				in = pool[rng.Intn(len(pool))]
			case 8, 9:
				in = ir.Inst{Kind: ir.KBin, Dst: reg(), Op: ir.OpAdd, A: val(), B: ir.CI(1)}
			case 10:
				in = ir.Inst{Kind: ir.KMov, Dst: reg(), A: val()}
			case 11:
				in = ir.Inst{Kind: ir.KMetaLoad, A: val(), MetaDst: dsts(), TMeta: rng.Intn(2) == 0}
			case 12, 13:
				in = ir.Inst{Kind: ir.KCall, Dst: ir.NoReg, Callee: ir.FV("ext"),
					Args: []ir.Value{val()}, TMeta: rng.Intn(2) == 0}
				if rng.Intn(2) == 0 {
					in.Dst, in.RetMetaValid, in.MetaDst = reg(), true, dsts()
				}
			case 14:
				in = ir.Inst{Kind: ir.KCall, Dst: reg(), Callee: ir.FV([]string{"setjmp", "_setjmp"}[rng.Intn(2)])}
			default:
				in = ir.Inst{Kind: ir.KMetaStore, A: val(), Meta: [4]ir.Value{val(), val()}}
			}
			blk.Insts = append(blk.Insts, in)
		}
		var term ir.Inst
		switch rng.Intn(4) {
		case 0:
			term = ir.Inst{Kind: ir.KRet}
		case 1:
			term = ir.Inst{Kind: ir.KBr, Target: rng.Intn(nblocks)}
		default:
			// A constant condition folds to a branch in the first round.
			cond := ir.R(reg())
			if rng.Intn(4) == 0 {
				cond = ir.CI(rng.Int63n(2))
			}
			term = ir.Inst{Kind: ir.KCondBr, A: cond, Target: rng.Intn(nblocks), Else: rng.Intn(nblocks)}
		}
		blk.Insts = append(blk.Insts, term)
	}
	return f
}

// pipelineConfig is a compile configuration as the optimizer sees it:
// the driver's configuration matrix, with the metadata scheme reduced to
// whether it is temporal.
type pipelineConfig struct {
	name       string
	instrument bool
	opts       core.Options
	optimize   bool // pre-instrumentation optimization
	global     bool
	libc       bool
}

// pipelineConfigs is the baseline, 4 metadata schemes × 2 checking
// modes, and each compile option flipped from its default.
func pipelineConfigs() []pipelineConfig {
	def := func(name string, mode core.Mode, edit func(*pipelineConfig)) pipelineConfig {
		c := pipelineConfig{name: name, instrument: true, opts: core.DefaultOptions(mode),
			optimize: true, global: true, libc: true}
		edit(&c)
		return c
	}
	cfgs := []pipelineConfig{def("baseline", core.ModeFull, func(c *pipelineConfig) { c.instrument = false })}
	for _, mode := range []struct {
		name string
		mode core.Mode
	}{{"store-only", core.ModeStoreOnly}, {"full", core.ModeFull}} {
		for _, scheme := range []struct {
			name     string
			temporal bool
		}{{"shadowspace", false}, {"hashtable", false}, {"shadow-cets", true}, {"hashtable-cets", true}} {
			cfgs = append(cfgs, def(mode.name+"/"+scheme.name, mode.mode,
				func(c *pipelineConfig) { c.opts.Temporal = scheme.temporal }))
		}
	}
	return append(cfgs,
		def("no-shrink", core.ModeFull, func(c *pipelineConfig) { c.opts.ShrinkBounds = false }),
		def("no-clear", core.ModeFull, func(c *pipelineConfig) { c.opts.ClearOnReturn = false }),
		def("no-opt", core.ModeFull, func(c *pipelineConfig) { c.optimize = false }),
		def("no-global-opt", core.ModeFull, func(c *pipelineConfig) { c.global = false }),
		def("check-arith", core.ModeFull, func(c *pipelineConfig) { c.opts.CheckArith = true }),
		def("no-libc", core.ModeFull, func(c *pipelineConfig) { c.libc = false }),
	)
}

// libcInfo is the typechecked libc unit user units are checked against.
var libcInfo = sync.OnceValues(func() (*sema.Info, error) {
	unit, err := cparser.Parse("libc.c", libc.Unit())
	if err != nil {
		return nil, err
	}
	return sema.Analyze(unit)
})

// pipelineFuncs front-ends src, pre-optimizes and instruments it under
// c, and returns its functions as the pipeline hands them to
// post-instrumentation optimization.
func pipelineFuncs(src string, c pipelineConfig) ([]*ir.Func, error) {
	var infos []*sema.Info
	if c.libc {
		info, err := libcInfo()
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	unit, err := cparser.Parse("main.c", src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Analyze(unit, infos...)
	if err != nil {
		return nil, err
	}
	mod, err := irgen.Generate(info)
	if err != nil {
		return nil, err
	}
	if c.optimize {
		Optimize(mod)
	}
	if c.instrument {
		core.Transform(mod, globalSizes(append(infos, info), mod), c.opts)
	}
	return mod.Funcs, nil
}

// globalSizes resolves global object sizes across the units, as the
// driver's size oracle does.
func globalSizes(infos []*sema.Info, mod *ir.Module) core.GlobalSizer {
	sizes := make(map[string]int64)
	for _, g := range mod.Globals {
		sizes[g.Name] = g.Size
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

type namedSource struct{ name, src string }

// compileCorpus is every program family the repository ships: the paper
// benchmarks at small scale, the Wilander attacks with metadata
// laundering, the dangling suite, BugBench, and 64 seeded generated
// cells, alternately clean and planted.
func compileCorpus() []namedSource {
	scale := map[string]int{
		"go": 8, "lbm": 4, "hmmer": 8, "compress": 4, "ijpeg": 3,
		"bh": 16, "tsp": 6, "libquantum": 2, "perimeter": 4, "health": 10,
		"bisort": 6, "mst": 24, "li": 4, "em3d": 40, "treeadd": 8,
	}
	var out []namedSource
	for _, b := range progs.All() {
		out = append(out, namedSource{"progs/" + b.Name, b.Source(scale[b.Name])})
	}
	for _, a := range append(attacks.Suite(), attacks.MetadataLaundering()) {
		out = append(out, namedSource{"attack/" + a.Name, a.Source})
	}
	for _, a := range attacks.DanglingSuite() {
		out = append(out, namedSource{"dangling/" + a.Name, a.Source})
	}
	for _, p := range bugbench.Suite() {
		out = append(out, namedSource{"bugbench/" + p.Name, p.Source})
	}
	for seed := uint64(1); seed <= 64; seed++ {
		p := gen.Generate(seed)
		src, name := p.Source(), fmt.Sprintf("gen/%d", seed)
		if plants := p.Plants(); seed%2 == 0 && len(plants) > 0 {
			src = p.PlantedSource(plants[int(seed/2)%len(plants)])
			name += "-planted"
		}
		out = append(out, namedSource{name, src})
	}
	return out
}

// maxGlobalCheckAllocsPerFunc bounds the allocations of the global check
// pass per function, run as OptimizeFuncs runs it: CFG built, scratch
// warm. What remains is the interning map's growth, 2–3 per function of
// gen cell 1. Map-keyed sets cloned at each fixpoint visit cost about 45.
const maxGlobalCheckAllocsPerFunc = 4

func TestCheckElimGlobalAllocationBound(t *testing.T) {
	var full pipelineConfig
	for _, c := range pipelineConfigs() {
		if c.name == "full/shadowspace" {
			full = c
		}
	}
	funcs, err := pipelineFuncs(gen.Generate(1).Source(), full)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls its function runs+1 times; each call gets fresh
	// copies, since the pass edits the functions it runs on.
	const runs = 10
	type input struct {
		f   *ir.Func
		cfg *ir.CFG
	}
	inputs := make([][]input, runs+1)
	for i := range inputs {
		for _, f := range funcs {
			f = cloneFunc(f)
			inputs[i] = append(inputs[i], input{f, ir.BuildCFG(f)})
		}
	}
	var cs checkSets
	run := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, in := range inputs[run] {
			cs.intern(in.f)
			cs.eliminateGlobal(in.f, in.cfg)
		}
		run++
	})
	if bound := float64(maxGlobalCheckAllocsPerFunc * len(funcs)); allocs > bound {
		t.Fatalf("global check pass over gen cell 1's %d functions allocates %v times, bound %v",
			len(funcs), allocs, bound)
	}
}
