package vm

import (
	"errors"
	"strings"
	"testing"

	"softbound/internal/ir"
	"softbound/internal/meta"
	"softbound/internal/metrics"
)

// Engine differential tests: the fast (pre-decoded) engine must be
// observationally identical to the reference interpreter — exit code,
// trap classification, violation fields, and every modeled statistic.
// The driver-level suite holds this over compiled C programs; the tests
// here pin the tricky hand-built cases (fused superinstructions, step
// limits landing mid-fusion, metadata caching).

type engineResult struct {
	code  int64
	err   error
	stats metrics.Stats
}

func runEngine(t *testing.T, mod *ir.Module, cfg Config, kind InterpKind) engineResult {
	t.Helper()
	cfg.Interp = kind
	v, err := New(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, rerr := v.Run()
	st := *v.Stats()
	// The cache counters exist only under the fast engine; everything
	// else must match bit-for-bit.
	st.MetaCacheHits, st.MetaCacheMisses, st.MetaCacheSimInsts = 0, 0, 0
	return engineResult{code: code, err: rerr, stats: st}
}

// requireEngineAgreement runs the module on the fast and reference
// engines and holds the fast result to the reference one: exit code, trap
// classification, violation fields, and every modeled statistic.
func requireEngineAgreement(t *testing.T, mod *ir.Module, cfg Config) engineResult {
	t.Helper()
	ref := runEngine(t, mod, cfg, InterpRef)
	fast := runEngine(t, mod, cfg, InterpFast)
	if fast.code != ref.code {
		t.Fatalf("exit code: fast=%d ref=%d (fast err=%v, ref err=%v)",
			fast.code, ref.code, fast.err, ref.err)
	}
	if CodeOf(fast.err) != CodeOf(ref.err) {
		t.Fatalf("trap code: fast=%q (%v) ref=%q (%v)",
			CodeOf(fast.err), fast.err, CodeOf(ref.err), ref.err)
	}
	var fv, rv *SpatialViolation
	errors.As(fast.err, &fv)
	errors.As(ref.err, &rv)
	if (fv == nil) != (rv == nil) {
		t.Fatalf("violation presence: fast=%v ref=%v", fast.err, ref.err)
	}
	if fv != nil && *fv != *rv {
		t.Fatalf("violation fields:\n  fast: %+v\n  ref:  %+v", *fv, *rv)
	}
	if fast.stats != ref.stats {
		t.Fatalf("stats diverged:\n  fast: %+v\n  ref:  %+v", fast.stats, ref.stats)
	}
	return fast
}

// arithLoopModule sums i*3 over 1000 iterations with a mix of binary ops
// and both branch kinds.
func arithLoopModule() *ir.Module {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt) // i
	r1 := f.NewReg(ir.ClassInt) // sum
	r2 := f.NewReg(ir.ClassInt) // scratch
	r3 := f.NewReg(ir.ClassInt) // condition
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{
			{Kind: ir.KConst, Dst: r0, A: ir.CI(0)},
			{Kind: ir.KConst, Dst: r1, A: ir.CI(0)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCmp, Dst: r3, Pred: ir.PredLT, Signed: true, A: ir.R(r0), B: ir.CI(1000)},
			{Kind: ir.KCondBr, A: ir.R(r3), Target: 2, Else: 3},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KBin, Dst: r2, Op: ir.OpMul, A: ir.R(r0), B: ir.CI(3)},
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAdd, A: ir.R(r1), B: ir.R(r2)},
			{Kind: ir.KBin, Dst: r2, Op: ir.OpXor, A: ir.R(r1), B: ir.R(r0), IntWidth: 32},
			{Kind: ir.KBin, Dst: r2, Op: ir.OpAnd, A: ir.R(r2), B: ir.CI(0xFF), IntWidth: 32},
			{Kind: ir.KUn, Dst: r2, Op: ir.OpNot, A: ir.R(r2), IntWidth: 32},
			{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.CI(1)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAnd, A: ir.R(r1), B: ir.CI(0xFFFF)},
			{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
		}},
	}
	return buildModule(f)
}

// fusedAccessModule walks a 64-byte global with the exact
// GEP+Check+Load and GEP+Check+Store shapes the instrumentation emits.
// iters > 8 runs the fused check out of bounds.
func fusedAccessModule(iters int64) *ir.Module {
	g := &ir.Global{Name: "g", Size: 64, Align: 8}
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt) // i
	r1 := f.NewReg(ir.ClassInt) // sum
	r2 := f.NewReg(ir.ClassPtr) // p
	r3 := f.NewReg(ir.ClassInt) // v
	r4 := f.NewReg(ir.ClassInt) // condition
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{
			{Kind: ir.KConst, Dst: r0, A: ir.CI(0)},
			{Kind: ir.KConst, Dst: r1, A: ir.CI(0)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCmp, Dst: r4, Pred: ir.PredLT, Signed: true, A: ir.R(r0), B: ir.CI(iters)},
			{Kind: ir.KCondBr, A: ir.R(r4), Target: 2, Else: 3},
		}},
		{Insts: []ir.Inst{
			// Fused triple #1: load g[i].
			{Kind: ir.KGEP, Dst: r2, A: ir.GV("g", 0), B: ir.R(r0), Size: 8},
			{Kind: ir.KCheck, CheckK: ir.CheckLoad, A: ir.R(r2),
				Base: ir.GV("g", 0), Bound: ir.GV("g", 64), AccessSize: 8},
			{Kind: ir.KLoad, Dst: r3, A: ir.R(r2), Mem: ir.MemI64},
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAdd, A: ir.R(r1), B: ir.R(r3)},
			{Kind: ir.KBin, Dst: r3, Op: ir.OpAdd, A: ir.R(r3), B: ir.CI(5)},
			// Fused triple #2: store g[i] back.
			{Kind: ir.KGEP, Dst: r2, A: ir.GV("g", 0), B: ir.R(r0), Size: 8},
			{Kind: ir.KCheck, CheckK: ir.CheckStore, A: ir.R(r2),
				Base: ir.GV("g", 0), Bound: ir.GV("g", 64), AccessSize: 8},
			{Kind: ir.KStore, A: ir.R(r2), B: ir.R(r3), Mem: ir.MemI64},
			{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.CI(1)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
		}},
	}
	return buildModule(f, g)
}

func TestEngineAgreementArithLoop(t *testing.T) {
	res := requireEngineAgreement(t, arithLoopModule(), Config{})
	if res.err != nil {
		t.Fatalf("clean program errored: %v", res.err)
	}
	if want := int64((3 * 999 * 1000 / 2) & 0xFFFF); res.code != want {
		t.Fatalf("exit = %d, want %d", res.code, want)
	}
}

func TestEngineAgreementFusedAccess(t *testing.T) {
	res := requireEngineAgreement(t, fusedAccessModule(8), Config{})
	if res.err != nil {
		t.Fatalf("in-bounds walk errored: %v", res.err)
	}
	// Second pass over the stored values: 8 stores of +5 each.
	if res.stats.Stores != 8 || res.stats.Loads != 8 || res.stats.Checks != 16 {
		t.Fatalf("unexpected op mix: %+v", res.stats)
	}
}

func TestEngineAgreementFusedViolation(t *testing.T) {
	res := requireEngineAgreement(t, fusedAccessModule(9), Config{})
	var sv *SpatialViolation
	if !errors.As(res.err, &sv) {
		t.Fatalf("out-of-bounds fused access not caught: %v", res.err)
	}
	if sv.Kind != ir.CheckLoad || sv.Size != 8 {
		t.Fatalf("violation: %+v", sv)
	}
}

// Sweeping the step limit across the whole run drives the budget
// exhaustion point through every instruction — including the middle of
// both fused triples — and demands bit-identical traps and statistics at
// each position.
func TestEngineAgreementStepLimitSweep(t *testing.T) {
	mod := fusedAccessModule(8)
	for limit := uint64(1); limit <= 120; limit++ {
		requireEngineAgreement(t, mod, Config{StepLimit: limit})
	}
}

// A violation that the reference engine hits on exactly the step the
// budget would also expire must report the violation, not the limit, in
// both engines (the check runs before the budget poll on the next inst).
func TestEngineAgreementViolationVsLimitSweep(t *testing.T) {
	mod := fusedAccessModule(9)
	for limit := uint64(80); limit <= 110; limit++ {
		requireEngineAgreement(t, mod, Config{StepLimit: limit})
	}
}

func TestEngineAgreementMetaOps(t *testing.T) {
	g := &ir.Global{Name: "p", Size: 8, Align: 8}
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	rb := f.NewReg(ir.ClassInt)
	re := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KMetaStore, A: ir.GV("p", 0), SrcBase: ir.CI(0x1000), SrcBound: ir.CI(0x1040)},
		// Check+MetaLoad adjacency: the fused form on the fast engine.
		{Kind: ir.KCheck, CheckK: ir.CheckLoad, A: ir.GV("p", 0),
			Base: ir.GV("p", 0), Bound: ir.GV("p", 8), AccessSize: 8},
		{Kind: ir.KMetaLoad, A: ir.GV("p", 0), DstBaseR: rb, DstBndR: re},
		{Kind: ir.KMetaLoad, A: ir.GV("p", 0), DstBaseR: rb, DstBndR: re}, // repeat: cache hit
		{Kind: ir.KBin, Dst: rb, Op: ir.OpAdd, A: ir.R(rb), B: ir.R(re)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(rb)},
	}}}
	res := requireEngineAgreement(t, buildModule(f, g), Config{})
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.code != 0x1000+0x1040 {
		t.Fatalf("metadata round-trip: exit=%#x", res.code)
	}
	if res.stats.MetaLoads != 2 || res.stats.MetaStores != 1 {
		t.Fatalf("meta op counts: %+v", res.stats)
	}
}

// The clock builtin returns v.steps, so the fast engine must flush its
// batched step count before every builtin call; agreement on the exit
// code proves the flush is exact.
func TestEngineAgreementClockSeesBatchedSteps(t *testing.T) {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt)
	r1 := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KConst, Dst: r0, A: ir.CI(1)},
		{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.R(r0)},
		{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.R(r0)},
		{Kind: ir.KCall, Callee: ir.FV("clock"), Dst: r1,
			DstBase: ir.NoReg, DstBound: ir.NoReg},
		{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
	}}}
	res := requireEngineAgreement(t, buildModule(f), Config{})
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.code == 0 {
		t.Fatal("clock returned 0: batched steps were not flushed")
	}
}

func TestEngineAgreementCallsAndIndirect(t *testing.T) {
	leaf := &ir.Func{Name: "leaf", HasRet: true, RetClass: ir.ClassInt, OrigParams: 2}
	a := leaf.NewReg(ir.ClassInt)
	b := leaf.NewReg(ir.ClassInt)
	s := leaf.NewReg(ir.ClassInt)
	leaf.ParamRegs = []ir.Reg{a, b}
	leaf.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KBin, Dst: s, Op: ir.OpAdd, A: ir.R(a), B: ir.R(b)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(s)},
	}}}

	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt) // i
	r1 := f.NewReg(ir.ClassInt) // sum
	r2 := f.NewReg(ir.ClassInt) // call result
	r3 := f.NewReg(ir.ClassInt) // condition
	rp := f.NewReg(ir.ClassPtr) // function pointer
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{
			{Kind: ir.KConst, Dst: r0, A: ir.CI(0)},
			{Kind: ir.KConst, Dst: r1, A: ir.CI(0)},
			{Kind: ir.KConst, Dst: rp, A: ir.FV("leaf")},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCmp, Dst: r3, Pred: ir.PredLT, Signed: true, A: ir.R(r0), B: ir.CI(200)},
			{Kind: ir.KCondBr, A: ir.R(r3), Target: 2, Else: 3},
		}},
		{Insts: []ir.Inst{
			// Direct call, then the same leaf through a function pointer.
			{Kind: ir.KCall, Callee: ir.FV("leaf"), Dst: r2,
				DstBase: ir.NoReg, DstBound: ir.NoReg,
				Args: []ir.Value{ir.R(r0), ir.CI(7)}},
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAdd, A: ir.R(r1), B: ir.R(r2)},
			{Kind: ir.KCall, Callee: ir.R(rp), Dst: r2,
				DstBase: ir.NoReg, DstBound: ir.NoReg,
				Args: []ir.Value{ir.R(r0), ir.CI(9)}},
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAdd, A: ir.R(r1), B: ir.R(r2)},
			{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.CI(1)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAnd, A: ir.R(r1), B: ir.CI(0xFF)},
			{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
		}},
	}
	mod := ir.NewModule("test")
	mod.AddFunc(f)
	mod.AddFunc(leaf)
	res := requireEngineAgreement(t, mod, Config{})
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.stats.Calls != 400 {
		t.Fatalf("calls = %d", res.stats.Calls)
	}
}

// A malformed operand kind must surface as a typed runtime error on both
// engines, never a silent zero (the eval fallthrough used to return 0).
func TestEngineAgreementUnknownOperandKind(t *testing.T) {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KMov, Dst: r0, A: ir.Value{Kind: ir.ValueKind(99)}},
		{Kind: ir.KRet, HasVal: true, A: ir.R(r0)},
	}}}
	res := requireEngineAgreement(t, buildModule(f), Config{})
	if res.err == nil {
		t.Fatal("malformed operand executed silently")
	}
	var re *RuntimeError
	if !errors.As(res.err, &re) {
		t.Fatalf("want RuntimeError, got %T: %v", res.err, res.err)
	}
}

func TestEvalUnknownOperandKindMessage(t *testing.T) {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KMov, Dst: r0, A: ir.Value{Kind: ir.ValueKind(99)}},
		{Kind: ir.KRet, HasVal: true, A: ir.R(r0)},
	}}}
	res := runEngine(t, buildModule(f), Config{}, InterpRef)
	if res.err == nil || !strings.Contains(res.err.Error(), "unknown operand kind") {
		t.Fatalf("reference engine error: %v", res.err)
	}
}

// setjmpModule builds: main setjmps, calls a helper that longjmps back
// with 42, and returns the second setjmp result. The setjmp continuation
// (re-entry after a builtin call) and the longjmp target (checkpoint
// fip + 1) are both dynamic resume points in the decoded body.
func setjmpModule() *ir.Module {
	env := &ir.Global{Name: "env", Size: 16, Align: 8}

	helper := &ir.Func{Name: "helper", HasRet: true, RetClass: ir.ClassInt}
	h0 := helper.NewReg(ir.ClassInt)
	helper.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KCall, Callee: ir.FV("longjmp"),
			Dst: ir.NoReg, DstBase: ir.NoReg, DstBound: ir.NoReg,
			Args: []ir.Value{ir.GV("env", 0), ir.CI(42)}},
		{Kind: ir.KConst, Dst: h0, A: ir.CI(0)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(h0)},
	}}}

	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt) // setjmp result
	r1 := f.NewReg(ir.ClassInt) // scratch
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{
			{Kind: ir.KCall, Callee: ir.FV("setjmp"), Dst: r0,
				DstBase: ir.NoReg, DstBound: ir.NoReg,
				Args: []ir.Value{ir.GV("env", 0)}},
			{Kind: ir.KCondBr, A: ir.R(r0), Target: 2, Else: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCall, Callee: ir.FV("helper"), Dst: r1,
				DstBase: ir.NoReg, DstBound: ir.NoReg},
			{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.CI(100)},
			{Kind: ir.KRet, HasVal: true, A: ir.R(r0)},
		}},
	}
	mod := ir.NewModule("test")
	mod.AddFunc(f)
	mod.AddFunc(helper)
	mod.Globals = []*ir.Global{env}
	return mod
}

func TestEngineAgreementSetjmpLongjmp(t *testing.T) {
	res := requireEngineAgreement(t, setjmpModule(), Config{})
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.code != 142 {
		t.Fatalf("exit = %d, want 142 (longjmp value + 100)", res.code)
	}
}

// The step-limit sweep through a setjmp/longjmp weave drives budget
// exhaustion through builtin dispatch and both non-local resume points.
func TestEngineAgreementSetjmpStepLimitSweep(t *testing.T) {
	mod := setjmpModule()
	for limit := uint64(1); limit <= 40; limit++ {
		requireEngineAgreement(t, mod, Config{StepLimit: limit})
	}
}

// ------------------------------------------------------------- decode

func TestDecodeFusesInstrumentationTriples(t *testing.T) {
	mod := fusedAccessModule(8)
	prog := decodeModule(mod)
	df := prog.funcs[mod.Lookup("main")]
	var haveLoad, haveStore bool
	for _, d := range df.code {
		switch d.op {
		case dGEPCheckLoad:
			haveLoad = true
			if d.nsteps != 3 {
				t.Fatalf("fused load nsteps = %d", d.nsteps)
			}
		case dGEPCheckStore:
			haveStore = true
		case dGEP, dCheck, dLoad, dStore:
			t.Fatalf("unfused %v survived in the hot block", d.op)
		}
	}
	if !haveLoad || !haveStore {
		t.Fatalf("fusion missed: load=%v store=%v", haveLoad, haveStore)
	}
	// Branch targets must be flat indices at block starts.
	for _, d := range df.code {
		if d.op == dBr || d.op == dCondBr {
			found := false
			for _, s := range df.blockStart {
				if d.target == s {
					found = true
				}
			}
			if !found {
				t.Fatalf("branch target %d is not a block start (%v)", d.target, df.blockStart)
			}
		}
	}
}

func TestDecodeSharedAcrossVMs(t *testing.T) {
	mod := arithLoopModule()
	v1, err := New(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := New(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v1.prog == nil || v1.prog != v2.prog {
		t.Fatal("decoded program not shared via the module cache")
	}
}

// An engine value other than fast or ref — such as 2, which once selected
// the retired compiled tier — must not silently run as the fast engine.
func TestNewRejectsUnknownEngine(t *testing.T) {
	if _, err := New(arithLoopModule(), Config{Interp: InterpKind(2)}); err == nil {
		t.Fatal("New accepted engine InterpKind(2)")
	}
}

// String names unknown engines instead of calling them "fast".
func TestInterpKindString(t *testing.T) {
	for k, want := range map[InterpKind]string{
		InterpFast:    "fast",
		InterpRef:     "ref",
		InterpKind(2): "InterpKind(2)",
	} {
		if got := k.String(); got != want {
			t.Errorf("InterpKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// ------------------------------------------------------- metadata cache

func TestFastEngineMetaCacheStats(t *testing.T) {
	g := &ir.Global{Name: "p", Size: 8, Align: 8}
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt)
	rb := f.NewReg(ir.ClassInt)
	re := f.NewReg(ir.ClassInt)
	rc := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{
			{Kind: ir.KConst, Dst: r0, A: ir.CI(0)},
			{Kind: ir.KMetaStore, A: ir.GV("p", 0), SrcBase: ir.CI(16), SrcBound: ir.CI(32)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCmp, Dst: rc, Pred: ir.PredLT, Signed: true, A: ir.R(r0), B: ir.CI(100)},
			{Kind: ir.KCondBr, A: ir.R(rc), Target: 2, Else: 3},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KMetaLoad, A: ir.GV("p", 0), DstBaseR: rb, DstBndR: re},
			{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.CI(1)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KRet, HasVal: true, A: ir.R(rb)},
		}},
	}
	mod := buildModule(f, g)

	v, err := New(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.MetaLoads != 100 {
		t.Fatalf("meta loads = %d", st.MetaLoads)
	}
	if st.MetaCacheHits+st.MetaCacheMisses != st.MetaLoads {
		t.Fatalf("cache probes (%d+%d) != metaloads (%d)",
			st.MetaCacheHits, st.MetaCacheMisses, st.MetaLoads)
	}
	if st.MetaCacheHits < 99 {
		t.Fatalf("repeated lookup of one slot should hit: hits=%d", st.MetaCacheHits)
	}
	wantSim := (st.MetaCacheHits+st.MetaCacheMisses)*meta.CacheHitCost +
		st.MetaCacheMisses*uint64(v.fac.Costs().Lookup)
	if st.MetaCacheSimInsts != wantSim {
		t.Fatalf("cache cost line = %d, want %d", st.MetaCacheSimInsts, wantSim)
	}

	// Disabled cache: counters stay zero, everything else unchanged.
	v2, err := New(mod, Config{DisableMetaCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Run(); err != nil {
		t.Fatal(err)
	}
	st2 := v2.Stats()
	if st2.MetaCacheHits != 0 || st2.MetaCacheMisses != 0 || st2.MetaCacheSimInsts != 0 {
		t.Fatalf("disabled cache reported activity: %+v", st2)
	}
	if st2.SimInsts != st.SimInsts {
		t.Fatalf("cache changed modeled cost: %d vs %d", st2.SimInsts, st.SimInsts)
	}
}

// TestWildJumpTrapCode pins the typed classification of a call through a
// corrupted function pointer (ISSUE 6 satellite): both engines must
// return a *WildJumpError carrying the bogus address, classified as
// TrapWildJump — not the generic runtime-error bucket — so breakers and
// BENCH.json trap_code can tell a hijacked call site from a stray fault.
func TestWildJumpTrapCode(t *testing.T) {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	rp := f.NewReg(ir.ClassPtr)
	r0 := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KConst, Dst: rp, A: ir.CI(0xdead0)},
		{Kind: ir.KCall, Callee: ir.R(rp), Dst: r0,
			DstBase: ir.NoReg, DstBound: ir.NoReg},
		{Kind: ir.KRet, HasVal: true, A: ir.R(r0)},
	}}}
	res := requireEngineAgreement(t, buildModule(f), Config{})
	if res.err == nil {
		t.Fatal("wild jump executed silently")
	}
	var wj *WildJumpError
	if !errors.As(res.err, &wj) {
		t.Fatalf("want WildJumpError, got %T: %v", res.err, res.err)
	}
	if wj.Addr != 0xdead0 || wj.Func != "main" {
		t.Fatalf("wild-jump fields: %+v", wj)
	}
	if code := CodeOf(res.err); code != TrapWildJump {
		t.Fatalf("trap code = %q, want %q", code, TrapWildJump)
	}
	if TrapWildJump.Retryable() {
		t.Fatal("wild jump is deterministic; it must not be retryable")
	}
}

// TestEngineAgreementSignatureMismatchIndirect pins the positional
// shadow-window contract when the static call-site signature and the
// dynamic callee disagree (ISSUE 6). The callee observes the width of
// the bounds seeded into its pointer-parameter metadata registers, so
// the test sees exactly which window slot each parameter popped.
func TestEngineAgreementSignatureMismatchIndirect(t *testing.T) {
	// sink(scalar, ptr): the ptr parameter is arg index 1, so positional
	// routing must hand it window slot 2 — never the first pushed pair.
	sink := &ir.Func{Name: "sink", HasRet: true, RetClass: ir.ClassInt,
		OrigParams: 2, Transformed: true,
		Params: []ir.Param{{Class: ir.ClassInt}, {Class: ir.ClassPtr, IsPtr: true}}}
	sa := sink.NewReg(ir.ClassInt)
	sp := sink.NewReg(ir.ClassPtr)
	sb := sink.NewReg(ir.ClassPtr)
	se := sink.NewReg(ir.ClassPtr)
	sw := sink.NewReg(ir.ClassInt)
	sink.ParamRegs = []ir.Reg{sa, sp, sb, se}
	sink.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KBin, Dst: sw, Op: ir.OpSub, A: ir.R(se), B: ir.R(sb)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(sw)},
	}}}

	// pair(ptr, ptr): two pointer params; a site pushing only one slot
	// must leave the second pair zero (fail-closed), not misaligned.
	pair := &ir.Func{Name: "pair", HasRet: true, RetClass: ir.ClassInt,
		OrigParams: 2, Transformed: true,
		Params: []ir.Param{{Class: ir.ClassPtr, IsPtr: true}, {Class: ir.ClassPtr, IsPtr: true}}}
	p0 := pair.NewReg(ir.ClassPtr)
	p1 := pair.NewReg(ir.ClassPtr)
	b0 := pair.NewReg(ir.ClassPtr)
	e0 := pair.NewReg(ir.ClassPtr)
	b1 := pair.NewReg(ir.ClassPtr)
	e1 := pair.NewReg(ir.ClassPtr)
	w0 := pair.NewReg(ir.ClassInt)
	w1 := pair.NewReg(ir.ClassInt)
	pair.ParamRegs = []ir.Reg{p0, p1, b0, e0, b1, e1}
	pair.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KBin, Dst: w0, Op: ir.OpSub, A: ir.R(e0), B: ir.R(b0)},
		{Kind: ir.KBin, Dst: w1, Op: ir.OpSub, A: ir.R(e1), B: ir.R(b1)},
		{Kind: ir.KBin, Dst: w0, Op: ir.OpMul, A: ir.R(w0), B: ir.CI(1000)},
		{Kind: ir.KBin, Dst: w0, Op: ir.OpAdd, A: ir.R(w0), B: ir.R(w1)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(w0)},
	}}}

	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	rp := f.NewReg(ir.ClassPtr)
	r1 := f.NewReg(ir.ClassInt)
	r2 := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KConst, Dst: rp, A: ir.FV("sink")},
		// Mismatched site: static signature (ptr, ptr) pushes two slots
		// with different widths; the dynamic callee's only pointer param
		// is position 1 and must get the 8-wide pair, not the 256-wide.
		{Kind: ir.KCall, Callee: ir.R(rp), Dst: r1,
			DstBase: ir.NoReg, DstBound: ir.NoReg,
			Args: []ir.Value{ir.CI(0x300), ir.CI(0x300)},
			Shadow: []ir.ShadowSlot{
				{Arg: 0, Base: ir.CI(0x100), Bound: ir.CI(0x200)},
				{Arg: 1, Base: ir.CI(0x300), Bound: ir.CI(0x308)},
			}},
		// Cast-through-void site: no metadata pushed at all. Every
		// pointer param fails closed to the zero pair.
		{Kind: ir.KCall, Callee: ir.R(rp), Dst: r2,
			DstBase: ir.NoReg, DstBound: ir.NoReg,
			Args: []ir.Value{ir.CI(5), ir.CI(0x300)}},
		{Kind: ir.KBin, Dst: r2, Op: ir.OpMul, A: ir.R(r2), B: ir.CI(100)},
		{Kind: ir.KBin, Dst: r1, Op: ir.OpAdd, A: ir.R(r1), B: ir.R(r2)},
		// Fewer slots than pointer params: only arg 0 carries metadata.
		{Kind: ir.KCall, Callee: ir.FV("pair"), Dst: r2,
			DstBase: ir.NoReg, DstBound: ir.NoReg,
			Args: []ir.Value{ir.CI(0x400), ir.CI(0x500)},
			Shadow: []ir.ShadowSlot{
				{Arg: 0, Base: ir.CI(0x400), Bound: ir.CI(0x410)},
			}},
		{Kind: ir.KBin, Dst: r1, Op: ir.OpAdd, A: ir.R(r1), B: ir.R(r2)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
	}}}
	mod := ir.NewModule("test")
	mod.AddFunc(f)
	mod.AddFunc(sink)
	mod.AddFunc(pair)
	res := requireEngineAgreement(t, mod, Config{})
	if res.err != nil {
		t.Fatal(res.err)
	}
	// 8 (positional pair) + 0*100 (fail-closed) + 16*1000+0 (partial).
	if res.code != 8+0+16000 {
		t.Fatalf("exit = %d, want %d (metadata misrouted)", res.code, 8+0+16000)
	}
}

// TestEngineAgreementVarargFixedAndVariadicPointer passes the same
// pointer both as a fixed parameter and as a variadic extra in one call
// (ISSUE 6 satellite). The fast engine used to drop metadata for the
// extras (its caller loop gated on i < OrigParams), so the va_arg'd
// pointer arrived with no bounds; both engines must now observe both
// pairs, each routed by position.
func TestEngineAgreementVarargFixedAndVariadicPointer(t *testing.T) {
	vsink := &ir.Func{Name: "vsink", HasRet: true, RetClass: ir.ClassInt,
		OrigParams: 1, Variadic: true, Transformed: true,
		Params: []ir.Param{{Class: ir.ClassPtr, IsPtr: true}}}
	vp := vsink.NewReg(ir.ClassPtr)
	vb := vsink.NewReg(ir.ClassPtr)
	ve := vsink.NewReg(ir.ClassPtr)
	q := vsink.NewReg(ir.ClassPtr)
	qb := vsink.NewReg(ir.ClassPtr)
	qe := vsink.NewReg(ir.ClassPtr)
	w := vsink.NewReg(ir.ClassInt)
	u := vsink.NewReg(ir.ClassInt)
	vsink.ParamRegs = []ir.Reg{vp, vb, ve}
	vsink.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KCall, Callee: ir.FV("va_start"),
			Dst: ir.NoReg, DstBase: ir.NoReg, DstBound: ir.NoReg},
		{Kind: ir.KCall, Callee: ir.FV("va_arg_ptr"),
			Dst: q, DstBase: qb, DstBound: qe},
		{Kind: ir.KBin, Dst: w, Op: ir.OpSub, A: ir.R(ve), B: ir.R(vb)},
		{Kind: ir.KBin, Dst: u, Op: ir.OpSub, A: ir.R(qe), B: ir.R(qb)},
		{Kind: ir.KBin, Dst: w, Op: ir.OpMul, A: ir.R(w), B: ir.CI(1000)},
		{Kind: ir.KBin, Dst: w, Op: ir.OpAdd, A: ir.R(w), B: ir.R(u)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(w)},
	}}}

	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r1 := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		// Same numeric pointer, fixed and variadic, with different
		// bounds: fixed sees [0x500,0x510) (width 16), the extra sees
		// [0x500,0x508) (width 8).
		{Kind: ir.KCall, Callee: ir.FV("vsink"), Dst: r1,
			DstBase: ir.NoReg, DstBound: ir.NoReg,
			Args: []ir.Value{ir.CI(0x500), ir.CI(0x500)},
			Shadow: []ir.ShadowSlot{
				{Arg: 0, Base: ir.CI(0x500), Bound: ir.CI(0x510)},
				{Arg: 1, Base: ir.CI(0x500), Bound: ir.CI(0x508)},
			}},
		{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
	}}}
	mod := ir.NewModule("test")
	mod.AddFunc(f)
	mod.AddFunc(vsink)
	res := requireEngineAgreement(t, mod, Config{})
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.code != 16*1000+8 {
		t.Fatalf("exit = %d, want %d (vararg metadata dropped or misrouted)",
			res.code, 16*1000+8)
	}
}
