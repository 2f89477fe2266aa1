package vm

import (
	"testing"

	"softbound/internal/ir"
)

// Microbenchmarks for the interpreter core. Each sub-benchmark runs the
// same module on the fast (pre-decoded) and reference (per-step) engines
// so a single `go test -bench` invocation yields the A/B comparison; the
// reference engine is the pre-PR interpreter.

// benchConfig keeps the VM's memory segments tiny so interpretation —
// not segment allocation in New — dominates the measurement.
func benchConfig(kind InterpKind) Config {
	return Config{Interp: kind, HeapSize: 1 << 16, StackSize: 1 << 16}
}

func benchRun(b *testing.B, mod *ir.Module, kind InterpKind) {
	b.Helper()
	b.ReportAllocs()
	// Warm the module-level decode cache so the fast engine's one-time
	// translation cost is not billed to the first iteration.
	if v, err := New(mod, benchConfig(kind)); err != nil {
		b.Fatal(err)
	} else if _, err := v.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := New(mod, benchConfig(kind))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBoth(b *testing.B, mod *ir.Module) {
	b.Run("fast", func(b *testing.B) { benchRun(b, mod, InterpFast) })
	b.Run("ref", func(b *testing.B) { benchRun(b, mod, InterpRef) })
}

// benchLoopModule is the instrumented hot-loop shape: masked index, a
// fused GEP+Check+Load and GEP+Check+Store per iteration, plus loop ALU.
func benchLoopModule(iters int64) *ir.Module {
	g := &ir.Global{Name: "g", Size: 64, Align: 8}
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt) // i
	r1 := f.NewReg(ir.ClassInt) // sum
	rt := f.NewReg(ir.ClassInt) // i & 7
	rp := f.NewReg(ir.ClassPtr) // p
	rv := f.NewReg(ir.ClassInt) // loaded value
	rc := f.NewReg(ir.ClassInt) // condition
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{
			{Kind: ir.KConst, Dst: r0, A: ir.CI(0)},
			{Kind: ir.KConst, Dst: r1, A: ir.CI(0)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCmp, Dst: rc, Pred: ir.PredLT, Signed: true, A: ir.R(r0), B: ir.CI(iters)},
			{Kind: ir.KCondBr, A: ir.R(rc), Target: 2, Else: 3},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KBin, Dst: rt, Op: ir.OpAnd, A: ir.R(r0), B: ir.CI(7)},
			{Kind: ir.KGEP, Dst: rp, A: ir.GV("g", 0), B: ir.R(rt), Size: 8},
			{Kind: ir.KCheck, CheckK: ir.CheckLoad, A: ir.R(rp),
				Base: ir.GV("g", 0), Bound: ir.GV("g", 64), AccessSize: 8},
			{Kind: ir.KLoad, Dst: rv, A: ir.R(rp), Mem: ir.MemI64},
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAdd, A: ir.R(r1), B: ir.R(rv)},
			{Kind: ir.KBin, Dst: rv, Op: ir.OpAdd, A: ir.R(rv), B: ir.CI(1)},
			{Kind: ir.KGEP, Dst: rp, A: ir.GV("g", 0), B: ir.R(rt), Size: 8},
			{Kind: ir.KCheck, CheckK: ir.CheckStore, A: ir.R(rp),
				Base: ir.GV("g", 0), Bound: ir.GV("g", 64), AccessSize: 8},
			{Kind: ir.KStore, A: ir.R(rp), B: ir.R(rv), Mem: ir.MemI64},
			{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.CI(1)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAnd, A: ir.R(r1), B: ir.CI(0xFF)},
			{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
		}},
	}
	return buildModule(f, g)
}

// callLoopModule calls a two-argument leaf function once per iteration.
func callLoopModule(iters int64) *ir.Module {
	leaf := &ir.Func{Name: "leaf", HasRet: true, RetClass: ir.ClassInt, OrigParams: 2}
	a := leaf.NewReg(ir.ClassInt)
	bb := leaf.NewReg(ir.ClassInt)
	s := leaf.NewReg(ir.ClassInt)
	leaf.ParamRegs = []ir.Reg{a, bb}
	leaf.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KBin, Dst: s, Op: ir.OpAdd, A: ir.R(a), B: ir.R(bb)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(s)},
	}}}

	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt)
	r1 := f.NewReg(ir.ClassInt)
	r2 := f.NewReg(ir.ClassInt)
	rc := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{
			{Kind: ir.KConst, Dst: r0, A: ir.CI(0)},
			{Kind: ir.KConst, Dst: r1, A: ir.CI(0)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCmp, Dst: rc, Pred: ir.PredLT, Signed: true, A: ir.R(r0), B: ir.CI(iters)},
			{Kind: ir.KCondBr, A: ir.R(rc), Target: 2, Else: 3},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCall, Callee: ir.FV("leaf"), Dst: r2,
				DstBase: ir.NoReg, DstBound: ir.NoReg,
				Args: []ir.Value{ir.R(r0), ir.CI(7)}},
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAdd, A: ir.R(r1), B: ir.R(r2)},
			{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.CI(1)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAnd, A: ir.R(r1), B: ir.CI(0xFF)},
			{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
		}},
	}
	mod := ir.NewModule("bench")
	mod.AddFunc(f)
	mod.AddFunc(leaf)
	return mod
}

// indirectCallLoopModule calls a transformed two-argument leaf through a
// function-pointer register once per iteration, pushing a shadow-window
// slot for its pointer argument — the full ABI cost of a metadata-
// carrying indirect call (dynamic callee resolution, window push/fill,
// positional pop).
func indirectCallLoopModule(iters int64) *ir.Module {
	leaf := &ir.Func{Name: "leaf", HasRet: true, RetClass: ir.ClassInt,
		OrigParams: 2, Transformed: true,
		Params: []ir.Param{{Class: ir.ClassInt}, {Class: ir.ClassPtr, IsPtr: true}}}
	a := leaf.NewReg(ir.ClassInt)
	p := leaf.NewReg(ir.ClassPtr)
	pb := leaf.NewReg(ir.ClassPtr)
	pe := leaf.NewReg(ir.ClassPtr)
	s := leaf.NewReg(ir.ClassInt)
	leaf.ParamRegs = []ir.Reg{a, p, pb, pe}
	leaf.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KBin, Dst: s, Op: ir.OpSub, A: ir.R(pe), B: ir.R(pb)},
		{Kind: ir.KBin, Dst: s, Op: ir.OpAdd, A: ir.R(s), B: ir.R(a)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(s)},
	}}}

	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt)
	r1 := f.NewReg(ir.ClassInt)
	r2 := f.NewReg(ir.ClassInt)
	rc := f.NewReg(ir.ClassInt)
	rp := f.NewReg(ir.ClassPtr)
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{
			{Kind: ir.KConst, Dst: r0, A: ir.CI(0)},
			{Kind: ir.KConst, Dst: r1, A: ir.CI(0)},
			{Kind: ir.KConst, Dst: rp, A: ir.FV("leaf")},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCmp, Dst: rc, Pred: ir.PredLT, Signed: true, A: ir.R(r0), B: ir.CI(iters)},
			{Kind: ir.KCondBr, A: ir.R(rc), Target: 2, Else: 3},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCall, Callee: ir.R(rp), Dst: r2,
				DstBase: ir.NoReg, DstBound: ir.NoReg,
				Args: []ir.Value{ir.R(r0), ir.CI(0x100)},
				Shadow: []ir.ShadowSlot{
					{Arg: 1, Base: ir.CI(0x100), Bound: ir.CI(0x140)},
				}},
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAdd, A: ir.R(r1), B: ir.R(r2)},
			{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.CI(1)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KBin, Dst: r1, Op: ir.OpAnd, A: ir.R(r1), B: ir.CI(0xFF)},
			{Kind: ir.KRet, HasVal: true, A: ir.R(r1)},
		}},
	}
	mod := ir.NewModule("bench")
	mod.AddFunc(f)
	mod.AddFunc(leaf)
	return mod
}

// metaLoadModule performs one metadata load per iteration. With
// stride == 0 every load probes the same shadow slot (cache hit); with a
// nonzero stride over a window wider than the lookup cache every probe
// misses.
func metaLoadModule(iters, stride, window int64) *ir.Module {
	g := &ir.Global{Name: "g", Size: window + 8, Align: 8}
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	r0 := f.NewReg(ir.ClassInt) // i
	rt := f.NewReg(ir.ClassInt) // byte offset
	rp := f.NewReg(ir.ClassPtr) // probed address
	rb := f.NewReg(ir.ClassInt)
	re := f.NewReg(ir.ClassInt)
	rc := f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{
			{Kind: ir.KConst, Dst: r0, A: ir.CI(0)},
			{Kind: ir.KMetaStore, A: ir.GV("g", 0), SrcBase: ir.CI(16), SrcBound: ir.CI(32)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KCmp, Dst: rc, Pred: ir.PredLT, Signed: true, A: ir.R(r0), B: ir.CI(iters)},
			{Kind: ir.KCondBr, A: ir.R(rc), Target: 2, Else: 3},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KBin, Dst: rt, Op: ir.OpMul, A: ir.R(r0), B: ir.CI(stride)},
			{Kind: ir.KBin, Dst: rt, Op: ir.OpAnd, A: ir.R(rt), B: ir.CI(window - 1)},
			{Kind: ir.KGEP, Dst: rp, A: ir.GV("g", 0), B: ir.R(rt), Size: 1},
			{Kind: ir.KMetaLoad, A: ir.R(rp), DstBaseR: rb, DstBndR: re},
			{Kind: ir.KBin, Dst: r0, Op: ir.OpAdd, A: ir.R(r0), B: ir.CI(1)},
			{Kind: ir.KBr, Target: 1},
		}},
		{Insts: []ir.Inst{
			{Kind: ir.KRet, HasVal: true, A: ir.R(rb)},
		}},
	}
	return buildModule(f, g)
}

func BenchmarkInterpLoop(b *testing.B) { benchBoth(b, benchLoopModule(1<<16)) }
func BenchmarkCallReturn(b *testing.B) { benchBoth(b, callLoopModule(1<<16)) }

// BenchmarkIndirectCall tracks the shadow-stack call ABI overhead in
// BENCH.json: one metadata-carrying indirect call per iteration.
func BenchmarkIndirectCall(b *testing.B) { benchBoth(b, indirectCallLoopModule(1<<16)) }
func BenchmarkMetaLoadHit(b *testing.B)  { benchBoth(b, metaLoadModule(1<<16, 0, 8192)) }
func BenchmarkMetaLoadMiss(b *testing.B) {
	// Stride of 8 bytes over an 8 KiB window touches 1024 distinct shadow
	// slots against 256 cache slots: every probe evicts before reuse.
	benchBoth(b, metaLoadModule(1<<16, 8, 8192))
}

// The fast engine's steady-state call path must not allocate: frames,
// registers, and builtin argument buffers are all reused (the reference
// engine makes no such claim). Measuring two run lengths and taking the
// slope isolates per-call allocations from the fixed VM construction
// cost.
func TestSteadyStateCallPathAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow under -short")
	}
	const extra = 4096
	t.Run(InterpFast.String(), func(t *testing.T) {
		measure := func(iters int64) float64 {
			mod := callLoopModule(iters)
			// Prime the decode cache outside the measured region.
			if v, err := New(mod, benchConfig(InterpFast)); err != nil {
				t.Fatal(err)
			} else if _, err := v.Run(); err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(10, func() {
				v, err := New(mod, benchConfig(InterpFast))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := v.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		base := measure(16)
		long := measure(16 + extra)
		perCall := (long - base) / extra
		if perCall > 0.01 {
			t.Fatalf("steady-state call path allocates: %.4f allocs/call (base=%.1f long=%.1f)",
				perCall, base, long)
		}
	})
}
