package opt

import (
	"testing"

	"softbound/internal/ir"
)

func chk(ptr, base, bound ir.Value) ir.Inst {
	return ir.Inst{Kind: ir.KCheck, A: ptr, Meta: [4]ir.Value{base, bound},
		AccessSize: 8, CheckK: ir.CheckLoad}
}

// mkCFGFunc assembles a function from per-block instruction slices; the
// caller supplies terminators.
func mkCFGFunc(nRegs int, blocks ...[]ir.Inst) *ir.Func {
	f := &ir.Func{Name: "t"}
	for i := 0; i < nRegs; i++ {
		f.NewReg(ir.ClassInt)
	}
	for _, insts := range blocks {
		f.Blocks = append(f.Blocks, &ir.Block{Insts: insts})
	}
	return f
}

func countChecks(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Kind == ir.KCheck {
				n++
			}
		}
	}
	return n
}

// A check available on both arms of a diamond (here: established in the
// entry) is redundant in the arms and at the join.
func TestGlobalCheckElimDiamond(t *testing.T) {
	c := chk(ir.R(0), ir.R(1), ir.R(2))
	f := mkCFGFunc(4,
		[]ir.Inst{c, {Kind: ir.KCondBr, A: ir.R(3), Target: 1, Else: 2}},
		[]ir.Inst{c, {Kind: ir.KBr, Target: 3}},
		[]ir.Inst{c, {Kind: ir.KBr, Target: 3}},
		[]ir.Inst{c, {Kind: ir.KRet}},
	)
	if n := eliminateChecked(t, f, true); n != 3 {
		t.Fatalf("removed %d, want 3 (both arms + join)", n)
	}
	if countChecks(f) != 1 {
		t.Fatalf("%d checks left, want the entry's", countChecks(f))
	}
}

// A check present on only one path to the join must stay.
func TestGlobalCheckElimOnePathOnly(t *testing.T) {
	c := chk(ir.R(0), ir.R(1), ir.R(2))
	f := mkCFGFunc(4,
		[]ir.Inst{{Kind: ir.KCondBr, A: ir.R(3), Target: 1, Else: 2}},
		[]ir.Inst{c, {Kind: ir.KBr, Target: 3}},
		[]ir.Inst{{Kind: ir.KBr, Target: 3}},
		[]ir.Inst{c, {Kind: ir.KRet}},
	)
	if n := eliminateChecked(t, f, true); n != 0 {
		t.Fatalf("removed %d checks not available on every path", n)
	}
}

// A redefinition of a check operand on one path kills availability at
// the join.
func TestGlobalCheckElimKilledOnOnePath(t *testing.T) {
	c := chk(ir.R(0), ir.R(1), ir.R(2))
	f := mkCFGFunc(4,
		[]ir.Inst{c, {Kind: ir.KCondBr, A: ir.R(3), Target: 1, Else: 2}},
		[]ir.Inst{{Kind: ir.KConst, Dst: 0, A: ir.CI(7)}, {Kind: ir.KBr, Target: 3}},
		[]ir.Inst{{Kind: ir.KBr, Target: 3}},
		[]ir.Inst{c, {Kind: ir.KRet}},
	)
	if n := eliminateChecked(t, f, true); n != 0 {
		t.Fatalf("removed %d checks across a one-path redefinition", n)
	}
}

// Availability flows around a loop back edge: a check before the loop
// covers an identical check in the header when nothing in the loop
// redefines its operands.
func TestGlobalCheckElimLoop(t *testing.T) {
	c := chk(ir.R(0), ir.R(1), ir.R(2))
	f := mkCFGFunc(5,
		[]ir.Inst{c, {Kind: ir.KBr, Target: 1}},
		[]ir.Inst{c, {Kind: ir.KBin, Dst: 4, Op: ir.OpSub, A: ir.R(4), B: ir.CI(1)},
			{Kind: ir.KCondBr, A: ir.R(4), Target: 2, Else: 3}},
		[]ir.Inst{{Kind: ir.KBr, Target: 1}},
		[]ir.Inst{{Kind: ir.KRet}},
	)
	if n := eliminateChecked(t, f, true); n != 1 {
		t.Fatalf("removed %d, want 1 (the header check)", n)
	}
	// ... but a redefinition in the loop body keeps the header check.
	f = mkCFGFunc(5,
		[]ir.Inst{c, {Kind: ir.KBr, Target: 1}},
		[]ir.Inst{c, {Kind: ir.KBin, Dst: 4, Op: ir.OpSub, A: ir.R(4), B: ir.CI(1)},
			{Kind: ir.KCondBr, A: ir.R(4), Target: 2, Else: 3}},
		[]ir.Inst{{Kind: ir.KConst, Dst: 1, A: ir.CI(9)}, {Kind: ir.KBr, Target: 1}},
		[]ir.Inst{{Kind: ir.KRet}},
	)
	if n := eliminateChecked(t, f, true); n != 0 {
		t.Fatalf("removed %d checks whose base is redefined in the loop", n)
	}
}

// A setjmp call clears all global availability, like in the local pass.
func TestGlobalCheckElimSetjmp(t *testing.T) {
	c := chk(ir.R(0), ir.R(1), ir.R(2))
	f := mkCFGFunc(4,
		[]ir.Inst{c, {Kind: ir.KCall, Dst: 3, Callee: ir.FV("setjmp")}, {Kind: ir.KBr, Target: 1}},
		[]ir.Inst{c, {Kind: ir.KRet}},
	)
	if n := eliminateChecked(t, f, true); n != 0 {
		t.Fatalf("removed %d checks across setjmp", n)
	}
}

// An invariant metaload that dominates the loop exit hoists into the
// preheader (here: the existing unconditional predecessor).
func TestHoistMetaLoad(t *testing.T) {
	f := mkCFGFunc(5,
		[]ir.Inst{{Kind: ir.KConst, Dst: 4, A: ir.CI(3)}, {Kind: ir.KBr, Target: 1}},
		[]ir.Inst{
			{Kind: ir.KMetaLoad, A: ir.GV("g", 0), MetaDst: [4]ir.Reg{0, 1}},
			{Kind: ir.KBin, Dst: 2, Op: ir.OpAdd, A: ir.R(2), B: ir.R(0)},
			{Kind: ir.KBin, Dst: 4, Op: ir.OpSub, A: ir.R(4), B: ir.CI(1)},
			{Kind: ir.KCondBr, A: ir.R(4), Target: 1, Else: 2}},
		[]ir.Inst{{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(2), Mem: ir.MemI64}, {Kind: ir.KRet}},
	)
	if n := HoistLoopInvariantMetaLoads(f); n != 1 {
		t.Fatalf("hoisted %d, want 1", n)
	}
	// The metaload now sits in block 0 before its branch.
	b0 := f.Blocks[0].Insts
	if b0[len(b0)-2].Kind != ir.KMetaLoad {
		t.Fatalf("metaload not in preheader: %v", b0)
	}
	for i := range f.Blocks[1].Insts {
		if f.Blocks[1].Insts[i].Kind == ir.KMetaLoad {
			t.Fatal("metaload still in the loop")
		}
	}
}

// When the header has several outside predecessors, hoisting must create
// a preheader block and redirect them.
func TestHoistCreatesPreheader(t *testing.T) {
	f := mkCFGFunc(6,
		[]ir.Inst{{Kind: ir.KCondBr, A: ir.R(5), Target: 1, Else: 2}},
		[]ir.Inst{{Kind: ir.KConst, Dst: 4, A: ir.CI(2)}, {Kind: ir.KBr, Target: 3}},
		[]ir.Inst{{Kind: ir.KConst, Dst: 4, A: ir.CI(4)}, {Kind: ir.KBr, Target: 3}},
		[]ir.Inst{
			{Kind: ir.KMetaLoad, A: ir.GV("g", 8), MetaDst: [4]ir.Reg{0, 1}},
			{Kind: ir.KBin, Dst: 2, Op: ir.OpAdd, A: ir.R(2), B: ir.R(1)},
			{Kind: ir.KBin, Dst: 4, Op: ir.OpSub, A: ir.R(4), B: ir.CI(1)},
			{Kind: ir.KCondBr, A: ir.R(4), Target: 3, Else: 4}},
		[]ir.Inst{{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(2), Mem: ir.MemI64}, {Kind: ir.KRet}},
	)
	nBlocks := len(f.Blocks)
	if n := HoistLoopInvariantMetaLoads(f); n != 1 {
		t.Fatalf("hoisted %d, want 1", n)
	}
	if len(f.Blocks) != nBlocks+1 {
		t.Fatalf("no preheader created (%d blocks)", len(f.Blocks))
	}
	pre := f.Blocks[nBlocks]
	if pre.Insts[0].Kind != ir.KMetaLoad || pre.Terminator().Target != 3 {
		t.Fatalf("preheader malformed: %v", pre.Insts)
	}
	// Both former predecessors now branch to the preheader, and the
	// back edge still targets the header.
	if f.Blocks[1].Terminator().Target != nBlocks || f.Blocks[2].Terminator().Target != nBlocks {
		t.Fatal("outside predecessors not redirected")
	}
	if f.Blocks[3].Terminator().Target != 3 {
		t.Fatal("back edge must keep targeting the header")
	}
}

// twoHoistsFunc is a loop with two invariant metaloads whose header's
// only outside predecessor ends in a conditional branch: the first hoist
// splices in a preheader, and the second must reuse it.
func twoHoistsFunc() *ir.Func {
	return mkCFGFunc(8,
		[]ir.Inst{{Kind: ir.KConst, Dst: 4, A: ir.CI(3)}, {Kind: ir.KCondBr, A: ir.R(5), Target: 1, Else: 2}},
		[]ir.Inst{
			{Kind: ir.KMetaLoad, A: ir.GV("g", 0), MetaDst: [4]ir.Reg{0, 1}},
			{Kind: ir.KMetaLoad, A: ir.GV("g", 8), MetaDst: [4]ir.Reg{6, 7}},
			{Kind: ir.KBin, Dst: 2, Op: ir.OpAdd, A: ir.R(0), B: ir.R(6)},
			{Kind: ir.KBin, Dst: 3, Op: ir.OpAdd, A: ir.R(1), B: ir.R(7)},
			{Kind: ir.KBin, Dst: 4, Op: ir.OpSub, A: ir.R(4), B: ir.CI(1)},
			{Kind: ir.KCondBr, A: ir.R(4), Target: 1, Else: 2}},
		[]ir.Inst{{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(2), Mem: ir.MemI64}, {Kind: ir.KRet}},
	)
}

// Hoisting rebuilds the CFG after splicing in a preheader, so the second
// metaload lands in the same one.
func TestHoistTwiceIntoSplicedPreheader(t *testing.T) {
	f := twoHoistsFunc()
	nBlocks := len(f.Blocks)
	if n := HoistLoopInvariantMetaLoads(f); n != 2 {
		t.Fatalf("hoisted %d, want 2", n)
	}
	if len(f.Blocks) != nBlocks+1 {
		t.Fatalf("%d blocks, want one preheader added", len(f.Blocks))
	}
	pre := f.Blocks[nBlocks].Insts
	if len(pre) != 3 || pre[0].Kind != ir.KMetaLoad || pre[1].Kind != ir.KMetaLoad {
		t.Fatalf("preheader holds %v, want both metaloads", pre)
	}
	if t0 := f.Blocks[0].Terminator(); t0.Target != nBlocks || t0.Else != 2 {
		t.Fatalf("entry branches to %d/%d, want the preheader and the exit", t0.Target, t0.Else)
	}
}

// Negative hoisting cases: calls in the loop, a variant address, a
// conditionally executed metaload, and a second in-loop definition.
func TestHoistNegative(t *testing.T) {
	base := func(body ...ir.Inst) *ir.Func {
		insts := append(body,
			ir.Inst{Kind: ir.KBin, Dst: 4, Op: ir.OpSub, A: ir.R(4), B: ir.CI(1)},
			ir.Inst{Kind: ir.KCondBr, A: ir.R(4), Target: 1, Else: 2})
		return mkCFGFunc(6,
			[]ir.Inst{{Kind: ir.KConst, Dst: 4, A: ir.CI(3)}, {Kind: ir.KBr, Target: 1}},
			insts,
			[]ir.Inst{{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(2), Mem: ir.MemI64}, {Kind: ir.KRet}},
		)
	}

	cases := map[string]*ir.Func{
		"call in loop": base(
			ir.Inst{Kind: ir.KMetaLoad, A: ir.GV("g", 0), MetaDst: [4]ir.Reg{0, 1}},
			ir.Inst{Kind: ir.KBin, Dst: 2, Op: ir.OpAdd, A: ir.R(2), B: ir.R(0)},
			ir.Inst{Kind: ir.KCall, Dst: 5, Callee: ir.FV("f")}),
		"metastore in loop": base(
			ir.Inst{Kind: ir.KMetaLoad, A: ir.GV("g", 0), MetaDst: [4]ir.Reg{0, 1}},
			ir.Inst{Kind: ir.KBin, Dst: 2, Op: ir.OpAdd, A: ir.R(2), B: ir.R(0)},
			ir.Inst{Kind: ir.KMetaStore, A: ir.GV("g", 16), Meta: [4]ir.Value{ir.R(0), ir.R(1)}}),
		"variant address": base(
			ir.Inst{Kind: ir.KBin, Dst: 3, Op: ir.OpAdd, A: ir.R(3), B: ir.CI(8)},
			ir.Inst{Kind: ir.KMetaLoad, A: ir.R(3), MetaDst: [4]ir.Reg{0, 1}},
			ir.Inst{Kind: ir.KBin, Dst: 2, Op: ir.OpAdd, A: ir.R(2), B: ir.R(0)}),
		"second def in loop": base(
			ir.Inst{Kind: ir.KMetaLoad, A: ir.GV("g", 0), MetaDst: [4]ir.Reg{0, 1}},
			ir.Inst{Kind: ir.KConst, Dst: 0, A: ir.CI(1)},
			ir.Inst{Kind: ir.KBin, Dst: 2, Op: ir.OpAdd, A: ir.R(2), B: ir.R(0)}),
	}
	for name, f := range cases {
		if n := HoistLoopInvariantMetaLoads(f); n != 0 {
			t.Errorf("%s: hoisted %d, want 0", name, n)
		}
	}

	// Conditionally executed metaload (inside an if within the loop):
	// its block does not dominate the loop exit.
	f := mkCFGFunc(6,
		[]ir.Inst{{Kind: ir.KConst, Dst: 4, A: ir.CI(3)}, {Kind: ir.KBr, Target: 1}},
		[]ir.Inst{{Kind: ir.KCondBr, A: ir.R(5), Target: 2, Else: 3}},
		[]ir.Inst{
			{Kind: ir.KMetaLoad, A: ir.GV("g", 0), MetaDst: [4]ir.Reg{0, 1}},
			{Kind: ir.KBin, Dst: 2, Op: ir.OpAdd, A: ir.R(2), B: ir.R(0)},
			{Kind: ir.KBr, Target: 3}},
		[]ir.Inst{
			{Kind: ir.KBin, Dst: 4, Op: ir.OpSub, A: ir.R(4), B: ir.CI(1)},
			{Kind: ir.KCondBr, A: ir.R(4), Target: 1, Else: 4}},
		[]ir.Inst{{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(2), Mem: ir.MemI64}, {Kind: ir.KRet}},
	)
	if n := HoistLoopInvariantMetaLoads(f); n != 0 {
		t.Errorf("conditional metaload: hoisted %d, want 0", n)
	}
}
