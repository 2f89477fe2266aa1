package opt

import (
	"slices"
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

// invariantMetaLoadLoop is a loop whose header holds a metaload of a
// constant address, read in the loop and written nowhere else in it; the
// header's only outside predecessor branches straight to it.
func invariantMetaLoadLoop() *ir.Func {
	return mkCFGFunc(5,
		[]ir.Inst{{Kind: ir.KConst, Dst: 4, A: ir.CI(3)}, {Kind: ir.KBr, Target: 1}},
		[]ir.Inst{
			{Kind: ir.KMetaLoad, A: ir.GV("g", 0), MetaDst: [4]ir.Reg{0, 1}},
			{Kind: ir.KBin, Dst: 2, Op: ir.OpAdd, A: ir.R(2), B: ir.R(0)},
			{Kind: ir.KBin, Dst: 4, Op: ir.OpSub, A: ir.R(4), B: ir.CI(1)},
			{Kind: ir.KCondBr, A: ir.R(4), Target: 1, Else: 2}},
		[]ir.Inst{{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(2), Mem: ir.MemI64}, {Kind: ir.KRet}},
	)
}

// twoInvariantMetaLoadsFunc is a loop with two invariant metaloads whose
// header's only outside predecessor ends in a conditional branch.
func twoInvariantMetaLoadsFunc() *ir.Func {
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

// metaLoadsPerBlock counts the metaloads in each block of f.
func metaLoadsPerBlock(f *ir.Func) []int {
	n := make([]int, len(f.Blocks))
	for b, blk := range f.Blocks {
		for i := range blk.Insts {
			if blk.Insts[i].Kind == ir.KMetaLoad {
				n[b]++
			}
		}
	}
	return n
}

// No optimizer pass moves an instruction from one block to another or
// adds a block: loop-invariant metadata loads stay in their loops, with
// or without a preheader to receive them.
func TestOptimizeKeepsMetaLoadsInTheirBlocks(t *testing.T) {
	for name, f := range map[string]*ir.Func{
		"preheader exists": invariantMetaLoadLoop(),
		"no preheader":     twoInvariantMetaLoadsFunc(),
	} {
		want := metaLoadsPerBlock(f)
		OptimizeFuncs([]*ir.Func{f}, Options{Global: true})
		if got := metaLoadsPerBlock(f); !slices.Equal(got, want) {
			t.Errorf("%s: metaloads per block %v after optimizing, want %v\n%s", name, got, want, f)
		}
	}
}
