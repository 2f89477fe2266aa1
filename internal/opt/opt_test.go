package opt

import (
	"testing"

	"softbound/internal/ir"
)

// buildFunc makes a single-block function from the instructions plus a
// return terminator.
func buildFunc(nRegs int, insts ...ir.Inst) *ir.Func {
	f := &ir.Func{Name: "t"}
	for i := 0; i < nRegs; i++ {
		f.NewReg(ir.ClassInt)
	}
	insts = append(insts, ir.Inst{Kind: ir.KRet})
	f.Blocks = []*ir.Block{{Name: "entry", Insts: insts}}
	return f
}

func TestConstFoldBinOps(t *testing.T) {
	f := buildFunc(2,
		ir.Inst{Kind: ir.KBin, Dst: 0, Op: ir.OpAdd, A: ir.CI(3), B: ir.CI(4), IntWidth: 32, Signed: true},
		ir.Inst{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(0), Mem: ir.MemI32},
	)
	n := ConstFold(f)
	if n != 1 {
		t.Fatalf("folded %d, want 1", n)
	}
	in := f.Blocks[0].Insts[0]
	if in.Kind != ir.KConst || in.A.Int != 7 {
		t.Fatalf("got %v", in.String())
	}
}

func TestConstFoldWraps(t *testing.T) {
	f := buildFunc(1,
		ir.Inst{Kind: ir.KBin, Dst: 0, Op: ir.OpMul,
			A: ir.CI(1 << 20), B: ir.CI(1 << 20), IntWidth: 32, Signed: true},
		ir.Inst{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(0), Mem: ir.MemI32},
	)
	ConstFold(f)
	in := f.Blocks[0].Insts[0]
	if in.Kind != ir.KConst || in.A.Int != 0 {
		t.Fatalf("32-bit wrap: got %v", in.String())
	}
}

func TestConstFoldPreservesDivByZero(t *testing.T) {
	f := buildFunc(1,
		ir.Inst{Kind: ir.KBin, Dst: 0, Op: ir.OpDiv, A: ir.CI(1), B: ir.CI(0)},
		ir.Inst{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(0), Mem: ir.MemI32},
	)
	if n := ConstFold(f); n != 0 {
		t.Fatal("folded a division by zero")
	}
}

func TestConstFoldCondBr(t *testing.T) {
	f := &ir.Func{Name: "t"}
	f.Blocks = []*ir.Block{
		{Insts: []ir.Inst{{Kind: ir.KCondBr, A: ir.CI(1), Target: 1, Else: 2}}},
		{Insts: []ir.Inst{{Kind: ir.KRet}}},
		{Insts: []ir.Inst{{Kind: ir.KRet}}},
	}
	ConstFold(f)
	in := f.Blocks[0].Insts[0]
	if in.Kind != ir.KBr || in.Target != 1 {
		t.Fatalf("got %v", in.String())
	}
}

func TestDeadCodeElim(t *testing.T) {
	// r0 is stored (live); r1 is never read (dead); r2 feeds r1 only
	// (dead after one more pass).
	f := buildFunc(3,
		ir.Inst{Kind: ir.KConst, Dst: 0, A: ir.CI(1)},
		ir.Inst{Kind: ir.KConst, Dst: 2, A: ir.CI(2)},
		ir.Inst{Kind: ir.KBin, Dst: 1, Op: ir.OpAdd, A: ir.R(2), B: ir.CI(1)},
		ir.Inst{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(0), Mem: ir.MemI32},
	)
	removed := DeadCodeElim(f)
	if removed != 1 {
		t.Fatalf("first pass removed %d, want 1 (r1)", removed)
	}
	removed = DeadCodeElim(f)
	if removed != 1 {
		t.Fatalf("second pass removed %d, want 1 (r2)", removed)
	}
	if len(f.Blocks[0].Insts) != 3 { // const r0, store, ret
		t.Fatalf("left %d insts", len(f.Blocks[0].Insts))
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	f := buildFunc(2,
		ir.Inst{Kind: ir.KLoad, Dst: 0, A: ir.GV("g", 0), Mem: ir.MemI32},
		ir.Inst{Kind: ir.KCall, Dst: 1, Callee: ir.FV("rand")},
	)
	if n := DeadCodeElim(f); n != 0 {
		t.Fatalf("removed %d side-effecting insts", n)
	}
}

func TestEliminateRedundantChecks(t *testing.T) {
	mk := func() *ir.Func {
		return buildFunc(3,
			ir.Inst{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)},
				AccessSize: 4, CheckK: ir.CheckLoad},
			ir.Inst{Kind: ir.KLoad, Dst: 0, A: ir.R(0), Mem: ir.MemI32},
		)
	}
	// Identical back-to-back checks: second one goes — but the load in
	// between WRITES r0, which invalidates. Use a separate dst.
	f := mk()
	f.Blocks[0].Insts = []ir.Inst{
		{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)}, AccessSize: 4, CheckK: ir.CheckLoad},
		{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)}, AccessSize: 4, CheckK: ir.CheckLoad},
		{Kind: ir.KRet},
	}
	if n := eliminateChecked(t, f, false); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}

	// A write to the checked register between checks blocks elimination.
	f = mk()
	f.Blocks[0].Insts = []ir.Inst{
		{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)}, AccessSize: 4, CheckK: ir.CheckLoad},
		{Kind: ir.KGEP, Dst: 0, A: ir.R(0), B: ir.CI(1), Size: 4},
		{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)}, AccessSize: 4, CheckK: ir.CheckLoad},
		{Kind: ir.KRet},
	}
	if n := eliminateChecked(t, f, false); n != 0 {
		t.Fatalf("removed %d checks across a redefinition", n)
	}

	// Different access sizes are different checks.
	f = mk()
	f.Blocks[0].Insts = []ir.Inst{
		{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)}, AccessSize: 4, CheckK: ir.CheckLoad},
		{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)}, AccessSize: 8, CheckK: ir.CheckLoad},
		{Kind: ir.KRet},
	}
	if n := eliminateChecked(t, f, false); n != 0 {
		t.Fatalf("merged checks of different sizes")
	}
}

func TestCSEMetaLoads(t *testing.T) {
	f := &ir.Func{Name: "t"}
	for i := 0; i < 6; i++ {
		f.NewReg(ir.ClassPtr)
	}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{1, 2}},
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{3, 4}},
		{Kind: ir.KRet},
	}}}
	if n := CSEMetaLoads(f); n != 1 {
		t.Fatalf("merged %d, want 1", n)
	}
	// The merged metaload becomes two movs.
	insts := f.Blocks[0].Insts
	if insts[1].Kind != ir.KMov || insts[2].Kind != ir.KMov {
		t.Fatalf("expected movs, got %v %v", insts[1].String(), insts[2].String())
	}

	// A metadata store in between invalidates.
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{1, 2}},
		{Kind: ir.KMetaStore, A: ir.R(5), Meta: [4]ir.Value{ir.R(1), ir.R(2)}},
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{3, 4}},
		{Kind: ir.KRet},
	}}}
	if n := CSEMetaLoads(f); n != 0 {
		t.Fatalf("merged %d across a metastore", n)
	}
}

// CSEMetaLoads gives a block a new slice only when it merges a load: a
// block without a merge keeps its backing array.
func TestCSEMetaLoadsKeepsUnmergedBlockArray(t *testing.T) {
	f := &ir.Func{Name: "t"}
	for i := 0; i < 6; i++ {
		f.NewReg(ir.ClassPtr)
	}
	merges := []ir.Inst{
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{1, 2}},
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{3, 4}},
		{Kind: ir.KBr, Target: 1},
	}
	keeps := []ir.Inst{
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{1, 2}},
		{Kind: ir.KMetaStore, A: ir.R(5), Meta: [4]ir.Value{ir.R(1), ir.R(2)}},
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{3, 4}},
		{Kind: ir.KRet},
	}
	f.Blocks = []*ir.Block{{Insts: merges}, {Insts: keeps}}
	if n := CSEMetaLoads(f); n != 1 {
		t.Fatalf("merged %d, want 1", n)
	}
	if got := f.Blocks[0].Insts; len(got) != 4 || got[1].Kind != ir.KMov || got[2].Kind != ir.KMov || got[3].Kind != ir.KBr {
		t.Fatalf("merged block: %v", f.Blocks[0].Insts)
	}
	if merges[1].Kind != ir.KMetaLoad {
		t.Fatal("the merge wrote through the block's old array")
	}
	got := f.Blocks[1].Insts
	if len(got) != len(keeps) || cap(got) != cap(keeps) || &got[0] != &keeps[0] {
		t.Fatal("a block without a merge was given a new array")
	}
}
