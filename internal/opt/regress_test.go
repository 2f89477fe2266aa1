package opt

import (
	"testing"

	"softbound/internal/ir"
)

// Regression: EliminateRedundantChecks used to track only Inst.Dst as a
// definition, so a KMetaLoad clobbering a check's base/bound register
// left the cached key alive and the second (now different) check was
// unsoundly deleted.
func TestCheckElimKilledByMetaLoadDef(t *testing.T) {
	f := buildFunc(5,
		ir.Inst{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)},
			AccessSize: 4, CheckK: ir.CheckLoad},
		// Overwrites r1/r2 — the base and bound of the cached check.
		ir.Inst{Kind: ir.KMetaLoad, A: ir.R(3), MetaDst: [4]ir.Reg{1, 2}},
		ir.Inst{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)},
			AccessSize: 4, CheckK: ir.CheckLoad},
	)
	if n := eliminateChecked(t, f, false); n != 0 {
		t.Fatalf("removed %d checks across a metaload clobbering base/bound", n)
	}
}

// Regression (same root cause): a pointer-returning call's MetaDst
// registers are definitions too.
func TestCheckElimKilledByCallMetaDef(t *testing.T) {
	f := buildFunc(6,
		ir.Inst{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)},
			AccessSize: 8, CheckK: ir.CheckLoad},
		ir.Inst{Kind: ir.KCall, Dst: 3, Callee: ir.FV("mk"), MetaDst: [4]ir.Reg{1, 2}, RetMetaValid: true},
		ir.Inst{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)},
			AccessSize: 8, CheckK: ir.CheckLoad},
	)
	if n := eliminateChecked(t, f, false); n != 0 {
		t.Fatalf("removed %d checks across a call writing its MetaDst", n)
	}
}

// longjmp can resume right after a setjmp call with register state from
// an arbitrary later program point, so no check stays available across
// one.
func TestCheckElimInvalidatedBySetjmp(t *testing.T) {
	for _, name := range []string{"setjmp", "_setjmp"} {
		f := buildFunc(4,
			ir.Inst{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)},
				AccessSize: 4, CheckK: ir.CheckLoad},
			ir.Inst{Kind: ir.KCall, Dst: 3, Callee: ir.FV(name),
				Args: []ir.Value{ir.R(0)}},
			ir.Inst{Kind: ir.KCheck, A: ir.R(0), Meta: [4]ir.Value{ir.R(1), ir.R(2)},
				AccessSize: 4, CheckK: ir.CheckLoad},
		)
		if n := eliminateChecked(t, f, false); n != 0 {
			t.Fatalf("removed %d checks across %s", n, name)
		}
	}
}

// Regression: CSEMetaLoads never treated a KMetaLoad's own destinations
// as definitions, so a later metaload overwriting a cached entry's
// base/bound register left the stale entry in the cache and the merged
// movs copied another pointer's metadata.
func TestCSEMetaLoadsEvictsClobberedEntry(t *testing.T) {
	f := &ir.Func{Name: "t"}
	for i := 0; i < 8; i++ {
		f.NewReg(ir.ClassPtr)
	}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{1, 2}},
		// Different address, clobbers r1: avail[r0] is now stale.
		{Kind: ir.KMetaLoad, A: ir.R(5), MetaDst: [4]ir.Reg{1, 3}},
		// Must NOT be merged from the stale {r1, r2} pair.
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{6, 7}},
		{Kind: ir.KRet},
	}}}
	if n := CSEMetaLoads(f); n != 0 {
		t.Fatalf("merged %d metaloads from a clobbered cache entry", n)
	}
	// The third metaload must survive as a real lookup.
	kinds := []ir.InstKind{}
	for _, in := range f.Blocks[0].Insts {
		kinds = append(kinds, in.Kind)
	}
	if kinds[2] != ir.KMetaLoad {
		t.Fatalf("third lookup rewritten: %v", kinds)
	}
}

// Regression companion: a metaload clobbering the *address* register of
// a cached entry must evict it — r0 no longer names the same pointer.
func TestCSEMetaLoadsEvictsClobberedAddress(t *testing.T) {
	f := &ir.Func{Name: "t"}
	for i := 0; i < 8; i++ {
		f.NewReg(ir.ClassPtr)
	}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{1, 2}},
		// Clobbers r0, the cached key's address register.
		{Kind: ir.KMetaLoad, A: ir.R(4), MetaDst: [4]ir.Reg{0, 5}},
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{6, 7}},
		{Kind: ir.KRet},
	}}}
	if n := CSEMetaLoads(f); n != 0 {
		t.Fatalf("merged %d metaloads whose address register was redefined", n)
	}
}

// The merged movs must read live registers: when the second load's base
// destination equals the cached bound register, emitting base-first
// would clobber the bound copy's source.
func TestCSEMetaLoadsMovOrdering(t *testing.T) {
	f := &ir.Func{Name: "t"}
	for i := 0; i < 4; i++ {
		f.NewReg(ir.ClassPtr)
	}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{1, 2}},
		// MetaDst[0] == cached bound (r2): the bound mov must come first.
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{2, 3}},
		{Kind: ir.KRet},
	}}}
	if n := CSEMetaLoads(f); n != 1 {
		t.Fatalf("merged %d, want 1", n)
	}
	insts := f.Blocks[0].Insts
	// Expected: metaload; mov r3 <- r2; mov r2 <- r1; ret.
	if insts[1].Kind != ir.KMov || insts[1].Dst != 3 || insts[1].A != ir.R(2) ||
		insts[2].Kind != ir.KMov || insts[2].Dst != 2 || insts[2].A != ir.R(1) {
		t.Fatalf("movs mis-ordered: %v / %v", insts[1].String(), insts[2].String())
	}
}

// A fully swapped destination pair would need a scratch register; the
// pass must keep the lookup rather than emit clobbering movs.
func TestCSEMetaLoadsSwappedPairNotMerged(t *testing.T) {
	f := &ir.Func{Name: "t"}
	for i := 0; i < 3; i++ {
		f.NewReg(ir.ClassPtr)
	}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{1, 2}},
		{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{2, 1}},
		{Kind: ir.KRet},
	}}}
	if n := CSEMetaLoads(f); n != 0 {
		t.Fatalf("merged a swap requiring a scratch register")
	}
	if f.Blocks[0].Insts[1].Kind != ir.KMetaLoad {
		t.Fatal("swapped-pair lookup was rewritten")
	}
}

// Regression: ConstFold used to fold a constant-operand KGEP carrying
// Shrink=true into a bare KConst, discarding the §3.1 sub-object
// narrowing marker before instrumentation could see it.
func TestConstFoldKeepsShrinkGEP(t *testing.T) {
	f := buildFunc(2,
		ir.Inst{Kind: ir.KGEP, Dst: 0, A: ir.CI(1000), B: ir.CI(0), Size: 1,
			C: ir.CI(8), Shrink: true, ShrinkLen: 8},
		ir.Inst{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(0), Mem: ir.MemI64},
	)
	if n := ConstFold(f); n != 0 {
		t.Fatalf("folded %d shrinking GEPs", n)
	}
	in := f.Blocks[0].Insts[0]
	if in.Kind != ir.KGEP || !in.Shrink || in.ShrinkLen != 8 {
		t.Fatalf("shrink marker lost: %v", in.String())
	}

	// A non-shrinking constant GEP still folds.
	f = buildFunc(2,
		ir.Inst{Kind: ir.KGEP, Dst: 0, A: ir.CI(1000), B: ir.CI(2), Size: 4, C: ir.CI(8)},
		ir.Inst{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(0), Mem: ir.MemI64},
	)
	if n := ConstFold(f); n != 1 {
		t.Fatalf("plain const GEP not folded")
	}
	if in := f.Blocks[0].Insts[0]; in.Kind != ir.KConst || in.A.Int != 1016 {
		t.Fatalf("folded to %v", in.String())
	}
}

// Dead metadata-load removal: enabled only in global mode, and only when
// both destination registers are unread.
func TestDeadMetaLoadElim(t *testing.T) {
	mk := func() *ir.Func {
		f := &ir.Func{Name: "t"}
		for i := 0; i < 4; i++ {
			f.NewReg(ir.ClassPtr)
		}
		f.Blocks = []*ir.Block{{Insts: []ir.Inst{
			{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{1, 2}}, // dead
			{Kind: ir.KMetaLoad, A: ir.R(0), MetaDst: [4]ir.Reg{3, 2}}, // r3 read below
			{Kind: ir.KStore, A: ir.GV("g", 0), B: ir.R(3), Mem: ir.MemI64},
			{Kind: ir.KRet},
		}}}
		return f
	}
	f := mk()
	removed, deadML := deadCodeElim(f, true)
	if removed != 0 || deadML != 1 {
		t.Fatalf("removed=%d deadML=%d, want 0/1", removed, deadML)
	}
	if f.Blocks[0].Insts[0].Kind != ir.KMetaLoad || f.Blocks[0].Insts[0].MetaDst[0] != 3 {
		t.Fatalf("wrong metaload removed: %v", f.Blocks[0].Insts[0].String())
	}
	// Local-only mode keeps every metaload.
	f = mk()
	if _, deadML := deadCodeElim(f, false); deadML != 0 {
		t.Fatal("local DCE removed a metaload")
	}
}
