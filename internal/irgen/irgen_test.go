package irgen

import (
	"strings"
	"testing"

	"softbound/internal/cparser"
	"softbound/internal/ir"
	"softbound/internal/sema"
)

func lower(t *testing.T, src string) *ir.Module {
	t.Helper()
	unit, err := cparser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Analyze(unit)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Generate(info)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func count(f *ir.Func, k ir.InstKind) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Kind == k {
				n++
			}
		}
	}
	return n
}

// TestRegisterPromotion: scalar locals without & never touch memory —
// the property that keeps Figure 1's SPEC pointer-op counts near zero.
func TestRegisterPromotion(t *testing.T) {
	mod := lower(t, `
int f(int n) {
    int i;
    int sum = 0;
    for (i = 0; i < n; i++)
        sum += i;
    return sum;
}`)
	f := mod.Lookup("f")
	if n := count(f, ir.KAlloca); n != 0 {
		t.Errorf("promoted function has %d allocas", n)
	}
	if n := count(f, ir.KLoad) + count(f, ir.KStore); n != 0 {
		t.Errorf("promoted function has %d memory ops", n)
	}
}

// TestAddressTakenDemotion: taking &x forces a stack slot.
func TestAddressTakenDemotion(t *testing.T) {
	mod := lower(t, `
void set(int* p) { *p = 1; }
int f(void) {
    int x = 0;
    set(&x);
    return x;
}`)
	f := mod.Lookup("f")
	if n := count(f, ir.KAlloca); n != 1 {
		t.Errorf("address-taken local: %d allocas, want 1", n)
	}
	if n := count(f, ir.KLoad); n < 1 {
		t.Error("demoted local is never loaded")
	}
}

// TestFrameLayoutParamsAboveLocals pins the x86-like spill layout the
// attack suite depends on: locals first, demoted parameters above them.
func TestFrameLayoutParamsAboveLocals(t *testing.T) {
	mod := lower(t, `
int f(int p) {
    char buf[16];
    int* fp = (int*)&p;
    buf[0] = (char)*fp;
    return buf[0];
}`)
	f := mod.Lookup("f")
	if len(f.Allocas) != 2 {
		t.Fatalf("allocas: %+v", f.Allocas)
	}
	var bufOff, pOff int64 = -1, -1
	for _, a := range f.Allocas {
		switch a.Name {
		case "buf":
			bufOff = a.Offset
		case "p":
			pOff = a.Offset
		}
	}
	if bufOff < 0 || pOff < 0 || pOff <= bufOff {
		t.Fatalf("param slot not above locals: buf=%d p=%d", bufOff, pOff)
	}
}

// TestFieldGEPsCarryShrinkMarks: every struct-field address is marked
// for SoftBound bounds shrinking.
func TestFieldGEPsCarryShrinkMarks(t *testing.T) {
	mod := lower(t, `
struct s { int a; char name[12]; };
int f(struct s* p) { return p->name[3]; }
`)
	f := mod.Lookup("f")
	shrinks := 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Kind == ir.KGEP && in.Shrink {
				shrinks++
				if in.ShrinkLen != 12 {
					t.Errorf("shrink len %d, want 12", in.ShrinkLen)
				}
			}
		}
	}
	if shrinks != 1 {
		t.Errorf("shrink GEPs = %d, want 1", shrinks)
	}
}

// TestStructAssignmentUsesMemcpy: aggregates copy via the intrinsic, so
// SoftBound's memcpy metadata handling covers embedded pointers.
func TestStructAssignmentUsesMemcpy(t *testing.T) {
	mod := lower(t, `
struct s { int a; int* p; };
void f(struct s* d, struct s* x) { *d = *x; }
`)
	f := mod.Lookup("f")
	foundMemcpy := false
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Kind == ir.KCall && in.Callee.Sym == "memcpy" {
				foundMemcpy = true
				if in.RetMetaValid {
					t.Error("intrinsic memcpy call has live metadata dst registers")
				}
			}
		}
	}
	if !foundMemcpy {
		t.Error("struct assignment did not lower to memcpy")
	}
}

// TestStringLiteralInterning: identical literals share one read-only
// global.
func TestStringLiteralInterning(t *testing.T) {
	mod := lower(t, `
char* a(void) { return "shared"; }
char* b(void) { return "shared"; }
char* c(void) { return "different"; }
`)
	ro := 0
	for _, g := range mod.Globals {
		if g.ReadOnly {
			ro++
		}
	}
	if ro != 2 {
		t.Errorf("read-only globals = %d, want 2 (interned)", ro)
	}
}

// TestGlobalPointerInitsRelocated: pointer-valued global initializers
// become relocations, not bytes.
func TestGlobalPointerInitsRelocated(t *testing.T) {
	mod := lower(t, `
int target[4];
int* direct = target;
int* offset = &target[2];
int (*fptr)(void);
int getter(void) { return 1; }
int (*initfp)(void) = getter;
`)
	byName := map[string]*ir.Global{}
	for _, g := range mod.Globals {
		byName[g.Name] = g
	}
	d := byName["direct"]
	if len(d.PtrInits) != 1 || d.PtrInits[0].Sym != "target" || d.PtrInits[0].Addend != 0 {
		t.Errorf("direct: %+v", d.PtrInits)
	}
	o := byName["offset"]
	if len(o.PtrInits) != 1 || o.PtrInits[0].Addend != 8 {
		t.Errorf("offset: %+v", o.PtrInits)
	}
	fp := byName["initfp"]
	if len(fp.PtrInits) != 1 || fp.PtrInits[0].Func != "getter" {
		t.Errorf("initfp: %+v", fp.PtrInits)
	}
	if !d.ContainsPtr {
		t.Error("pointer global not marked ContainsPtr")
	}
}

// TestShortCircuitProducesBranches: && lowers to control flow, not
// eager evaluation.
func TestShortCircuitProducesBranches(t *testing.T) {
	mod := lower(t, `
int g(void);
int f(int a) { return a && g(); }
`)
	f := mod.Lookup("f")
	if len(f.Blocks) < 3 {
		t.Fatalf("short-circuit produced %d blocks", len(f.Blocks))
	}
	// The call to g must not be in the entry block.
	for i := range f.Blocks[0].Insts {
		in := &f.Blocks[0].Insts[i]
		if in.Kind == ir.KCall && in.Callee.Sym == "g" {
			t.Fatal("g() evaluated eagerly")
		}
	}
}

// TestSwitchLowersToComparisonChain with fallthrough edges.
func TestSwitchLowersToComparisonChain(t *testing.T) {
	mod := lower(t, `
int f(int x) {
    switch (x) {
    case 1: return 10;
    case 2: return 20;
    default: return 0;
    }
}`)
	f := mod.Lookup("f")
	cmps := count(f, ir.KCmp)
	if cmps != 2 {
		t.Errorf("switch comparisons = %d, want 2", cmps)
	}
}

// TestPointerArithmeticIsGEP: pointer math lowers to address arithmetic
// (which instrumentation treats as metadata-inheriting), never to plain
// integer ops.
func TestPointerArithmeticIsGEP(t *testing.T) {
	mod := lower(t, `
int* f(int* p, int i) { return p + i * 2; }
`)
	f := mod.Lookup("f")
	if n := count(f, ir.KGEP); n != 1 {
		t.Errorf("GEPs = %d, want 1", n)
	}
}

// TestClearSlotsTrackPointerBearingFrames: only pointer-containing
// allocas are listed for epilogue metadata clearing (paper §5.2).
func TestClearSlotsTrackPointerBearingFrames(t *testing.T) {
	mod := lower(t, `
struct withptr { int n; char* s; };
int f(void) {
    int plain[8];
    struct withptr w;
    char* escaped;
    char** force = &escaped;
    plain[0] = 0;
    w.n = 1;
    escaped = (char*)0;
    return plain[0] + w.n;
}`)
	f := mod.Lookup("f")
	names := map[string]bool{}
	for _, s := range f.ClearSlots {
		names[s.Name] = true
	}
	if !names["w"] || !names["escaped"] {
		t.Errorf("clear slots: %+v", f.ClearSlots)
	}
	if names["plain"] {
		t.Error("scalar array listed for metadata clearing")
	}
}

// TestDumpIsStable: lowering the same source twice yields identical IR
// (determinism matters for the experiment harness).
func TestDumpIsStable(t *testing.T) {
	src := `
int g;
int f(int* p, int n) {
    int i;
    for (i = 0; i < n; i++)
        g += p[i];
    return g;
}`
	a := lower(t, src).String()
	b := lower(t, src).String()
	if a != b {
		t.Fatal("non-deterministic lowering")
	}
	if !strings.Contains(a, "func f") {
		t.Fatal("dump missing function")
	}
}
