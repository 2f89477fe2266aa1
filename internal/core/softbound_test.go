package core

import (
	"strings"
	"testing"
	"unsafe"

	"softbound/internal/cparser"
	"softbound/internal/ir"
	"softbound/internal/irgen"
	"softbound/internal/sema"
)

// lower compiles a source into an un-instrumented module.
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
	mod, err := irgen.Generate(info)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func countInsts(f *ir.Func, k ir.InstKind) int {
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

func countChecks(f *ir.Func, kind ir.CheckKind) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Kind == ir.KCheck && b.Insts[i].CheckK == kind {
				n++
			}
		}
	}
	return n
}

const ptrProg = `
int deref(int* p) { return *p; }
void store(int* p, int v) { *p = v; }
int* bump(int* p) { return p + 1; }
`

func TestSignatureExtension(t *testing.T) {
	mod := lower(t, ptrProg)
	Transform(mod, nil, DefaultOptions(ModeFull))
	f := mod.Lookup("deref")
	if !f.Transformed || f.SBName != "_sb_deref" {
		t.Fatalf("not marked transformed: %+v", f)
	}
	// One pointer param gains two metadata params (paper §3.3).
	if len(f.Params) != 3 {
		t.Fatalf("params = %d, want 3", len(f.Params))
	}
	if len(f.ParamRegs) != 3 || f.OrigParams != 1 {
		t.Fatalf("ParamRegs=%v OrigParams=%d", f.ParamRegs, f.OrigParams)
	}
	// Pointer-returning function carries return metadata.
	bump := mod.Lookup("bump")
	found := false
	for _, b := range bump.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Kind == ir.KRet && b.Insts[i].RetMetaValid {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("bump's return carries no metadata")
	}
}

func TestFullModeChecksLoadsAndStores(t *testing.T) {
	mod := lower(t, ptrProg)
	Transform(mod, nil, DefaultOptions(ModeFull))
	if n := countChecks(mod.Lookup("deref"), ir.CheckLoad); n != 1 {
		t.Errorf("deref load checks = %d, want 1", n)
	}
	if n := countChecks(mod.Lookup("store"), ir.CheckStore); n != 1 {
		t.Errorf("store store-checks = %d, want 1", n)
	}
}

func TestStoreOnlyModeSkipsLoadChecks(t *testing.T) {
	mod := lower(t, ptrProg)
	Transform(mod, nil, DefaultOptions(ModeStoreOnly))
	if n := countChecks(mod.Lookup("deref"), ir.CheckLoad); n != 0 {
		t.Errorf("store-only emitted %d load checks", n)
	}
	if n := countChecks(mod.Lookup("store"), ir.CheckStore); n != 1 {
		t.Errorf("store-only store-checks = %d, want 1", n)
	}
	// Metadata still propagates in store-only mode ("fully propagates
	// all metadata", paper §1): pointer loads still metaload.
	mod2 := lower(t, `int* chase(int** pp) { return *pp; }`)
	Transform(mod2, nil, DefaultOptions(ModeStoreOnly))
	if n := countInsts(mod2.Lookup("chase"), ir.KMetaLoad); n != 1 {
		t.Errorf("store-only metaloads = %d, want 1", n)
	}
}

func TestMetadataAccessesOnlyForPointerMemOps(t *testing.T) {
	// Loads/stores of non-pointer values get no metadata ops (§3.2:
	// "Only load and stores of pointers are annotated").
	mod := lower(t, `
long sum(long* a, int n) {
    long s = 0;
    int i;
    for (i = 0; i < n; i++)
        s += a[i];
    return s;
}`)
	Transform(mod, nil, DefaultOptions(ModeFull))
	f := mod.Lookup("sum")
	if n := countInsts(f, ir.KMetaLoad); n != 0 {
		t.Errorf("scalar loads produced %d metaloads", n)
	}
	if n := countInsts(f, ir.KMetaStore); n != 0 {
		t.Errorf("scalar stores produced %d metastores", n)
	}
}

func TestPointerStoreEmitsMetaStore(t *testing.T) {
	mod := lower(t, `void put(int** pp, int* p) { *pp = p; }`)
	Transform(mod, nil, DefaultOptions(ModeFull))
	f := mod.Lookup("put")
	if n := countInsts(f, ir.KMetaStore); n != 1 {
		t.Errorf("metastores = %d, want 1", n)
	}
}

// shrinkGEPs returns the positions of f's bounds-shrinking GEPs.
func shrinkGEPs(f *ir.Func) (at [][2]int) {
	for bi, b := range f.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Kind == ir.KGEP && b.Insts[i].Shrink {
				at = append(at, [2]int{bi, i})
			}
		}
	}
	return at
}

// intersections counts the field-bounds intersections the transform
// emitted into f: each is two compares and six arithmetic instructions
// (a branch-free max and min), on top of any f had before.
func intersections(t *testing.T, before, after *ir.Func) int {
	t.Helper()
	arith := func(f *ir.Func) int { return countInsts(f, ir.KCmp) + countInsts(f, ir.KBin) }
	n := arith(after) - arith(before)
	if n%8 != 0 || countInsts(after, ir.KCmp)-countInsts(before, ir.KCmp) != n/4 {
		t.Fatalf("%d added compare/arithmetic instructions are not whole intersections:\n%s", n, after)
	}
	return n / 8
}

// TestShrinkOnFieldGEP: an escaping field pointer gets the field
// intersected with its source's bounds; with shrinking off it inherits
// the source's metadata as a plain copy.
func TestShrinkOnFieldGEP(t *testing.T) {
	src := `
struct s { char str[8]; long tail; };
char* fieldptr(struct s* p) { return p->str; }
`
	mod := lower(t, src)
	before := lower(t, src).Lookup("fieldptr")
	Transform(mod, nil, DefaultOptions(ModeFull))
	f := mod.Lookup("fieldptr")
	at := shrinkGEPs(f)
	if len(at) != 1 {
		t.Fatalf("%d shrink-marked GEPs for the field address, want 1", len(at))
	}
	gep := f.Blocks[at[0][0]].Insts[at[0][1]]
	if gep.ShrinkLen != 8 {
		t.Errorf("shrink len = %d, want 8", gep.ShrinkLen)
	}
	// The returned field pointer escapes, so its bounds are the field
	// intersected with the incoming bounds; the intersection starts
	// with the field's end, dst+ShrinkLen.
	if n := intersections(t, before, f); n != 1 {
		t.Fatalf("intersections = %d, want 1:\n%s", n, f)
	}
	end := f.Blocks[at[0][0]].Insts[at[0][1]+1]
	if end.Kind != ir.KGEP || end.A != ir.R(gep.Dst) || end.C != ir.CI(8) {
		t.Fatalf("field end not computed after the shrink GEP: %s\n%s", end.String(), f)
	}

	// With shrinking disabled (ablation), the field pointer's metadata
	// is two moves from the source pointer's shadow registers, exactly
	// what a plain GEP emits.
	mod2 := lower(t, src)
	opts := DefaultOptions(ModeFull)
	opts.ShrinkBounds = false
	Transform(mod2, nil, opts)
	f2 := mod2.Lookup("fieldptr")
	if n := intersections(t, before, f2); n != 0 {
		t.Fatalf("shrinking off: intersections = %d, want 0:\n%s", n, f2)
	}
	requirePlainCopy(t, f2, shrinkGEPs(f2)[0])
}

// requirePlainCopy asserts that the GEP at pos is followed by moves of
// the source pointer's base and bound (the parameter's metadata
// registers) into registers other than the GEP's destination.
func requirePlainCopy(t *testing.T, f *ir.Func, pos [2]int) {
	t.Helper()
	insts := f.Blocks[pos[0]].Insts
	gep := insts[pos[1]]
	if gep.A.Kind != ir.VReg || gep.A.Reg != f.ParamRegs[0] {
		t.Fatalf("GEP source %s is not the first parameter", gep.A.String())
	}
	base, bound := f.ParamRegs[f.OrigParams], f.ParamRegs[f.OrigParams+1]
	for w, src := range []ir.Reg{base, bound} {
		mv := insts[pos[1]+1+w]
		if mv.Kind != ir.KMov || mv.A != ir.R(src) || mv.Dst == gep.Dst {
			t.Fatalf("metadata word %d of the field pointer is %s, want a move from %%%d:\n%s",
				w, mv.String(), src, f)
		}
	}
}

const pointSrc = `struct pt { int x; int y; };
`

// TestDirectFieldAccessSkipsIntersection: a field pointer used only as
// the address of accesses within the field keeps its source's bounds,
// because no check through it can come out differently.
func TestDirectFieldAccessSkipsIntersection(t *testing.T) {
	src := pointSrc + `int f(struct pt* p, int v) { p->x = v; return p->y; }`
	for _, temporal := range []bool{false, true} {
		mod := lower(t, src)
		opts := DefaultOptions(ModeFull)
		opts.Temporal = temporal
		Transform(mod, nil, opts)
		f := mod.Lookup("f")
		if n := countInsts(f, ir.KCmp) + countInsts(f, ir.KBin); n != 0 {
			t.Fatalf("temporal=%v: %d compare/arithmetic instructions, want none:\n%s", temporal, n, f)
		}
		at := shrinkGEPs(f)
		if len(at) != 2 {
			t.Fatalf("temporal=%v: %d shrink GEPs, want 2", temporal, len(at))
		}
		for _, pos := range at {
			requirePlainCopy(t, f, pos)
		}
		if n := countChecks(f, ir.CheckLoad) + countChecks(f, ir.CheckStore); n != 2 {
			t.Fatalf("temporal=%v: %d checks, want 2", temporal, n)
		}
	}
}

// TestEscapingFieldPointerKeepsIntersection: every use other than the
// address of an access within the field lets the field pointer escape,
// and the escaping pointer keeps the narrowed bounds.
func TestEscapingFieldPointerKeepsIntersection(t *testing.T) {
	cases := []struct{ name, src string }{
		{"stored", pointSrc + `void f(struct pt* p, int** out) { *out = &p->x; }`},
		{"passed", pointSrc + `void g(int* q); void f(struct pt* p) { g(&p->x); }`},
		{"returned", pointSrc + `int* f(struct pt* p) { return &p->y; }`},
		{"compared", pointSrc + `int f(struct pt* p, int* q) { return &p->x == q; }`},
		{"converted", pointSrc + `long f(struct pt* p) { return (long)&p->x; }`},
		{"gep-base", `struct buf { int n; int arr[4]; };
int f(struct buf* p, int i) { return p->arr[i]; }`},
		{"wider", pointSrc + `long f(struct pt* p) { return *(long*)&p->x; }`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := lower(t, c.src).Lookup("f")
			mod := lower(t, c.src)
			Transform(mod, nil, DefaultOptions(ModeFull))
			if n := intersections(t, before, mod.Lookup("f")); n != 1 {
				t.Fatalf("intersections = %d, want 1:\n%s", n, mod.Lookup("f"))
			}
		})
	}

	// A field pointer register with a second definition keeps the
	// intersection even when every use is a direct access: the
	// other definition's value may reach the use.
	t.Run("redefined", func(t *testing.T) {
		src := pointSrc + `int f(struct pt* p, struct pt* q) { return p->y; }`
		before := lower(t, src).Lookup("f")
		mod := lower(t, src)
		f := mod.Lookup("f")
		at := shrinkGEPs(f)
		if len(at) != 1 {
			t.Fatalf("%d shrink GEPs, want 1", len(at))
		}
		b := f.Blocks[at[0][0]]
		gep := b.Insts[at[0][1]]
		redef := ir.Inst{Kind: ir.KMov, Dst: gep.Dst, A: ir.R(f.ParamRegs[1])}
		b.Insts = append(b.Insts[:at[0][1]:at[0][1]], append([]ir.Inst{redef}, b.Insts[at[0][1]:]...)...)
		Transform(mod, nil, DefaultOptions(ModeFull))
		if n := intersections(t, before, f); n != 1 {
			t.Fatalf("intersections = %d, want 1:\n%s", n, f)
		}
	})

	// A store whose address and value are the same field pointer is
	// a direct access and an escape at once.
	t.Run("stored-through-itself", func(t *testing.T) {
		src := `struct self { struct self* s; };
void f(struct self* p, struct self* v) { p->s = v; }`
		before := lower(t, src).Lookup("f")
		mod := lower(t, src)
		f := mod.Lookup("f")
		stores := 0
		for _, b := range f.Blocks {
			for i := range b.Insts {
				if in := &b.Insts[i]; in.Kind == ir.KStore {
					in.B = in.A
					stores++
				}
			}
		}
		if stores != 1 {
			t.Fatalf("%d stores, want 1", stores)
		}
		Transform(mod, nil, DefaultOptions(ModeFull))
		if n := intersections(t, before, f); n != 1 {
			t.Fatalf("intersections = %d, want 1:\n%s", n, f)
		}
	})
}

func TestGlobalBoundsAreCompileTimeConstants(t *testing.T) {
	mod := lower(t, `
int garr[10];
int* gp(void) { return garr; }
`)
	sizer := func(name string) (int64, bool) { return 0, false }
	Transform(mod, sizer, DefaultOptions(ModeFull))
	f := mod.Lookup("gp")
	// The return metadata must reference @garr+0 and @garr+40.
	s := f.String()
	if !strings.Contains(s, "@garr") || !strings.Contains(s, "@garr+40") {
		t.Fatalf("global bounds missing:\n%s", s)
	}
}

func TestIndirectCallCheckFullOnly(t *testing.T) {
	src := `
typedef int (*fn)(int);
int call(fn f, int x) { return f(x); }
`
	mod := lower(t, src)
	Transform(mod, nil, DefaultOptions(ModeFull))
	if n := countChecks(mod.Lookup("call"), ir.CheckCall); n != 1 {
		t.Errorf("full mode call checks = %d, want 1", n)
	}
	mod2 := lower(t, src)
	Transform(mod2, nil, DefaultOptions(ModeStoreOnly))
	if n := countChecks(mod2.Lookup("call"), ir.CheckCall); n != 0 {
		t.Errorf("store-only call checks = %d, want 0", n)
	}
}

func TestCallSiteMetadataArgs(t *testing.T) {
	mod := lower(t, `
int callee(int* p);
int caller(int* p) { return callee(p); }
`)
	Transform(mod, nil, DefaultOptions(ModeFull))
	f := mod.Lookup("caller")
	found := false
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Kind == ir.KCall {
				if len(in.Shadow) == 1 && in.Shadow[0].Arg == 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("call site carries no metadata for its pointer argument")
	}
}

func TestIntToPointerGetsNullBounds(t *testing.T) {
	mod := lower(t, `int read_at(long a) { return *(int*)a; }`)
	Transform(mod, nil, DefaultOptions(ModeFull))
	f := mod.Lookup("read_at")
	// The conv to pointer must be followed by metadata zeroing: the
	// check's Base operand is a register fed by constants 0.
	s := f.String()
	if !strings.Contains(s, "conv") || !strings.Contains(s, "check.load") {
		t.Fatalf("missing conv/check:\n%s", s)
	}
}

func TestTransformIsIdempotent(t *testing.T) {
	mod := lower(t, ptrProg)
	Transform(mod, nil, DefaultOptions(ModeFull))
	before := mod.Lookup("deref").String()
	Transform(mod, nil, DefaultOptions(ModeFull)) // second run: no-op
	after := mod.Lookup("deref").String()
	if before != after {
		t.Fatal("double transformation changed the function")
	}
}

// Transform rewrites every block through one module-wide buffer; each
// block must still end up with an array of its own, or an in-place pass
// over one block would rewrite another.
func TestTransformBlocksOwnTheirArrays(t *testing.T) {
	mod := lower(t, ptrProg+`
int sum(int* a, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		if (a[i] > 0) s += a[i]; else s -= a[i];
	}
	return s;
}
`)
	Transform(mod, nil, DefaultOptions(ModeFull))
	type span struct {
		lo, hi uintptr
		where  string
	}
	var spans []span
	size := unsafe.Sizeof(ir.Inst{})
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			if cap(b.Insts) == 0 {
				continue
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(b.Insts)))
			spans = append(spans, span{lo, lo + uintptr(cap(b.Insts))*size, f.Name + "/" + b.Name})
		}
	}
	if len(spans) < 8 {
		t.Fatalf("only %d blocks to compare", len(spans))
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("blocks %s and %s share a backing array", spans[i].where, spans[j].where)
			}
		}
	}
}
