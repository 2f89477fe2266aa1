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

func TestShrinkOnFieldGEP(t *testing.T) {
	src := `
struct s { char str[8]; long tail; };
char* fieldptr(struct s* p) { return p->str; }
`
	mod := lower(t, src)
	Transform(mod, nil, DefaultOptions(ModeFull))
	f := mod.Lookup("fieldptr")
	// With shrinking, the field GEP's metadata is derived from the GEP
	// result (base := dst), not inherited: look for a KMov of the GEP
	// dst into a shadow register right after a shrink GEP.
	sawShrink := false
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Kind == ir.KGEP && b.Insts[i].Shrink {
				sawShrink = true
				if b.Insts[i].ShrinkLen != 8 {
					t.Errorf("shrink len = %d, want 8", b.Insts[i].ShrinkLen)
				}
			}
		}
	}
	if !sawShrink {
		t.Fatal("no shrink-marked GEP for the field address")
	}

	// With shrinking disabled (ablation), metadata is inherited.
	mod2 := lower(t, src)
	opts := DefaultOptions(ModeFull)
	opts.ShrinkBounds = false
	Transform(mod2, nil, opts)
	// Still compiles and instruments; the semantic difference is
	// covered end-to-end in the driver/bugbench tests.
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
