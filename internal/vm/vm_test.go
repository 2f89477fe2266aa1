package vm

import (
	"math"
	"testing"
	"testing/quick"

	"softbound/internal/faults"
	"softbound/internal/ir"
	"softbound/internal/meta"
)

// ----------------------------------------------------------------- memory

func TestMemSegments(t *testing.T) {
	m := NewMem(4096, 1<<20, 1<<20)

	// Globals.
	if err := m.WriteU64(GlobalBase+8, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(GlobalBase + 8)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("global rw: %v %x", err, v)
	}

	// Heap.
	if err := m.WriteU32(HeapBase, 42); err != nil {
		t.Fatal(err)
	}

	// Stack.
	if err := m.WriteU16(StackTop-16, 7); err != nil {
		t.Fatal(err)
	}

	// Unmapped: null page, gaps, beyond segments.
	for _, addr := range []uint64{0, 8, GlobalBase + 4096, HeapBase - 8, StackTop} {
		if _, err := m.ReadU64(addr); err == nil {
			t.Errorf("read of unmapped 0x%x succeeded", addr)
		}
	}

	// Range straddling a segment end faults.
	if err := m.WriteU64(GlobalBase+4092, 1); err == nil {
		t.Error("straddling write succeeded")
	}
	// Overflow-safe bounds arithmetic.
	if m.Valid(^uint64(0)-4, 16) {
		t.Error("wrap-around range validated")
	}
}

func TestMemEndianness(t *testing.T) {
	m := NewMem(64, 0, 0)
	m.WriteU64(GlobalBase, 0x0102030405060708)
	b, _ := m.ReadU8(GlobalBase)
	if b != 0x08 {
		t.Fatalf("little-endian violated: first byte %x", b)
	}
	w, _ := m.ReadU16(GlobalBase + 6)
	if w != 0x0102 {
		t.Fatalf("u16 at offset 6: %x", w)
	}
}

func TestCString(t *testing.T) {
	m := NewMem(64, 0, 0)
	m.WriteBytes(GlobalBase, []byte("hi\x00junk"))
	s, err := m.CString(GlobalBase, 100)
	if err != nil || s != "hi" {
		t.Fatalf("CString = %q, %v", s, err)
	}
}

// --------------------------------------------------------------- allocator

func TestHeapAllocator(t *testing.T) {
	h := newHeapAllocator(HeapBase + 1<<20)
	a := h.alloc(10)
	b := h.alloc(10)
	if a == 0 || b == 0 || a == b {
		t.Fatalf("allocs: %x %x", a, b)
	}
	if b != a+16 {
		t.Fatalf("blocks not contiguous: %x %x", a, b)
	}
	if h.size(a) != 10 {
		t.Fatalf("size(a) = %d", h.size(a))
	}
	if !h.release(a) {
		t.Fatal("release failed")
	}
	if h.release(a) {
		t.Fatal("double free succeeded")
	}
	// Reuse from the free list.
	c := h.alloc(12)
	if c != a {
		t.Fatalf("free block not reused: %x want %x", c, a)
	}
	// OOM.
	if h.alloc(1<<30) != 0 {
		t.Fatal("oversized alloc succeeded")
	}
	if h.alloc(0) == 0 {
		t.Fatal("malloc(0) returned NULL (we give a minimal block)")
	}
}

// --------------------------------------------------------------- semantics

func TestWrapInt(t *testing.T) {
	cases := []struct {
		v      uint64
		width  int
		signed bool
		want   uint64
	}{
		{0x1FF, 8, false, 0xFF},
		{0x1FF, 8, true, 0xFFFFFFFFFFFFFFFF}, // 0xFF sign-extends to -1
		{0x80, 8, true, 0xFFFFFFFFFFFFFF80},
		{0x7F, 8, true, 0x7F},
		{0xFFFFFFFF, 32, false, 0xFFFFFFFF},
		{0xFFFFFFFF, 32, true, 0xFFFFFFFFFFFFFFFF},
		{5, 64, true, 5},
		{5, 0, true, 5},
	}
	for _, c := range cases {
		if got := wrapInt(c.v, c.width, c.signed); got != c.want {
			t.Errorf("wrapInt(%#x, %d, %v) = %#x, want %#x", c.v, c.width, c.signed, got, c.want)
		}
	}
}

func TestWrapIntIdempotent(t *testing.T) {
	f := func(v uint64, w uint8, signed bool) bool {
		width := int(w%9) * 8 // 0..64
		once := wrapInt(v, width, signed)
		twice := wrapInt(once, width, signed)
		return once == twice
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExecConv(t *testing.T) {
	// double -> int32 truncation.
	in := &ir.Inst{Kind: ir.KConv, Mem: ir.MemI32, ConvSrc: ir.MemF64, IntWidth: 32, Signed: true}
	got := execConv(math.Float64bits(-3.7), in)
	if int64(got) != -3 {
		t.Errorf("(-3.7) -> %d, want -3", int64(got))
	}
	// NaN -> 0.
	if execConv(math.Float64bits(math.NaN()), in) != 0 {
		t.Error("NaN conversion not clamped")
	}
	// int -> double.
	in2 := &ir.Inst{Kind: ir.KConv, Mem: ir.MemF64, ConvSrc: ir.MemI64, Signed: true}
	got = execConv(uint64(0xFFFFFFFFFFFFFFFF), in2) // -1
	if math.Float64frombits(got) != -1.0 {
		t.Errorf("int->double: %v", math.Float64frombits(got))
	}
	// unsigned int -> double.
	in3 := &ir.Inst{Kind: ir.KConv, Mem: ir.MemF64, ConvSrc: ir.MemU32, Signed: false}
	got = execConv(uint64(1<<63), in3)
	if math.Float64frombits(got) != math.Ldexp(1, 63) {
		t.Errorf("uint->double: %v", math.Float64frombits(got))
	}
	// int -> float32 rounding.
	in4 := &ir.Inst{Kind: ir.KConv, Mem: ir.MemF32, ConvSrc: ir.MemI64, Signed: true}
	got = execConv(uint64(16777217), in4) // not representable in f32
	if math.Float64frombits(got) != 16777216.0 {
		t.Errorf("f32 rounding: %v", math.Float64frombits(got))
	}
	// Overflow clamps rather than wrapping surprisingly.
	got = execConv(math.Float64bits(1e30), in)
	if int64(got) != truncHelper(math.MaxInt64, 32) {
		t.Logf("clamp result: %d", int64(got))
	}
}

func truncHelper(v int64, width int) int64 {
	return int64(wrapInt(uint64(v), width, true))
}

// ------------------------------------------------------------ mini modules

// buildModule assembles a module with one function executing the
// instructions (plus implicit terminator handling by the caller).
func buildModule(f *ir.Func, globals ...*ir.Global) *ir.Module {
	m := ir.NewModule("test")
	m.AddFunc(f)
	m.Globals = globals
	return m
}

func TestRunTrivialMain(t *testing.T) {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KRet, HasVal: true, A: ir.CI(42)},
	}}}
	v, err := New(buildModule(f), Config{})
	if err != nil {
		t.Fatal(err)
	}
	code, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 42 {
		t.Fatalf("exit = %d", code)
	}
}

// TestNewRejectsTemporalMismatch: the VM's temporal switch and its
// metadata facility cannot disagree in either direction, also when the
// facility is wrapped by the fault injector; a nil
// facility is built to match the switch.
func TestNewRejectsTemporalMismatch(t *testing.T) {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{{Kind: ir.KRet, HasVal: true, A: ir.CI(0)}}}}
	mod := buildModule(f)
	drop := faults.NewInjector(faults.Plan{Seed: 1, DropEvery: 3})
	for _, temporal := range []bool{false, true} {
		other := !temporal
		for name, fac := range map[string]meta.Facility{
			"shadow":  meta.NewShadowSpace(other),
			"hash":    meta.MustHashTable(16, other),
			"faulted": drop.WrapFacility(meta.MustHashTable(16, other)),
		} {
			if _, err := New(mod, Config{Meta: fac, Temporal: temporal}); err == nil {
				t.Errorf("Temporal=%v over a %s facility built temporal=%v: New accepted it", temporal, name, other)
			}
		}
		if _, err := New(mod, Config{Meta: meta.NewShadowSpace(temporal), Temporal: temporal}); err != nil {
			t.Errorf("Temporal=%v over a matching facility: %v", temporal, err)
		}
		v, err := New(mod, Config{Temporal: temporal})
		if err != nil {
			t.Fatalf("Temporal=%v with the default facility: %v", temporal, err)
		}
		if want := meta.NewShadowSpace(temporal).Costs(); v.fac.Costs() != want {
			t.Errorf("Temporal=%v: default facility costs %+v, want %+v", temporal, v.fac.Costs(), want)
		}
	}
}

func TestGlobalInitAndRelocation(t *testing.T) {
	g1 := &ir.Global{Name: "data", Size: 16, Align: 8,
		Init: []byte{1, 0, 0, 0, 0, 0, 0, 0}}
	g2 := &ir.Global{Name: "ptr", Size: 8, Align: 8,
		PtrInits: []ir.PtrInit{{Offset: 0, Sym: "data", Addend: 4}}}

	// main loads the relocated pointer and compares with &data+4.
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	f.NewReg(ir.ClassPtr) // r0: loaded pointer
	f.NewReg(ir.ClassInt) // r1: comparison
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KLoad, Dst: 0, A: ir.GV("ptr", 0), Mem: ir.MemPtr},
		{Kind: ir.KCmp, Dst: 1, Pred: ir.PredEQ, A: ir.R(0), B: ir.GV("data", 4)},
		{Kind: ir.KRet, HasVal: true, A: ir.R(1)},
	}}}
	v, err := New(buildModule(f, g1, g2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	code, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatal("relocated pointer mismatch")
	}
	// Metadata was seeded for the initialized pointer (paper §5.2).
	e := v.fac.Lookup(v.GlobalAddr("ptr"))
	if e.Base != v.GlobalAddr("data") || e.Bound != v.GlobalAddr("data")+16 {
		t.Fatalf("seeded metadata: %+v", e)
	}
}

func TestSpatialViolationErrorRendering(t *testing.T) {
	e := &SpatialViolation{Kind: ir.CheckStore, Ptr: 0x100, Base: 0x80,
		Bound: 0x100, Size: 4, Func: "f"}
	s := e.Error()
	if s == "" || len(s) < 20 {
		t.Fatalf("weak error: %q", s)
	}
}

func TestStepLimit(t *testing.T) {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KBr, Target: 0}, // infinite loop
	}}}
	v, err := New(buildModule(f), Config{StepLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err == nil {
		t.Fatal("runaway loop not stopped")
	}
}

func TestDivisionByZeroTrap(t *testing.T) {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KBin, Dst: 0, Op: ir.OpDiv, A: ir.CI(1), B: ir.CI(0), Signed: true},
		{Kind: ir.KRet, HasVal: true, A: ir.R(0)},
	}}}
	v, _ := New(buildModule(f), Config{})
	if _, err := v.Run(); err == nil {
		t.Fatal("division by zero not trapped")
	}
}
