package ir

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

func TestValueConstructors(t *testing.T) {
	if v := R(3); !v.IsReg() || v.Reg != 3 {
		t.Errorf("R: %+v", v)
	}
	if v := CI(-7); v.Kind != VConstInt || v.Int != -7 {
		t.Errorf("CI: %+v", v)
	}
	if v := CF(2.5); v.Kind != VConstFloat || v.Float() != 2.5 {
		t.Errorf("CF: %+v", v)
	}
	if v := GV("g", 8); v.Kind != VGlobal || v.Sym != "g" || v.Off() != 8 {
		t.Errorf("GV: %+v", v)
	}
	if v := FV("f"); v.Kind != VFunc || v.Sym != "f" {
		t.Errorf("FV: %+v", v)
	}
}

func TestMemTypeProperties(t *testing.T) {
	sizes := map[MemType]int64{
		MemI8: 1, MemU8: 1, MemI16: 2, MemU16: 2,
		MemI32: 4, MemU32: 4, MemF32: 4,
		MemI64: 8, MemF64: 8, MemPtr: 8,
	}
	for mt, want := range sizes {
		if mt.Size() != want {
			t.Errorf("%v.Size() = %d want %d", mt, mt.Size(), want)
		}
	}
	if MemPtr.Class() != ClassPtr || MemF32.Class() != ClassFloat || MemI8.Class() != ClassInt {
		t.Error("MemType.Class misclassifies")
	}
}

func TestNewRegTracksClasses(t *testing.T) {
	f := &Func{Name: "f"}
	r0 := f.NewReg(ClassInt)
	r1 := f.NewReg(ClassPtr)
	if r0 != 0 || r1 != 1 || f.NumRegs != 2 {
		t.Fatalf("regs: %d %d %d", r0, r1, f.NumRegs)
	}
	if f.RegClass[0] != ClassInt || f.RegClass[1] != ClassPtr {
		t.Fatal("classes not recorded")
	}
}

func TestModuleLookupAndLink(t *testing.T) {
	m1 := NewModule("a")
	m1.AddFunc(&Func{Name: "f"})
	m1.Globals = append(m1.Globals, &Global{Name: "g", Size: 8})

	m2 := NewModule("b")
	m2.AddFunc(&Func{Name: "h"})
	m2.Globals = append(m2.Globals, &Global{Name: "g", Size: 8}) // tentative dup

	if err := m1.Link(m2); err != nil {
		t.Fatal(err)
	}
	if m1.Lookup("h") == nil || m1.Lookup("f") == nil {
		t.Fatal("lookup after link failed")
	}
	if len(m1.Globals) != 1 {
		t.Fatalf("dup global not collapsed: %d", len(m1.Globals))
	}

	m3 := NewModule("c")
	m3.AddFunc(&Func{Name: "f"})
	if err := m1.Link(m3); err == nil {
		t.Fatal("duplicate function definition linked")
	}
}

// TestInstStringCoverage renders every kind. The metadata-carrying
// kinds are pinned to their exact text at both tuple widths; the rest
// need only render something.
func TestInstStringCoverage(t *testing.T) {
	callShadow := []ShadowSlot{{Arg: 0, Meta: [4]Value{R(3), R(4), R(10), R(11)}}}
	cases := []struct {
		in   Inst
		want string // "" = any non-empty text
	}{
		{Inst{Kind: KConst, Dst: 0, A: CI(1)}, ""},
		{Inst{Kind: KBin, Dst: 1, Op: OpAdd, A: R(0), B: CI(2), IntWidth: 32, Signed: true}, ""},
		{Inst{Kind: KCmp, Dst: 2, Pred: PredLT, A: R(0), B: R(1)}, ""},
		{Inst{Kind: KLoad, Dst: 3, A: R(0), Mem: MemPtr}, ""},
		{Inst{Kind: KStore, A: R(0), B: R(3), Mem: MemI32}, ""},
		{Inst{Kind: KGEP, Dst: 4, A: R(0), B: R(1), Size: 4, C: CI(8)}, ""},
		{Inst{Kind: KCall, Dst: 5, Callee: FV("malloc"), Args: []Value{CI(8)}},
			"%5 = call &malloc(8)"},
		{Inst{Kind: KCall, Dst: 5, Callee: FV("f"), Args: []Value{R(1), CI(2)},
			RetMetaValid: true, MetaDst: [4]Reg{6, 7, 8, 9}, Shadow: callShadow},
			"%5,%6,%7 = call &f(%1, 2) shadow{0:[%3,%4]}"},
		{Inst{Kind: KCall, Dst: 5, Callee: FV("f"), Args: []Value{R(1), CI(2)},
			RetMetaValid: true, MetaDst: [4]Reg{6, 7, 8, 9}, Shadow: callShadow, TMeta: true},
			"%5,%6,%7,%8,%9 = call &f(%1, 2) shadow{0:[%3,%4,%10,%11]}"},
		{Inst{Kind: KRet}, "ret"},
		{Inst{Kind: KRet, HasVal: true, A: R(5)}, "ret %5"},
		{Inst{Kind: KRet, HasVal: true, A: R(5), RetMetaValid: true,
			Meta: [4]Value{R(6), R(7), R(8), R(9)}}, "ret %5 [%6,%7]"},
		{Inst{Kind: KRet, HasVal: true, A: R(5), RetMetaValid: true,
			Meta: [4]Value{R(6), R(7), R(8), R(9)}, TMeta: true}, "ret %5 [%6,%7,%8,%9]"},
		{Inst{Kind: KCheck, A: R(0), Meta: [4]Value{R(1), R(2), R(3), R(4)},
			AccessSize: 4, CheckK: CheckStore}, "check.store %0 in [%1, %2) size=4"},
		{Inst{Kind: KCheck, A: R(0), Meta: [4]Value{R(1), R(2), R(3), R(4)},
			AccessSize: 8, CheckK: CheckLoad, TMeta: true},
			"check.load %0 in [%1, %2) size=8 key=%3 lock=%4"},
		{Inst{Kind: KMetaLoad, A: R(0), MetaDst: [4]Reg{6, 7, 8, 9}}, "%6,%7 = metaload %0"},
		{Inst{Kind: KMetaLoad, A: R(0), MetaDst: [4]Reg{6, 7, 8, 9}, TMeta: true},
			"%6,%7,%8,%9 = metaload %0"},
		{Inst{Kind: KMetaStore, A: R(0), Meta: [4]Value{R(6), R(7), R(8), R(9)}},
			"metastore %0, [%6,%7]"},
		{Inst{Kind: KMetaStore, A: R(0), Meta: [4]Value{R(6), R(7), R(8), R(9)}, TMeta: true},
			"metastore %0, [%6,%7,%8,%9]"},
		{Inst{Kind: KMetaClear, A: R(0), B: CI(16)}, "metaclear %0, 16"},
		{Inst{Kind: KMetaClear, A: R(0), B: CI(16), TMeta: true}, "metaclear %0, 16"},
		{Inst{Kind: KBr, Target: 2}, ""},
		{Inst{Kind: KCondBr, A: R(2), Target: 1, Else: 2}, ""},
		{Inst{Kind: KUnreachable}, ""},
		{Inst{Kind: KAlloca, Dst: 8, Size: 32, Name: "buf", C: CI(0)}, ""},
		{Inst{Kind: KConv, Dst: 9, A: R(1), Mem: MemF64, ConvSrc: MemI64}, ""},
		{Inst{Kind: KUn, Dst: 10, Op: OpNeg, A: R(1)}, ""},
		{Inst{Kind: KMov, Dst: 11, A: R(10)}, ""},
	}
	term := 0
	for _, c := range cases {
		s := c.in.String()
		switch {
		case s == "":
			t.Errorf("empty render for kind %v", c.in.Kind)
		case c.want != "" && s != c.want:
			t.Errorf("%v (TMeta=%v) renders %q, want %q", c.in.Kind, c.in.TMeta, s, c.want)
		}
		if c.in.IsTerminator() {
			term++
		}
	}
	if term != 7 { // 4 rets, br, condbr, unreachable
		t.Errorf("terminators = %d", term)
	}
}

// TestInstSize pins the size of an operand, an instruction and a shadow
// slot on 64-bit targets: one metadata tuple each, not a field per word,
// and operands of one narrow kind, an int32 register, one 64-bit payload
// and a symbol.
func TestInstSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("sizeof(Value) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(Inst{}); got > 432 {
		t.Errorf("sizeof(Inst) = %d, want <= 432", got)
	}
	if got := unsafe.Sizeof(ShadowSlot{}); got != 136 {
		t.Errorf("sizeof(ShadowSlot) = %d, want 136", got)
	}
}

// fullInst sets every operand field of an instruction to a distinct
// register (register 0 is nowhere), so a walker that reports a field its
// kind does not read shows up as an extra register.
func fullInst(k InstKind, tmeta bool) Inst {
	return Inst{Kind: k, TMeta: tmeta, HasVal: true, RetMetaValid: true,
		Dst: 1, A: R(2), B: R(3), C: R(4),
		Callee: R(5), Args: []Value{R(6), R(7)},
		Shadow:  []ShadowSlot{{Arg: 0, Meta: [4]Value{R(8), R(9), R(10), R(11)}}},
		Meta:    [4]Value{R(12), R(13), R(14), R(15)},
		MetaDst: [4]Reg{16, 17, 18, 19},
	}
}

func usesOf(in *Inst) []Reg {
	var rs []Reg
	in.Uses(func(v Value) {
		if v.IsReg() {
			rs = append(rs, v.Reg)
		}
	})
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}

func defsOf(in *Inst) []Reg {
	var rs []Reg
	in.Defs(func(r Reg) { rs = append(rs, r) })
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}

// TestUsesDefsEveryKind checks the operand walker over every kind at
// both tuple widths: exactly the registers the kind reads and writes,
// the temporal words only under TMeta, and the return tuple only under
// RetMetaValid.
func TestUsesDefsEveryKind(t *testing.T) {
	type sets struct{ uses, defs []Reg }
	// Spatial sets; the temporal width adds the words in wide.
	want := map[InstKind]sets{
		KConst:       {[]Reg{2}, []Reg{1}},
		KMov:         {[]Reg{2}, []Reg{1}},
		KBin:         {[]Reg{2, 3}, []Reg{1}},
		KUn:          {[]Reg{2}, []Reg{1}},
		KCmp:         {[]Reg{2, 3}, []Reg{1}},
		KConv:        {[]Reg{2}, []Reg{1}},
		KAlloca:      {nil, []Reg{1}},
		KLoad:        {[]Reg{2}, []Reg{1}},
		KStore:       {[]Reg{2, 3}, nil},
		KGEP:         {[]Reg{2, 3}, []Reg{1}},
		KCall:        {[]Reg{5, 6, 7, 8, 9}, []Reg{1, 16, 17}},
		KRet:         {[]Reg{2, 12, 13}, nil},
		KBr:          {nil, nil},
		KCondBr:      {[]Reg{2}, nil},
		KCheck:       {[]Reg{2, 12, 13}, nil},
		KMetaLoad:    {[]Reg{2}, []Reg{16, 17}},
		KMetaStore:   {[]Reg{2, 12, 13}, nil},
		KMetaClear:   {[]Reg{2, 3}, nil},
		KUnreachable: {nil, nil},
	}
	wide := map[InstKind]sets{
		KCall:      {[]Reg{10, 11}, []Reg{18, 19}},
		KRet:       {[]Reg{14, 15}, nil},
		KCheck:     {[]Reg{14, 15}, nil},
		KMetaLoad:  {nil, []Reg{18, 19}},
		KMetaStore: {[]Reg{14, 15}, nil},
	}
	sorted := func(a, b []Reg) []Reg {
		rs := append(append([]Reg(nil), a...), b...)
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		return rs
	}
	for k := KConst; k <= KUnreachable; k++ {
		w, ok := want[k]
		if !ok {
			t.Fatalf("no expected operands for %v", k)
		}
		for _, tmeta := range []bool{false, true} {
			in := fullInst(k, tmeta)
			u, d := w.uses, w.defs
			if tmeta {
				u, d = sorted(u, wide[k].uses), sorted(d, wide[k].defs)
			}
			if got := usesOf(&in); !reflect.DeepEqual(got, u) {
				t.Errorf("%v TMeta=%v: Uses = %v, want %v", k, tmeta, got, u)
			}
			if got := defsOf(&in); !reflect.DeepEqual(got, d) {
				t.Errorf("%v TMeta=%v: Defs = %v, want %v", k, tmeta, got, d)
			}

			// The zero Value and Reg name register 0: a spatial
			// instruction whose temporal words are unset must not
			// report it.
			if !tmeta {
				in.Meta[2], in.Meta[3] = Value{}, Value{}
				in.MetaDst[2], in.MetaDst[3] = 0, 0
				in.Shadow[0].Meta[2], in.Shadow[0].Meta[3] = Value{}, Value{}
				for _, r := range append(usesOf(&in), defsOf(&in)...) {
					if r == 0 {
						t.Errorf("%v: spatial instruction reports register 0", k)
					}
				}
			}
		}
	}

	// Without RetMetaValid a call defines only Dst and a ret reads no
	// tuple; without HasVal a ret reads nothing.
	call := fullInst(KCall, true)
	call.RetMetaValid = false
	if got := defsOf(&call); !reflect.DeepEqual(got, []Reg{1}) {
		t.Errorf("call without return metadata: Defs = %v", got)
	}
	ret := fullInst(KRet, true)
	ret.RetMetaValid = false
	if got := usesOf(&ret); !reflect.DeepEqual(got, []Reg{2}) {
		t.Errorf("ret without metadata: Uses = %v", got)
	}
	ret.HasVal = false
	if got := usesOf(&ret); got != nil {
		t.Errorf("bare ret: Uses = %v", got)
	}
}

func TestFuncAndModuleString(t *testing.T) {
	f := &Func{Name: "f", Params: []Param{{Name: "p", Class: ClassPtr, IsPtr: true}},
		Transformed: true, SBName: "_sb_f"}
	f.NewReg(ClassPtr)
	f.Blocks = []*Block{{Name: "entry", Insts: []Inst{{Kind: KRet}}}}
	m := NewModule("t")
	m.AddFunc(f)
	m.Globals = append(m.Globals, &Global{Name: "g", Size: 4, ReadOnly: true, ContainsPtr: true})
	s := m.String()
	for _, frag := range []string{"func f", "_sb_f", "global @g", "ro", "hasptr"} {
		if !strings.Contains(s, frag) {
			t.Errorf("module dump missing %q:\n%s", frag, s)
		}
	}
}

// TestCallShadowSlotsPrinted pins the ISSUE 6 print fix: a call's
// shadow-stack slots render explicitly — every slot the caller fills,
// keyed by argument index — with no silent truncation when the slot
// list is shorter than (or disjoint from) the argument list.
func TestCallShadowSlotsPrinted(t *testing.T) {
	in := Inst{Kind: KCall, Dst: 0, Callee: FV("sink"),
		Args: []Value{R(1), R(2), R(3)},
		Shadow: []ShadowSlot{
			{Arg: 2, Meta: [4]Value{R(4), R(5)}},
		}}
	s := in.String()
	if !strings.Contains(s, "shadow{2:[%4,%5]}") {
		t.Fatalf("shadow slot not printed explicitly: %q", s)
	}
	// No slots → no shadow clause, rather than an empty brace pair.
	in.Shadow = nil
	if s := in.String(); strings.Contains(s, "shadow") {
		t.Fatalf("slot-free call printed a shadow clause: %q", s)
	}
}
