// Package ir defines the typed intermediate representation the SoftBound
// pipeline operates on. It is a register-based three-address code with
// explicit memory operations, modeled on the relevant slice of LLVM IR:
// unlimited virtual registers, alloca/load/store, a GEP-like address
// instruction, calls, and branch terminators.
//
// SoftBound instruments exactly this form (paper §3.1): every pointer
// register acquires companion base/bound registers, dereferences get Check
// instructions, pointer loads/stores get MetaLoad/MetaStore instructions,
// and calls get extra metadata arguments. Those metadata instructions are
// first-class here so the optimizer can see (and eliminate) them and the
// VM can cost them per the chosen metadata facility.
package ir

import (
	"fmt"
	"sync"
)

// Class is the register class of a value.
type Class int

// Register classes.
const (
	ClassInt Class = iota
	ClassFloat
	ClassPtr
)

func (c Class) String() string {
	switch c {
	case ClassInt:
		return "i"
	case ClassFloat:
		return "f"
	case ClassPtr:
		return "p"
	}
	return "?"
}

// MemType describes the width and interpretation of a memory access.
type MemType int

// Memory access types.
const (
	MemI8 MemType = iota
	MemU8
	MemI16
	MemU16
	MemI32
	MemU32
	MemI64
	MemF32
	MemF64
	MemPtr
)

// Size returns the access size in bytes.
func (m MemType) Size() int64 {
	switch m {
	case MemI8, MemU8:
		return 1
	case MemI16, MemU16:
		return 2
	case MemI32, MemU32, MemF32:
		return 4
	default:
		return 8
	}
}

// Class returns the register class loaded/stored by this access.
func (m MemType) Class() Class {
	switch m {
	case MemF32, MemF64:
		return ClassFloat
	case MemPtr:
		return ClassPtr
	default:
		return ClassInt
	}
}

func (m MemType) String() string {
	return [...]string{"i8", "u8", "i16", "u16", "i32", "u32", "i64", "f32", "f64", "ptr"}[m]
}

// Op is a binary/unary arithmetic operator.
type Op int

// Operators. Signedness and width are carried by the instruction.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg // unary
	OpNot // unary bitwise complement
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
)

func (o Op) String() string {
	return [...]string{"add", "sub", "mul", "div", "rem", "and", "or", "xor",
		"shl", "shr", "neg", "not", "fadd", "fsub", "fmul", "fdiv", "fneg"}[o]
}

// Pred is a comparison predicate.
type Pred int

// Comparison predicates.
const (
	PredEQ Pred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
	PredFEQ
	PredFNE
	PredFLT
	PredFLE
	PredFGT
	PredFGE
)

func (p Pred) String() string {
	return [...]string{"eq", "ne", "lt", "le", "gt", "ge",
		"feq", "fne", "flt", "fle", "fgt", "fge"}[p]
}

// Reg is a virtual register number. Register 0 is valid.
type Reg int

// NoReg marks an absent register operand.
const NoReg Reg = -1

func (r Reg) String() string { return fmt.Sprintf("%%%d", int(r)) }

// Value is an instruction operand: a register, an immediate, or a symbol
// reference.
type Value struct {
	Kind  ValueKind
	Reg   Reg
	Int   int64
	Float float64
	Sym   string // global or function name
	Off   int64  // constant byte offset added to a symbol address
}

// ValueKind discriminates operand variants.
type ValueKind int

// Operand kinds.
const (
	VReg ValueKind = iota
	VConstInt
	VConstFloat
	VGlobal // address of a global (+Off)
	VFunc   // address of a function
)

// R makes a register operand.
func R(r Reg) Value { return Value{Kind: VReg, Reg: r} }

// CI makes an integer-constant operand.
func CI(v int64) Value { return Value{Kind: VConstInt, Int: v} }

// CF makes a float-constant operand.
func CF(v float64) Value { return Value{Kind: VConstFloat, Float: v} }

// GV makes a global-address operand.
func GV(name string, off int64) Value { return Value{Kind: VGlobal, Sym: name, Off: off} }

// FV makes a function-address operand.
func FV(name string) Value { return Value{Kind: VFunc, Sym: name} }

// IsReg reports whether v is the given register.
func (v Value) IsReg() bool { return v.Kind == VReg }

func (v Value) String() string {
	switch v.Kind {
	case VReg:
		return v.Reg.String()
	case VConstInt:
		return fmt.Sprintf("%d", v.Int)
	case VConstFloat:
		return fmt.Sprintf("%g", v.Float)
	case VGlobal:
		if v.Off != 0 {
			return fmt.Sprintf("@%s+%d", v.Sym, v.Off)
		}
		return "@" + v.Sym
	case VFunc:
		return "&" + v.Sym
	}
	return "?"
}

// CheckKind distinguishes what a Check guards, so store-only mode can
// filter and the metrics can attribute costs.
type CheckKind int

// Check kinds.
const (
	CheckLoad CheckKind = iota
	CheckStore
	CheckCall // function-pointer call check (base==ptr==bound encoding)
)

func (k CheckKind) String() string {
	return [...]string{"load", "store", "call"}[k]
}

// Inst is a single IR instruction. A compact struct-with-kind encoding is
// used rather than one type per instruction: the passes switch on Kind and
// the uniform shape keeps rewriting (instrumentation inserts) simple.
type Inst struct {
	Kind InstKind

	Dst Reg   // result register (NoReg if none)
	A   Value // first operand
	B   Value // second operand
	C   Value // third operand (Check bound, CondBr false target index, ...)

	Op   Op      // for KBin / KUn
	Pred Pred    // for KCmp
	Mem  MemType // for KLoad / KStore and conversion source/dest encoding

	// Width/signedness for KBin on sub-64-bit integer ops, and for KConv.
	IntWidth int  // 8, 16, 32, 64 (0 means 64)
	Signed   bool // signed arithmetic / conversion

	// ConvSrc describes the source interpretation for KConv (Mem is the
	// destination interpretation).
	ConvSrc MemType

	// KAlloca.
	Size  int64
	Align int64
	Name  string // local variable name for diagnostics

	// KCall.
	Callee Value   // VFunc for direct calls or VReg holding a function pointer
	Args   []Value // regular arguments
	// Shadow lists the shadow-stack slots the caller fills for this
	// call's metadata window: one entry per pointer argument, identified
	// by argument index. At runtime the VM reserves a window of
	// 1+len(Args) (base, bound) slots per call — slot 0 receives the
	// callee's return metadata, slot 1+i carries argument i's metadata —
	// and the callee pops slots by its *own* parameter layout, so
	// metadata survives indirect calls whose static site signature
	// disagrees with the dynamic callee (paper §3.3, §5.2).
	Shadow []ShadowSlot
	// DstBase/DstBound receive the returned pointer's metadata when the
	// callee returns a pointer and instrumentation is on.
	DstBase, DstBound Reg

	// KCheck: A=ptr, Base, Bound, AccessSize. CheckK gives the kind.
	Base, Bound Value
	AccessSize  int64
	CheckK      CheckKind

	// KGEP bounds shrinking (paper §3.1 "Shrinking Pointer Bounds"):
	// when the GEP creates a pointer to a struct field, the SoftBound
	// pass narrows the result's metadata to [dst, dst+ShrinkLen).
	Shrink    bool
	ShrinkLen int64

	// Branch targets (indices into Func.Blocks).
	Target, Else int

	// Ret: A = value (or absent); RetBase/RetBound = metadata when
	// returning a pointer under instrumentation.
	HasVal             bool
	RetBase, RetBound  Value
	RetMetaValid       bool
	SrcBase, SrcBound  Value // KMetaStore: metadata to store for the pointer at addr A
	DstBaseR, DstBndR  Reg   // KMetaLoad: receive metadata for pointer loaded from addr A
	MemcpyLen, MemSize Value // KMemMeta ops

	// Temporal (CETS lock-and-key) operands. TMeta gates every field
	// below: the zero Value/Reg are VALID operands (register 0), so the
	// VM and the optimizer must consult these only when TMeta is set —
	// spatial-only lowering leaves TMeta false and the temporal operands
	// are then meaningless zero values that nothing reads.
	TMeta             bool
	Key, Lock         Value // KCheck: allocation key + lock index of A's metadata
	SrcKey, SrcLock   Value // KMetaStore: temporal metadata to store
	DstKeyR, DstLockR Reg   // KMetaLoad: receive temporal metadata
	DstKey, DstLock   Reg   // KCall: receive returned pointer's temporal metadata
	RetKey, RetLock   Value // KRet: temporal metadata of a returned pointer
}

// ShadowSlot is one caller-filled slot of a call's shadow-stack metadata
// window: the (base, bound) pair for the pointer passed as argument Arg.
// Arguments without a slot (non-pointers) leave their window slot zeroed,
// which the runtime treats as "no metadata" (fail-closed NULL bounds).
type ShadowSlot struct {
	Arg         int // argument index; rides in window slot 1+Arg
	Base, Bound Value
	// Key/Lock carry the argument's temporal metadata when Temporal is
	// set (the zero Value is a valid register operand, so the flag gates
	// them exactly like Inst.TMeta gates the instruction-level fields).
	Key, Lock Value
	Temporal  bool
}

// InstKind discriminates instructions.
type InstKind int

// Instruction kinds.
const (
	KConst     InstKind = iota // Dst = A (constant or symbol address)
	KMov                       // Dst = A
	KBin                       // Dst = A op B
	KUn                        // Dst = op A
	KCmp                       // Dst = A pred B (0/1)
	KConv                      // Dst = conv(A) per Mem/IntWidth/Signed
	KAlloca                    // Dst = &stackslot(Size)
	KLoad                      // Dst = *(A) with Mem
	KStore                     // *(A) = B with Mem
	KGEP                       // Dst = A + B*Size + C(imm offset)  [address arithmetic]
	KCall                      // Dst? = call Callee(Args)
	KRet                       // return A?
	KBr                        // br Target
	KCondBr                    // if A != 0 br Target else Else
	KCheck                     // spatial check(A in [Base, Bound-AccessSize])
	KMetaLoad                  // DstBaseR/DstBndR = table_lookup(A)
	KMetaStore                 // table_update(A, SrcBase, SrcBound)
	KMetaClear                 // table_clear(A, MemSize) — clear metadata range
	KUnreachable
)

func (k InstKind) String() string {
	return [...]string{"const", "mov", "bin", "un", "cmp", "conv", "alloca",
		"load", "store", "gep", "call", "ret", "br", "condbr", "check",
		"metaload", "metastore", "metaclear", "unreachable"}[k]
}

// Block is a basic block: straight-line instructions ending in a
// terminator (KRet, KBr, KCondBr, KUnreachable).
type Block struct {
	Name  string
	Insts []Inst
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[len(b.Insts)-1]
}

// Param describes a function parameter.
type Param struct {
	Name  string
	Class Class
	// IsPtr is true for pointer parameters: under SoftBound these gain
	// base/bound companion parameters (paper §3.3).
	IsPtr bool
}

// Func is a function body.
type Func struct {
	Name     string
	Params   []Param
	RetClass Class
	RetIsPtr bool
	HasRet   bool // returns a value
	Variadic bool
	Blocks   []*Block
	NumRegs  int
	// ParamRegs maps parameter position to the register receiving it.
	// irgen assigns 0..n-1; the SoftBound pass appends registers for
	// the base/bound companion parameters.
	ParamRegs []Reg
	// OrigParams is the parameter count before SoftBound extended the
	// signature (callers pass metadata for the first OrigParams only).
	OrigParams int
	// RegClass records each virtual register's class; SoftBound uses it
	// to find the pointer registers that need base/bound companions.
	RegClass []Class

	// Transformed marks functions already instrumented by SoftBound
	// (the paper renames them with an _sb_ prefix; we keep the name and
	// set this flag plus the SBName).
	Transformed bool
	SBName      string

	// FrameSize is the total alloca footprint, computed by Finalize.
	FrameSize int64
	// Allocas lists (offset, size, name); allocas execute as
	// frame-pointer offsets.
	Allocas []AllocaSlot

	// ClearSlots lists frame ranges holding pointers whose metadata the
	// SoftBound epilogue must clear on return (paper §5.2 "memory reuse
	// and stale metadata").
	ClearSlots []AllocaSlot

	// Temporal marks functions lowered with CETS lock-and-key metadata:
	// pointer parameters carry four metadata registers (base, bound, key,
	// lock) instead of two, the VM issues a frame lock on entry (seeded
	// into FrameKeyReg/FrameLockReg for alloca'd pointers) and revokes it
	// on every frame exit. The registers are meaningful only when
	// Temporal is set — Reg's zero value is the valid register 0.
	Temporal                  bool
	FrameKeyReg, FrameLockReg Reg
}

// AllocaSlot records a stack slot in the frame.
type AllocaSlot struct {
	Offset int64
	Size   int64
	Name   string
}

// NewReg allocates a fresh virtual register of the given class.
func (f *Func) NewReg(c Class) Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	f.RegClass = append(f.RegClass, c)
	return r
}

// NewBlock appends a new basic block and returns its index.
func (f *Func) NewBlock(name string) int {
	f.Blocks = append(f.Blocks, &Block{Name: name})
	return len(f.Blocks) - 1
}

// PtrInit records a pointer-valued word in a global's initializer that
// must be relocated at layout time (and whose metadata must be seeded —
// paper §5.2 "global variables").
type PtrInit struct {
	Offset int64  // byte offset within the global
	Sym    string // target global name, or "" when Func != ""
	Func   string // target function name
	Addend int64
	// Bounds of the target object for metadata seeding; filled by the
	// linker from the target's size.
}

// Global is a global variable definition.
type Global struct {
	Name  string
	Size  int64
	Align int64
	// Init is the initial bytes (len <= Size; rest zero). Pointer words
	// within are listed in PtrInits and patched at layout time.
	Init     []byte
	PtrInits []PtrInit
	// ContainsPtr notes whether the global's type contains pointers
	// (drives metadata clearing decisions).
	ContainsPtr bool
	// ReadOnly marks string-literal storage.
	ReadOnly bool
}

// Module is a linkage unit: functions plus globals.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global

	funcIdx map[string]*Func

	decodedMu sync.Mutex
	decoded   any
}

// Decoded returns the module's cached pre-decoded program, building it
// with build on first use. The VM's decode stage uses this so concurrent
// VMs over one module (the serve compile cache, the parallel bench
// harness) share a single decode. The cache assumes the module is frozen
// by the time the first VM runs — the same read-only contract the VM
// already imposes — and the stored value is opaque to this package so ir
// does not depend on the VM's decoded representation.
func (m *Module) Decoded(build func() any) any {
	m.decodedMu.Lock()
	defer m.decodedMu.Unlock()
	if m.decoded == nil {
		m.decoded = build()
	}
	return m.decoded
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, funcIdx: make(map[string]*Func)}
}

// AddFunc appends f, indexing it by name.
func (m *Module) AddFunc(f *Func) {
	m.Funcs = append(m.Funcs, f)
	if m.funcIdx == nil {
		m.funcIdx = make(map[string]*Func)
	}
	m.funcIdx[f.Name] = f
}

// Lookup returns the function with the given name, or nil.
func (m *Module) Lookup(name string) *Func {
	if m.funcIdx == nil {
		m.funcIdx = make(map[string]*Func)
		for _, f := range m.Funcs {
			m.funcIdx[f.Name] = f
		}
	}
	return m.funcIdx[name]
}

// GlobalByName returns the named global, or nil.
func (m *Module) GlobalByName(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Link merges other into m. Duplicate function definitions are an error;
// a duplicate global keeps the first definition (tentative definitions).
func (m *Module) Link(other *Module) error {
	for _, f := range other.Funcs {
		if m.Lookup(f.Name) != nil {
			return fmt.Errorf("link: duplicate definition of function %q", f.Name)
		}
		m.AddFunc(f)
	}
	for _, g := range other.Globals {
		if m.GlobalByName(g.Name) == nil {
			m.Globals = append(m.Globals, g)
		}
	}
	return nil
}
