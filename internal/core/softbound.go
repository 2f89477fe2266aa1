// Package core implements the SoftBound transformation — the paper's
// primary contribution (§3). It rewrites each function of an IR module to:
//
//  1. give every pointer-holding virtual register companion base and bound
//     registers and propagate them through pointer creation, assignment,
//     casts, and address arithmetic (§3.1);
//  2. insert a spatial check before every load and store through a
//     pointer (full mode) or before stores only (store-only mode);
//  3. insert disjoint-metadata accesses (metaload/metastore) at every load
//     and store OF a pointer value (§3.2) — the only places metadata
//     touches memory;
//  4. extend function signatures with base/bound parameters for pointer
//     arguments and metadata for pointer returns, renaming the function
//     with an _sb_ prefix marker (§3.3);
//  5. shrink bounds when a pointer to a struct field is created (§3.1),
//     which is what catches the sub-object overflows that object-table
//     approaches miss (§2.1) — wherever the field pointer escapes: a
//     pointer used only to access within the field needs no narrowing;
//  6. clear the metadata of pointer-bearing stack slots in the function
//     epilogue, and seed global metadata, per §5.2.
//
// The transformation is strictly intra-procedural: each function is
// rewritten using only its own body plus the sizes of named globals,
// which is what gives SoftBound separate compilation (§5.2). Callers and
// callees agree purely through the name-based calling convention.
package core

import (
	"softbound/internal/ir"
)

// Mode selects the checking mode.
type Mode int

// Checking modes (paper §1).
const (
	// ModeFull checks every dereference: complete spatial safety.
	ModeFull Mode = iota
	// ModeStoreOnly propagates all metadata but checks only writes:
	// the low-overhead mode that still stops security vulnerabilities.
	ModeStoreOnly
)

func (m Mode) String() string {
	if m == ModeFull {
		return "full"
	}
	return "store-only"
}

// GlobalSizer resolves a global's object size (for bounds of address-of-
// global constants). With separate compilation this is satisfied by the
// extern declaration's type, so the pass never needs other units' code.
type GlobalSizer func(name string) (int64, bool)

// Options configures the transformation.
type Options struct {
	Mode Mode
	// ShrinkBounds enables sub-object bounds narrowing at field-address
	// creation (on by default in the paper; exposed for the ablation).
	ShrinkBounds bool
	// ClearOnReturn emits metadata clearing for pointer-bearing stack
	// slots in function epilogues (paper §5.2).
	ClearOnReturn bool
	// CheckFuncPtrCalls inserts the base==ptr==bound encoding check at
	// indirect call sites (paper §5.2 "function pointers").
	CheckFuncPtrCalls bool
	// CheckArith additionally checks pointers at *arithmetic* time (the
	// design SoftBound §3.1 argues against: C legally creates
	// out-of-bounds pointers, e.g. the one-past-the-end idiom, and an
	// arithmetic-time check both costs more and raises false positives
	// on downward iteration). Exposed only for the ablation benchmark.
	CheckArith bool
	// Temporal lowers CETS lock-and-key metadata alongside the spatial
	// bounds: every pointer register gains key/lock companions, pointer
	// loads/stores move four metadata words, dereference checks carry the
	// key/lock operands (verified before the spatial compare), and
	// functions get a frame lock for their allocas. Off by default; the
	// driver enables it when a -cets metadata scheme is selected.
	Temporal bool
}

// DefaultOptions returns the paper's default configuration for a mode.
func DefaultOptions(m Mode) Options {
	return Options{
		Mode:              m,
		ShrinkBounds:      true,
		ClearOnReturn:     true,
		CheckFuncPtrCalls: m == ModeFull,
	}
}

// Transform instruments every function in the module in place. sizes must
// resolve at least every global the module references; the module's own
// globals are consulted first.
func Transform(m *ir.Module, sizes GlobalSizer, opts Options) {
	resolver := func(name string) (int64, bool) {
		if g := m.GlobalByName(name); g != nil {
			return g.Size, true
		}
		if sizes != nil {
			return sizes(name)
		}
		return 0, false
	}
	// One rewrite buffer serves the whole module; each block keeps an
	// exact-size copy of what its rewrite emitted.
	var scratch []ir.Inst
	for _, f := range m.Funcs {
		if !f.Transformed {
			scratch = transformFunc(f, resolver, opts, scratch)
		}
	}
}

// xform carries per-function instrumentation state.
type xform struct {
	f     *ir.Func
	opts  Options
	sizes GlobalSizer

	// words is the width of every metadata tuple: 2 (base, bound), or 4
	// (base, bound, key, lock) under temporal lowering.
	words int

	// meta holds each pointer register's shadow registers, one per
	// metadata word.
	meta map[ir.Reg][4]ir.Reg

	// allocaRegs maps frame offsets to the register holding the slot
	// address (for epilogue metadata clearing).
	allocaRegs map[int64]ir.Reg

	// fields holds each field pointer a bounds-shrinking GEP defines;
	// nil when the function shrinks nothing.
	fields map[ir.Reg]fieldPtr

	out []ir.Inst
}

// fieldPtr records how a shrinking GEP's destination is used: its field
// length, how often it is defined, and whether any use lets the field
// pointer escape.
type fieldPtr struct {
	len     int64
	defs    int
	escapes bool
}

// direct reports whether narrowing the field pointer is dead: it is
// defined once and used only as the address of loads and stores no
// wider than the field. Such an access [d, d+s), s ≤ len, lies inside
// the field [d, d+len), so it passes the check against
// [max(sb,d), min(se,d+len)) exactly when it passes the check against
// the incoming [sb, se).
func (p fieldPtr) direct() bool { return p.defs == 1 && !p.escapes }

// transformFunc instruments f, rewriting each block into scratch, and
// returns scratch, possibly grown, for the next function.
func transformFunc(f *ir.Func, sizes GlobalSizer, opts Options, scratch []ir.Inst) []ir.Inst {
	x := &xform{
		f:          f,
		opts:       opts,
		sizes:      sizes,
		words:      2,
		meta:       make(map[ir.Reg][4]ir.Reg),
		allocaRegs: make(map[int64]ir.Reg),
		out:        scratch,
	}
	if opts.Temporal {
		x.words = 4
	}

	// Extend the signature: metadata parameters for pointer parameters
	// (paper §3.3); under temporal lowering each pointer parameter
	// carries four metadata registers (base, bound, key, lock — the
	// softboundcets convention). The function is renamed with the _sb_
	// marker.
	for i := 0; i < f.OrigParams; i++ {
		if !f.Params[i].IsPtr {
			continue
		}
		m := x.ensure(f.ParamRegs[i], 0, x.words)
		for w, r := range m[:x.words] {
			f.Params = append(f.Params, ir.Param{
				Name: f.Params[i].Name + metaSuffix[w], Class: metaClass(w)})
			f.ParamRegs = append(f.ParamRegs, r)
		}
	}
	f.Transformed = true
	f.SBName = "_sb_" + f.Name
	if opts.Temporal {
		// The VM issues a frame lock on entry and seeds its (key, lock)
		// into these registers; alloca'd pointers inherit them, so every
		// retained pointer into the frame dies with the frame.
		f.Temporal = true
		f.FrameKeyReg = f.NewReg(ir.ClassInt)
		f.FrameLockReg = f.NewReg(ir.ClassInt)
	}

	// Pre-scan for alloca address registers (needed by epilogue clears
	// that may precede the textual alloca in block order — allocas all
	// live in the entry block in practice) and for field pointers.
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			switch {
			case in.Kind == ir.KAlloca:
				x.allocaRegs[in.C.Int] = in.Dst
			case in.Kind == ir.KGEP && in.Shrink && opts.ShrinkBounds:
				if x.fields == nil {
					x.fields = make(map[ir.Reg]fieldPtr)
				}
				x.fields[in.Dst] = fieldPtr{len: in.ShrinkLen}
			}
		}
	}
	if x.fields != nil {
		x.scanFieldUses()
	}

	for _, b := range f.Blocks {
		x.out = x.out[:0]
		for i := range b.Insts {
			x.rewrite(&b.Insts[i])
		}
		b.Insts = append([]ir.Inst(nil), x.out...)
	}
	return x.out
}

// metaSuffix names the metadata parameters of a pointer parameter.
var metaSuffix = [4]string{".base", ".bound", ".key", ".lock"}

// metaClass is the register class of metadata word w: base and bound
// are addresses, key and lock are integers.
func metaClass(w int) ir.Class {
	if w < 2 {
		return ir.ClassPtr
	}
	return ir.ClassInt
}

// ensure returns the shadow registers of pointer register r, allocating
// any of words [lo, hi) it lacks. Words are allocated when a rewrite
// first needs them, so a register's spatial pair and its temporal pair
// may be numbered apart.
func (x *xform) ensure(r ir.Reg, lo, hi int) [4]ir.Reg {
	m, ok := x.meta[r]
	if !ok {
		m = [4]ir.Reg{ir.NoReg, ir.NoReg, ir.NoReg, ir.NoReg}
	}
	grew := !ok
	for w := lo; w < hi; w++ {
		if m[w] == ir.NoReg {
			m[w] = x.f.NewReg(metaClass(w))
			grew = true
		}
	}
	if grew {
		x.meta[r] = m
	}
	return m
}

// metaOf returns words [lo, hi) of the metadata of a pointer operand
// (paper §3.1 "creating pointers"); the other words are left zero:
//
//   - a register: its shadow registers;
//   - a global address: [global, global+size) — compile-time constants —
//     and the never-revoked global lock (key 1, lock 1);
//   - a function address: base == bound == ptr (the function-pointer
//     encoding of §5.2), and the global lock;
//   - an integer constant (e.g. NULL or a cast integer): all zero — NULL
//     bounds and a key that fails the temporal check, fail-closed.
func (x *xform) metaOf(v ir.Value, lo, hi int) (m [4]ir.Value) {
	var all [4]ir.Value
	switch v.Kind {
	case ir.VReg:
		for w, r := range x.ensure(v.Reg, lo, hi) {
			all[w] = ir.R(r)
		}
	case ir.VGlobal:
		all = [4]ir.Value{ir.CI(0), ir.CI(0), ir.CI(0), ir.CI(0)}
		if size, ok := x.sizes(v.Sym); ok {
			all = [4]ir.Value{ir.GV(v.Sym, 0), ir.GV(v.Sym, size), ir.CI(1), ir.CI(1)}
		}
	case ir.VFunc:
		all = [4]ir.Value{v, v, ir.CI(1), ir.CI(1)}
	default:
		all = [4]ir.Value{ir.CI(0), ir.CI(0), ir.CI(0), ir.CI(0)}
	}
	copy(m[lo:hi], all[lo:hi])
	return m
}

// scanFieldUses counts the definitions of every field pointer and marks
// it escaping at any use other than the address of a load or store no
// wider than the field: stored as a value, passed, returned, compared,
// converted, or the base of another GEP.
func (x *xform) scanFieldUses() {
	// use marks v escaping unless it is the address of an access of
	// size bytes within the field; size 0 stands for any other use.
	use := func(v ir.Value, size int64) {
		if v.Kind != ir.VReg {
			return
		}
		if p, ok := x.fields[v.Reg]; ok && (size == 0 || size > p.len) {
			p.escapes = true
			x.fields[v.Reg] = p
		}
	}
	for _, b := range x.f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			switch in.Kind {
			case ir.KLoad:
				use(in.A, in.Mem.Size())
			case ir.KStore:
				use(in.A, in.Mem.Size())
				use(in.B, 0)
			default:
				in.Uses(func(v ir.Value) { use(v, 0) })
			}
			in.Defs(func(r ir.Reg) {
				if p, ok := x.fields[r]; ok {
					p.defs++
					x.fields[r] = p
				}
			})
		}
	}
}

func (x *xform) emit(in ir.Inst) { x.out = append(x.out, in) }

// setMeta emits assignments of words [lo, hi) of dst's shadow registers
// from m.
func (x *xform) setMeta(dst ir.Reg, m [4]ir.Value, lo, hi int) {
	d := x.ensure(dst, lo, hi)
	for w := lo; w < hi; w++ {
		x.emit(ir.Inst{Kind: ir.KMov, Dst: d[w], A: m[w]})
	}
}

// copyMeta gives dst the metadata of v: the spatial pair first, then
// the temporal pair, which is the order the registers are numbered in.
func (x *xform) copyMeta(dst ir.Reg, v ir.Value) {
	for lo := 0; lo < x.words; lo += 2 {
		x.setMeta(dst, x.metaOf(v, lo, lo+2), lo, lo+2)
	}
}

// isPtrReg reports whether r holds pointers.
func (x *xform) isPtrReg(r ir.Reg) bool {
	return int(r) < len(x.f.RegClass) && x.f.RegClass[r] == ir.ClassPtr
}

// emitCheck inserts a spatial dereference check for an access of size
// bytes through addr (paper §3.1 check()); under temporal lowering it
// also carries the key/lock operands, verified BEFORE the spatial
// compare, so a revoked allocation traps as temporal-violation even when
// the stale bounds still bracket the access. Accesses through
// compile-time global addresses are checked *statically*: an in-bounds
// constant access carries no runtime check (matching the paper's
// treatment of scalar locals and globals), while a constant
// out-of-bounds access gets a check that is guaranteed to fire.
func (x *xform) emitCheck(addr ir.Value, size int64, kind ir.CheckKind) {
	if x.opts.Mode == ModeStoreOnly && kind == ir.CheckLoad {
		return
	}
	switch addr.Kind {
	case ir.VReg:
		x.emit(ir.Inst{Kind: ir.KCheck, A: addr, Meta: x.metaOf(addr, 0, x.words),
			TMeta: x.opts.Temporal, AccessSize: size, CheckK: kind})
	case ir.VGlobal:
		objSize, ok := x.sizes(addr.Sym)
		if ok && addr.Off() >= 0 && addr.Off()+size <= objSize {
			return // statically in bounds
		}
		x.emit(ir.Inst{Kind: ir.KCheck, A: addr,
			Meta:       [4]ir.Value{ir.GV(addr.Sym, 0), ir.GV(addr.Sym, objSize)},
			AccessSize: size, CheckK: kind})
	}
}

// rewrite instruments one instruction.
func (x *xform) rewrite(in *ir.Inst) {
	switch in.Kind {
	case ir.KConst, ir.KMov:
		x.emit(*in)
		if x.isPtrReg(in.Dst) {
			x.copyMeta(in.Dst, in.A)
		}

	case ir.KConv:
		x.emit(*in)
		if in.Mem == ir.MemPtr && x.isPtrReg(in.Dst) {
			// Pointer manufactured from an integer: NULL bounds
			// (safe default, paper §5.2). setbound() can widen later.
			x.copyMeta(in.Dst, ir.CI(0))
		}

	case ir.KAlloca:
		x.emit(*in)
		// base = ptr; bound = ptr + size (paper §3.1).
		d := x.ensure(in.Dst, 0, 2)
		x.emit(ir.Inst{Kind: ir.KMov, Dst: d[0], A: ir.R(in.Dst)})
		x.emit(ir.Inst{Kind: ir.KGEP, Dst: d[1], A: ir.R(in.Dst), B: ir.CI(0),
			Size: 1, C: ir.CI(in.Size)})
		if x.opts.Temporal {
			// Stack storage dies with the frame: the slot's temporal
			// identity is the frame lock the VM issued on entry.
			x.setMeta(in.Dst, [4]ir.Value{2: ir.R(x.f.FrameKeyReg), 3: ir.R(x.f.FrameLockReg)}, 2, 4)
		}

	case ir.KGEP:
		x.emit(*in)
		if !x.isPtrReg(in.Dst) {
			break
		}
		if in.Shrink && x.opts.ShrinkBounds {
			if x.fields[in.Dst].direct() {
				// Only loads and stores within the field go through
				// this pointer, so narrowing could never change a
				// check's outcome (fieldPtr.direct): it keeps the
				// source's metadata, as a plain GEP does. A violation
				// through it reports the object's bounds.
				x.copyMeta(in.Dst, in.A)
				break
			}
			// Creating a pointer to a struct field that escapes
			// narrows the metadata to the field (paper §3.1) — by
			// INTERSECTION with the incoming bounds, never
			// replacement. Replacing would make the field-deref
			// check the tautology ptr ∈ [ptr, ptr+len), so a forged
			// pointer or corrupted metadata entry would pass every
			// field access: exactly the silent
			// divergence the fault-injection suite exists to catch.
			// Branch-free select: max(sb,d) = d + (sb>d)*(sb-d), and
			// symmetrically min(se,fe) = fe + (se<fe)*(se-fe).
			src := x.metaOf(in.A, 0, 2)
			sb, se := src[0], src[1]
			dm := x.ensure(in.Dst, 0, 2)
			b, e := dm[0], dm[1]
			d := ir.R(in.Dst)
			fe := x.f.NewReg(ir.ClassPtr)
			x.emit(ir.Inst{Kind: ir.KGEP, Dst: fe, A: d,
				B: ir.CI(0), Size: 1, C: ir.CI(in.ShrinkLen)})
			cb := x.f.NewReg(ir.ClassInt)
			db := x.f.NewReg(ir.ClassPtr)
			mb := x.f.NewReg(ir.ClassPtr)
			x.emit(ir.Inst{Kind: ir.KCmp, Dst: cb, Pred: ir.PredGT, A: sb, B: d})
			x.emit(ir.Inst{Kind: ir.KBin, Op: ir.OpSub, Dst: db, A: sb, B: d})
			x.emit(ir.Inst{Kind: ir.KBin, Op: ir.OpMul, Dst: mb, A: ir.R(cb), B: ir.R(db)})
			x.emit(ir.Inst{Kind: ir.KBin, Op: ir.OpAdd, Dst: b, A: d, B: ir.R(mb)})
			ce := x.f.NewReg(ir.ClassInt)
			de := x.f.NewReg(ir.ClassPtr)
			me := x.f.NewReg(ir.ClassPtr)
			x.emit(ir.Inst{Kind: ir.KCmp, Dst: ce, Pred: ir.PredLT, A: se, B: ir.R(fe)})
			x.emit(ir.Inst{Kind: ir.KBin, Op: ir.OpSub, Dst: de, A: se, B: ir.R(fe)})
			x.emit(ir.Inst{Kind: ir.KBin, Op: ir.OpMul, Dst: me, A: ir.R(ce), B: ir.R(de)})
			x.emit(ir.Inst{Kind: ir.KBin, Op: ir.OpAdd, Dst: e, A: ir.R(fe), B: ir.R(me)})
			if x.opts.Temporal {
				// Narrowing is spatial-only; the field keeps the
				// allocation's temporal identity unchanged.
				x.setMeta(in.Dst, x.metaOf(in.A, 2, 4), 2, 4)
			}
			break
		}
		// Pointer arithmetic: result inherits the source metadata; no
		// check happens until dereference (§3.1).
		x.copyMeta(in.Dst, in.A)
		if x.opts.CheckArith && x.opts.Mode == ModeFull {
			// Ablation: arithmetic-time check, permitting only
			// [base, bound] (one-past-the-end allowed, size 0).
			x.emit(ir.Inst{Kind: ir.KCheck, A: ir.R(in.Dst), Meta: x.metaOf(in.A, 0, 2),
				AccessSize: 0, CheckK: ir.CheckLoad})
		}

	case ir.KLoad:
		x.emitCheck(in.A, in.Mem.Size(), ir.CheckLoad)
		x.emit(*in)
		if in.Mem == ir.MemPtr && x.isPtrReg(in.Dst) {
			// Loading a pointer pulls its metadata from the disjoint
			// table (paper §3.2).
			x.emit(ir.Inst{Kind: ir.KMetaLoad, A: in.A,
				MetaDst: x.ensure(in.Dst, 0, x.words), TMeta: x.opts.Temporal})
		}

	case ir.KStore:
		x.emitCheck(in.A, in.Mem.Size(), ir.CheckStore)
		x.emit(*in)
		if in.Mem == ir.MemPtr {
			// Storing a pointer records its metadata (paper §3.2).
			x.emit(ir.Inst{Kind: ir.KMetaStore, A: in.A,
				Meta: x.metaOf(in.B, 0, x.words), TMeta: x.opts.Temporal})
		}

	case ir.KCall:
		x.rewriteCall(in)

	case ir.KRet:
		if x.opts.ClearOnReturn {
			// Paper §5.2 "memory reuse and stale metadata": zero the
			// metadata of pointer-bearing stack slots before return.
			for _, slot := range x.f.ClearSlots {
				if r, ok := x.allocaRegs[slot.Offset]; ok {
					x.emit(ir.Inst{Kind: ir.KMetaClear, A: ir.R(r), B: ir.CI(slot.Size)})
				}
			}
		}
		out := *in
		if out.HasVal && x.f.RetIsPtr {
			out.Meta = x.metaOf(out.A, 0, x.words)
			out.RetMetaValid = true
			out.TMeta = x.opts.Temporal
		}
		x.emit(out)

	default:
		x.emit(*in)
	}
}

// rewriteCall fills shadow-stack slots for pointer arguments, inserts
// the function-pointer check for indirect calls, and receives metadata
// for pointer-returning calls (paper §3.3). Slots are positional (one
// per pointer argument, keyed by argument index), so the runtime can
// hand them to the *dynamic* callee by its own parameter layout even
// when an indirect call site's static signature disagrees. Under
// temporal lowering TMeta widens every slot and the return tuple.
func (x *xform) rewriteCall(in *ir.Inst) {
	out := *in
	if out.Callee.Kind == ir.VReg && x.opts.CheckFuncPtrCalls {
		x.emit(ir.Inst{Kind: ir.KCheck, A: out.Callee, Meta: x.metaOf(out.Callee, 0, 2),
			AccessSize: 0, CheckK: ir.CheckCall})
	}
	out.Shadow = nil
	for i, a := range out.Args {
		if x.valueIsPtr(a) {
			out.Shadow = append(out.Shadow, ir.ShadowSlot{Arg: i, Meta: x.metaOf(a, 0, x.words)})
		}
	}
	if out.Dst != ir.NoReg && x.isPtrReg(out.Dst) {
		out.MetaDst = x.ensure(out.Dst, 0, x.words)
		out.RetMetaValid = true
	}
	out.TMeta = x.opts.Temporal
	x.emit(out)
}

// valueIsPtr reports whether the operand denotes a pointer value.
func (x *xform) valueIsPtr(v ir.Value) bool {
	switch v.Kind {
	case ir.VReg:
		return x.isPtrReg(v.Reg)
	case ir.VGlobal, ir.VFunc:
		return true
	}
	return false
}
