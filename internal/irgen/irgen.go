// Package irgen lowers the type-annotated AST to the register IR.
//
// Register promotion happens here: scalar locals and parameters whose
// address is never taken live directly in virtual registers and never
// touch memory. This mirrors the paper's setup, where the SoftBound pass
// runs after LLVM's optimizations (notably register promotion) so only
// genuine memory operations remain to be instrumented (§6.1).
package irgen

import (
	"fmt"

	"softbound/internal/cast"
	"softbound/internal/ctoken"
	"softbound/internal/ctypes"
	"softbound/internal/ir"
	"softbound/internal/sema"
)

// GenError is a lowering error.
type GenError struct {
	Pos ctoken.Pos
	Msg string
}

func (e *GenError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type generator struct {
	mod  *ir.Module
	info *sema.Info

	fn *ir.Func
	fi *sema.FuncInfo
	// cur is the index of the block under construction, and buf its
	// instructions: blocks are built in one reused buffer and copied out
	// once, by flush, when emission leaves them.
	cur int
	buf []ir.Inst

	// regOf maps promoted symbols to their register.
	regOf map[*sema.Symbol]ir.Reg
	// addrOf maps memory-resident locals to the register holding their
	// alloca address.
	addrOf map[*sema.Symbol]ir.Reg
	// typeOf maps symbols to their (undecayed) C type.
	typeOf map[*sema.Symbol]*ctypes.Type

	// loop context for break/continue.
	breakTargets    []int
	continueTargets []int

	// labelBlocks maps goto labels to block indices.
	labelBlocks map[string]int

	// strLits dedups string-literal globals.
	strLits map[string]string
	nStr    int

	frameOff int64
	clear    []ir.AllocaSlot
}

// Generate lowers an analyzed translation unit into an IR module.
func Generate(info *sema.Info) (*ir.Module, error) {
	g := &generator{
		mod:     ir.NewModule(info.Unit.File),
		info:    info,
		strLits: make(map[string]string),
	}
	for _, gs := range info.Globals {
		if err := g.genGlobal(gs); err != nil {
			return nil, err
		}
	}
	for _, f := range info.Unit.Funcs {
		if f.Body == nil {
			continue
		}
		if err := g.genFunc(info.Funcs[f.Name]); err != nil {
			return nil, err
		}
	}
	return g.mod, nil
}

func errAt(pos ctoken.Pos, format string, args ...interface{}) error {
	return &GenError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// ------------------------------------------------------------------ helpers

func classOf(t *ctypes.Type) ir.Class {
	switch {
	case t.IsFloat():
		return ir.ClassFloat
	case t.Kind == ctypes.Pointer, t.Kind == ctypes.Array, t.Kind == ctypes.Func:
		return ir.ClassPtr
	default:
		return ir.ClassInt
	}
}

// memTypeOf maps a scalar C type to a memory access type.
func memTypeOf(t *ctypes.Type) (ir.MemType, error) {
	switch t.Kind {
	case ctypes.Char:
		if t.Unsigned {
			return ir.MemU8, nil
		}
		return ir.MemI8, nil
	case ctypes.Short:
		if t.Unsigned {
			return ir.MemU16, nil
		}
		return ir.MemI16, nil
	case ctypes.Int, ctypes.Enum:
		if t.Unsigned {
			return ir.MemU32, nil
		}
		return ir.MemI32, nil
	case ctypes.Long:
		return ir.MemI64, nil
	case ctypes.Float:
		return ir.MemF32, nil
	case ctypes.Double:
		return ir.MemF64, nil
	case ctypes.Pointer:
		return ir.MemPtr, nil
	case ctypes.Void:
		// Dereferencing a void* is invalid, but appears via memcpy-like
		// generic code paths; treat as byte.
		return ir.MemU8, nil
	}
	return ir.MemI64, fmt.Errorf("no memory type for %s", t)
}

func (g *generator) emit(in ir.Inst) {
	// Don't append to a block that already has a terminator; create an
	// unreachable successor instead (dead code after return/break).
	if g.terminated() {
		g.setBlock(g.fn.NewBlock("dead"))
	}
	g.buf = append(g.buf, in)
}

func (g *generator) newReg(c ir.Class) ir.Reg { return g.fn.NewReg(c) }

// setBlock moves emission to block i, copying out the block it leaves.
func (g *generator) setBlock(i int) {
	g.flush()
	g.cur = i
}

// flush appends the buffered instructions to the current block.
func (g *generator) flush() {
	if len(g.buf) > 0 {
		b := g.fn.Blocks[g.cur]
		b.Insts = append(b.Insts, g.buf...)
		g.buf = g.buf[:0]
	}
}

// terminated reports whether the current block already ends control flow.
func (g *generator) terminated() bool {
	insts := g.buf
	if len(insts) == 0 {
		insts = g.fn.Blocks[g.cur].Insts
	}
	return len(insts) > 0 && insts[len(insts)-1].IsTerminator()
}

func (g *generator) br(target int) {
	if !g.terminated() {
		g.emit(ir.Inst{Kind: ir.KBr, Target: target})
	}
}

func (g *generator) condBr(cond ir.Value, then, els int) {
	g.emit(ir.Inst{Kind: ir.KCondBr, A: cond, Target: then, Else: els})
}

// ------------------------------------------------------------------ globals

func (g *generator) genGlobal(sym *sema.Symbol) error {
	d := sym.Decl.(*cast.VarDecl)
	if d.Extern && d.Init == nil {
		return nil // definition lives in another unit
	}
	t := sym.Type
	if t.Kind == ctypes.Array && t.ArrayLen < 0 && d.Init != nil {
		// char g[] = "..." at file scope.
		t = completeFromInit(t, d.Init)
		sym.Type = t
		d.Type = t
	}
	size := t.Size()
	if size == 0 {
		return errAt(d.Pos(), "global %q has incomplete type %s", d.Name, t)
	}
	gv := &ir.Global{
		Name:        d.Name,
		Size:        size,
		Align:       t.Align(),
		ContainsPtr: t.ContainsPointer(),
	}
	if d.Init != nil {
		buf := make([]byte, size)
		if err := g.layoutInit(gv, buf, 0, t, d.Init); err != nil {
			return err
		}
		gv.Init = buf
	}
	g.mod.Globals = append(g.mod.Globals, gv)
	return nil
}

func completeFromInit(t *ctypes.Type, init *cast.Init) *ctypes.Type {
	if init.Expr != nil {
		if s, ok := init.Expr.(*cast.StringLit); ok {
			return ctypes.ArrayOf(t.Elem, int64(len(s.Value))+1)
		}
		return t
	}
	return ctypes.ArrayOf(t.Elem, int64(len(init.List)))
}

// constVal is a folded compile-time initializer value.
type constVal struct {
	isFloat bool
	isAddr  bool
	i       int64
	f       float64
	sym     string // global symbol (or "" with fn set)
	fn      string // function symbol
	off     int64
}

// layoutInit writes the initializer for type t at offset off into buf,
// recording pointer relocations on gv.
func (g *generator) layoutInit(gv *ir.Global, buf []byte, off int64, t *ctypes.Type, init *cast.Init) error {
	if init.Expr != nil {
		if s, ok := init.Expr.(*cast.StringLit); ok && t.Kind == ctypes.Array {
			copy(buf[off:], s.Value)
			return nil
		}
		cv, err := g.evalConst(init.Expr)
		if err != nil {
			return err
		}
		return g.writeConst(gv, buf, off, t, cv, init.Pos)
	}
	switch t.Kind {
	case ctypes.Array:
		for i, item := range init.List {
			if err := g.layoutInit(gv, buf, off+int64(i)*t.Elem.Size(), t.Elem, item); err != nil {
				return err
			}
		}
	case ctypes.Struct:
		for i, item := range init.List {
			if i >= len(t.Fields) {
				break
			}
			f := t.Fields[i]
			if err := g.layoutInit(gv, buf, off+f.Offset, f.Type, item); err != nil {
				return err
			}
		}
	default:
		if len(init.List) == 1 {
			return g.layoutInit(gv, buf, off, t, init.List[0])
		}
		return errAt(init.Pos, "brace initializer for scalar")
	}
	return nil
}

func (g *generator) writeConst(gv *ir.Global, buf []byte, off int64, t *ctypes.Type, cv constVal, pos ctoken.Pos) error {
	if cv.isAddr {
		if t.Kind != ctypes.Pointer && !t.IsInteger() {
			return errAt(pos, "address initializer for non-pointer")
		}
		gv.PtrInits = append(gv.PtrInits, ir.PtrInit{
			Offset: off, Sym: cv.sym, Func: cv.fn, Addend: cv.off,
		})
		return nil
	}
	if cv.isFloat || t.IsFloat() {
		f := cv.f
		if !cv.isFloat {
			f = float64(cv.i)
		}
		switch t.Kind {
		case ctypes.Float:
			putU32(buf[off:], floatBits32(f))
		case ctypes.Double:
			putU64(buf[off:], floatBits64(f))
		default:
			return errAt(pos, "float initializer for %s", t)
		}
		return nil
	}
	v := cv.i
	switch t.Size() {
	case 1:
		buf[off] = byte(v)
	case 2:
		putU16(buf[off:], uint16(v))
	case 4:
		putU32(buf[off:], uint32(v))
	case 8:
		putU64(buf[off:], uint64(v))
	default:
		return errAt(pos, "bad scalar size %d", t.Size())
	}
	return nil
}

// evalConst folds a compile-time constant expression for a global
// initializer: integer/float arithmetic, enum constants, sizeof, casts,
// string literals, and addresses of globals/functions (&g, g.f, &g[i],
// and array designators).
func (g *generator) evalConst(e cast.Expr) (constVal, error) {
	switch x := e.(type) {
	case *cast.IntLit:
		return constVal{i: int64(x.Value)}, nil
	case *cast.FloatLit:
		return constVal{isFloat: true, f: x.Value}, nil
	case *cast.StringLit:
		name := g.internString(x.Value)
		return constVal{isAddr: true, sym: name}, nil
	case *cast.Ident:
		if x.Kind == cast.VarEnumConst {
			return constVal{i: x.EnumVal}, nil
		}
		if x.Kind == cast.VarFunc {
			return constVal{isAddr: true, fn: x.Name}, nil
		}
		if x.Kind == cast.VarGlobal {
			sym := g.info.Refs[x]
			if sym != nil && sym.Type.Kind == ctypes.Array {
				// Array designator decays to its address.
				return constVal{isAddr: true, sym: x.Name}, nil
			}
		}
		return constVal{}, errAt(x.Pos(), "initializer element is not constant")
	case *cast.SizeofType:
		if x.Of != nil {
			return constVal{i: x.Of.Size()}, nil
		}
		return constVal{}, errAt(x.Pos(), "unresolved sizeof in constant")
	case *cast.Cast:
		return g.evalConst(x.X)
	case *cast.Unary:
		if x.Op == ctoken.Amp {
			return g.evalConstAddr(x.X)
		}
		cv, err := g.evalConst(x.X)
		if err != nil {
			return cv, err
		}
		switch x.Op {
		case ctoken.Minus:
			if cv.isFloat {
				cv.f = -cv.f
			} else {
				cv.i = -cv.i
			}
			return cv, nil
		case ctoken.Plus:
			return cv, nil
		case ctoken.Tilde:
			cv.i = ^cv.i
			return cv, nil
		case ctoken.Not:
			if cv.i == 0 {
				cv.i = 1
			} else {
				cv.i = 0
			}
			return cv, nil
		}
		return cv, errAt(x.Pos(), "non-constant unary %s", x.Op)
	case *cast.Binary:
		a, err := g.evalConst(x.X)
		if err != nil {
			return a, err
		}
		b, err := g.evalConst(x.Y)
		if err != nil {
			return b, err
		}
		if a.isAddr || b.isAddr {
			// &g + k style arithmetic.
			if x.Op == ctoken.Plus && a.isAddr && !b.isAddr {
				a.off += b.i
				return a, nil
			}
			if x.Op == ctoken.Minus && a.isAddr && !b.isAddr {
				a.off -= b.i
				return a, nil
			}
			return a, errAt(x.Pos(), "invalid constant address arithmetic")
		}
		if a.isFloat || b.isFloat {
			af, bf := a.f, b.f
			if !a.isFloat {
				af = float64(a.i)
			}
			if !b.isFloat {
				bf = float64(b.i)
			}
			r := constVal{isFloat: true}
			switch x.Op {
			case ctoken.Plus:
				r.f = af + bf
			case ctoken.Minus:
				r.f = af - bf
			case ctoken.Star:
				r.f = af * bf
			case ctoken.Slash:
				r.f = af / bf
			default:
				return r, errAt(x.Pos(), "non-constant float op")
			}
			return r, nil
		}
		r := constVal{}
		av, bv := a.i, b.i
		switch x.Op {
		case ctoken.Plus:
			r.i = av + bv
		case ctoken.Minus:
			r.i = av - bv
		case ctoken.Star:
			r.i = av * bv
		case ctoken.Slash:
			if bv == 0 {
				return r, errAt(x.Pos(), "constant division by zero")
			}
			r.i = av / bv
		case ctoken.Percent:
			if bv == 0 {
				return r, errAt(x.Pos(), "constant modulo by zero")
			}
			r.i = av % bv
		case ctoken.Shl:
			r.i = av << uint(bv)
		case ctoken.Shr:
			r.i = av >> uint(bv)
		case ctoken.Amp:
			r.i = av & bv
		case ctoken.Pipe:
			r.i = av | bv
		case ctoken.Caret:
			r.i = av ^ bv
		default:
			return r, errAt(x.Pos(), "non-constant binary %s", x.Op)
		}
		return r, nil
	}
	return constVal{}, errAt(e.Pos(), "initializer element is not constant")
}

// evalConstAddr folds &lvalue for globals.
func (g *generator) evalConstAddr(e cast.Expr) (constVal, error) {
	switch x := e.(type) {
	case *cast.Ident:
		switch x.Kind {
		case cast.VarGlobal:
			return constVal{isAddr: true, sym: x.Name}, nil
		case cast.VarFunc:
			return constVal{isAddr: true, fn: x.Name}, nil
		}
	case *cast.Index:
		base, err := g.evalConstAddr(x.X)
		if err != nil {
			return base, err
		}
		idx, err := g.evalConst(x.I)
		if err != nil {
			return idx, err
		}
		base.off += idx.i * x.Type().Size()
		return base, nil
	case *cast.Member:
		if x.Arrow {
			return constVal{}, errAt(x.Pos(), "non-constant address")
		}
		base, err := g.evalConstAddr(x.X)
		if err != nil {
			return base, err
		}
		base.off += x.Field.Offset
		return base, nil
	}
	return constVal{}, errAt(e.Pos(), "non-constant address expression")
}

// internString creates (or reuses) a read-only global for a string
// literal. The symbol embeds the unit name: literal globals from
// different translation units must not collide at link time.
func (g *generator) internString(s string) string {
	if name, ok := g.strLits[s]; ok {
		return name
	}
	name := fmt.Sprintf(".str.%s.%d", g.mod.Name, g.nStr)
	g.nStr++
	data := append([]byte(s), 0)
	g.mod.Globals = append(g.mod.Globals, &ir.Global{
		Name: name, Size: int64(len(data)), Align: 1, Init: data, ReadOnly: true,
	})
	g.strLits[s] = name
	return name
}

func putU16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
