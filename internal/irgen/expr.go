package irgen

import (
	"softbound/internal/cast"
	"softbound/internal/ctoken"
	"softbound/internal/ctypes"
	"softbound/internal/ir"
)

// lvalue describes a resolved assignable location: either a promoted
// register or a memory address.
type lvalue struct {
	isReg bool
	reg   ir.Reg
	addr  ir.Value
	t     *ctypes.Type // object type, undecayed
}

// genExpr lowers e to an rvalue.
func (g *generator) genExpr(e cast.Expr) (ir.Value, error) {
	switch x := e.(type) {
	case *cast.IntLit:
		return ir.CI(int64(x.Value)), nil
	case *cast.FloatLit:
		return ir.CF(x.Value), nil
	case *cast.StringLit:
		return ir.GV(g.internString(x.Value), 0), nil

	case *cast.Ident:
		switch x.Kind {
		case cast.VarEnumConst:
			return ir.CI(x.EnumVal), nil
		case cast.VarFunc:
			return ir.FV(x.Name), nil
		}
		lv, err := g.genLValue(x)
		if err != nil {
			return ir.Value{}, err
		}
		return g.loadLValue(lv, x.Pos())

	case *cast.Unary:
		return g.genUnary(x)

	case *cast.Postfix:
		old, _, err := g.genIncDec(x.X, x.Op, x.Pos())
		return old, err

	case *cast.Binary:
		return g.genBinary(x)

	case *cast.Assign:
		return g.genAssign(x)

	case *cast.Cond:
		return g.genCondExpr(x)

	case *cast.Comma:
		if _, err := g.genExpr(x.X); err != nil {
			return ir.Value{}, err
		}
		return g.genExpr(x.Y)

	case *cast.Cast:
		st := exprType(x.X)
		if x.To.Kind == ctypes.Void {
			if _, err := g.genExpr(x.X); err != nil {
				return ir.Value{}, err
			}
			return ir.CI(0), nil
		}
		v, err := g.genExpr(x.X)
		if err != nil {
			return ir.Value{}, err
		}
		return g.convert(v, st, x.To.Decay()), nil

	case *cast.SizeofType:
		if x.Of == nil {
			return ir.Value{}, errAt(x.Pos(), "internal: unresolved sizeof")
		}
		return ir.CI(x.Of.Size()), nil

	case *cast.Index, *cast.Member:
		lv, err := g.genLValue(e)
		if err != nil {
			return ir.Value{}, err
		}
		return g.loadLValue(lv, e.Pos())

	case *cast.Call:
		return g.genCall(x)
	}
	return ir.Value{}, errAt(e.Pos(), "internal: cannot lower expression %T", e)
}

// exprType returns the sema-resolved (decayed) type of e.
func exprType(e cast.Expr) *ctypes.Type { return e.Type() }

// loadLValue produces the rvalue of an lvalue: a load for scalars, the
// address for arrays/structs/functions (decay).
func (g *generator) loadLValue(lv lvalue, pos ctoken.Pos) (ir.Value, error) {
	if lv.isReg {
		return ir.R(lv.reg), nil
	}
	switch lv.t.Kind {
	case ctypes.Array, ctypes.Struct, ctypes.Func:
		return lv.addr, nil
	}
	mt, err := memTypeOf(lv.t)
	if err != nil {
		return ir.Value{}, errAt(pos, "%v", err)
	}
	dst := g.newReg(mt.Class())
	g.emit(ir.Inst{Kind: ir.KLoad, Dst: dst, A: lv.addr, Mem: mt})
	return ir.R(dst), nil
}

// genLValue resolves an assignable expression to an lvalue.
func (g *generator) genLValue(e cast.Expr) (lvalue, error) {
	switch x := e.(type) {
	case *cast.Ident:
		sym := g.info.Refs[x]
		if sym == nil {
			return lvalue{}, errAt(x.Pos(), "internal: unresolved %q", x.Name)
		}
		if r, ok := g.regOf[sym]; ok {
			return lvalue{isReg: true, reg: r, t: g.typeOf[sym]}, nil
		}
		if a, ok := g.addrOf[sym]; ok {
			return lvalue{addr: ir.R(a), t: g.typeOf[sym]}, nil
		}
		if x.Kind == cast.VarGlobal {
			return lvalue{addr: ir.GV(x.Name, 0), t: sym.Type}, nil
		}
		if x.Kind == cast.VarLocal {
			// Block-scope static: module global under a mangled name.
			return lvalue{addr: ir.GV(g.fn.Name+"."+x.Name, 0), t: sym.Type}, nil
		}
		return lvalue{}, errAt(x.Pos(), "%q is not an lvalue", x.Name)

	case *cast.StringLit:
		name := g.internString(x.Value)
		return lvalue{addr: ir.GV(name, 0),
			t: ctypes.ArrayOf(ctypes.CharType, int64(len(x.Value))+1)}, nil

	case *cast.Unary:
		if x.Op != ctoken.Star {
			return lvalue{}, errAt(x.Pos(), "not an lvalue")
		}
		v, err := g.genExpr(x.X)
		if err != nil {
			return lvalue{}, err
		}
		pt := exprType(x.X)
		if pt == nil || !pt.IsPointer() {
			return lvalue{}, errAt(x.Pos(), "dereference of non-pointer")
		}
		return lvalue{addr: v, t: pt.Elem}, nil

	case *cast.Index:
		base, err := g.genExpr(x.X)
		if err != nil {
			return lvalue{}, err
		}
		idx, err := g.genExpr(x.I)
		if err != nil {
			return lvalue{}, err
		}
		pt := exprType(x.X)
		elem := pt.Elem
		addr := g.gep(base, idx, elem.Size())
		return lvalue{addr: addr, t: elem}, nil

	case *cast.Member:
		var baseAddr ir.Value
		if x.Arrow {
			v, err := g.genExpr(x.X)
			if err != nil {
				return lvalue{}, err
			}
			baseAddr = v
		} else {
			lv, err := g.genLValue(x.X)
			if err != nil {
				return lvalue{}, err
			}
			if lv.isReg {
				return lvalue{}, errAt(x.Pos(), "internal: struct in register")
			}
			baseAddr = lv.addr
		}
		addr := g.fieldAddr(baseAddr, x.Field.Offset, x.Field.Type.Size())
		return lvalue{addr: addr, t: x.Field.Type}, nil
	}
	return lvalue{}, errAt(e.Pos(), "expression is not an lvalue")
}

// gep emits base + idx*scale.
func (g *generator) gep(base, idx ir.Value, scale int64) ir.Value {
	if idx.Kind == ir.VConstInt {
		return g.addrPlus(base, idx.Int*scale)
	}
	r := g.newReg(ir.ClassPtr)
	g.emit(ir.Inst{Kind: ir.KGEP, Dst: r, A: base, B: idx, Size: scale, C: ir.CI(0)})
	return ir.R(r)
}

// storeLValue assigns v (already converted to lv.t) to the location.
func (g *generator) storeLValue(lv lvalue, v ir.Value, pos ctoken.Pos) error {
	if lv.isReg {
		g.emit(ir.Inst{Kind: ir.KMov, Dst: lv.reg, A: v})
		return nil
	}
	if lv.t.Kind == ctypes.Struct {
		g.emit(ir.Inst{Kind: ir.KCall, Dst: ir.NoReg, Callee: ir.FV("memcpy"),
			Args: []ir.Value{lv.addr, v, ir.CI(lv.t.Size())}})
		return nil
	}
	mt, err := memTypeOf(lv.t)
	if err != nil {
		return errAt(pos, "%v", err)
	}
	g.emit(ir.Inst{Kind: ir.KStore, A: lv.addr, B: v, Mem: mt})
	return nil
}

// ------------------------------------------------------------- conversions

// convert coerces v from type `from` to type `to`, emitting KConv when a
// representation change is required.
func (g *generator) convert(v ir.Value, from, to *ctypes.Type) ir.Value {
	if from == nil || to == nil {
		return v
	}
	from, to = from.Decay(), to.Decay()
	switch {
	case from.IsInteger() && to.IsInteger():
		// Registers hold 64-bit extended values; a conversion is only
		// needed when narrowing (or re-extending with different sign).
		if to.Size() >= 8 && from.Size() <= to.Size() {
			return v
		}
		if to.Size() >= from.Size() && to.Unsigned == from.Unsigned && to.Size() >= 8 {
			return v
		}
		if v.Kind == ir.VConstInt {
			return ir.CI(truncExtend(v.Int, int(to.Size())*8, !to.Unsigned))
		}
		if to.Size() == from.Size() && to.Unsigned == from.Unsigned {
			return v
		}
		if to.Size() > from.Size() {
			// Widening: value already extended per source signedness.
			return v
		}
		dst := g.newReg(ir.ClassInt)
		mt, _ := memTypeOf(to)
		g.emit(ir.Inst{Kind: ir.KConv, Dst: dst, A: v, Mem: mt,
			ConvSrc: ir.MemI64, IntWidth: int(to.Size()) * 8, Signed: !to.Unsigned})
		return ir.R(dst)

	case from.IsInteger() && to.IsFloat():
		dst := g.newReg(ir.ClassFloat)
		mt, _ := memTypeOf(to)
		src := ir.MemI64
		if from.Unsigned {
			src = ir.MemU32 // marker: unsigned integer source
		}
		g.emit(ir.Inst{Kind: ir.KConv, Dst: dst, A: v, Mem: mt, ConvSrc: src,
			Signed: !from.Unsigned})
		return ir.R(dst)

	case from.IsFloat() && to.IsInteger():
		dst := g.newReg(ir.ClassInt)
		mt, _ := memTypeOf(to)
		g.emit(ir.Inst{Kind: ir.KConv, Dst: dst, A: v, Mem: mt, ConvSrc: ir.MemF64,
			IntWidth: int(to.Size()) * 8, Signed: !to.Unsigned})
		return ir.R(dst)

	case from.IsFloat() && to.IsFloat():
		if from.Size() == to.Size() {
			return v
		}
		dst := g.newReg(ir.ClassFloat)
		mt, _ := memTypeOf(to)
		g.emit(ir.Inst{Kind: ir.KConv, Dst: dst, A: v, Mem: mt, ConvSrc: ir.MemF64})
		return ir.R(dst)

	case from.IsInteger() && to.IsPointer():
		// Integer to pointer: the SoftBound pass gives the result NULL
		// bounds (paper §5.2 "creating pointers from integers").
		dst := g.newReg(ir.ClassPtr)
		g.emit(ir.Inst{Kind: ir.KConv, Dst: dst, A: v, Mem: ir.MemPtr, ConvSrc: ir.MemI64})
		return ir.R(dst)

	case from.IsPointer() && to.IsInteger():
		if to.Size() >= 8 {
			return v // same bits
		}
		dst := g.newReg(ir.ClassInt)
		mt, _ := memTypeOf(to)
		g.emit(ir.Inst{Kind: ir.KConv, Dst: dst, A: v, Mem: mt, ConvSrc: ir.MemI64,
			IntWidth: int(to.Size()) * 8, Signed: !to.Unsigned})
		return ir.R(dst)

	case from.IsPointer() && to.IsPointer():
		return v // bounds metadata flows with the register (wild casts ok)
	}
	return v
}

func truncExtend(v int64, bits int, signed bool) int64 {
	if bits >= 64 {
		return v
	}
	mask := (uint64(1) << uint(bits)) - 1
	u := uint64(v) & mask
	if signed && u&(1<<uint(bits-1)) != 0 {
		u |= ^mask
	}
	return int64(u)
}

// genExprConverted lowers e and converts the result to type t.
func (g *generator) genExprConverted(e cast.Expr, t *ctypes.Type) (ir.Value, error) {
	v, err := g.genExpr(e)
	if err != nil {
		return ir.Value{}, err
	}
	return g.convert(v, exprType(e), t), nil
}

// genCond lowers a condition to a scalar value suitable for KCondBr.
func (g *generator) genCond(e cast.Expr) (ir.Value, error) {
	t := exprType(e)
	v, err := g.genExpr(e)
	if err != nil {
		return ir.Value{}, err
	}
	if t != nil && t.IsFloat() {
		dst := g.newReg(ir.ClassInt)
		g.emit(ir.Inst{Kind: ir.KCmp, Dst: dst, Pred: ir.PredFNE, A: v, B: ir.CF(0)})
		return ir.R(dst), nil
	}
	return v, nil
}
