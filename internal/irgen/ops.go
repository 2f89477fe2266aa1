package irgen

import (
	"softbound/internal/cast"
	"softbound/internal/ctoken"
	"softbound/internal/ctypes"
	"softbound/internal/ir"
)

// genUnary lowers prefix unary operators.
func (g *generator) genUnary(x *cast.Unary) (ir.Value, error) {
	switch x.Op {
	case ctoken.Amp:
		if id, ok := x.X.(*cast.Ident); ok && id.Kind == cast.VarFunc {
			return ir.FV(id.Name), nil
		}
		lv, err := g.genLValue(x.X)
		if err != nil {
			return ir.Value{}, err
		}
		if lv.isReg {
			return ir.Value{}, errAt(x.Pos(), "internal: address of promoted register")
		}
		return lv.addr, nil

	case ctoken.Star:
		pt := exprType(x.X)
		if pt != nil && pt.IsFuncPointer() {
			// *fp is the function designator; value is the pointer.
			return g.genExpr(x.X)
		}
		lv, err := g.genLValue(x)
		if err != nil {
			return ir.Value{}, err
		}
		return g.loadLValue(lv, x.Pos())

	case ctoken.Minus:
		v, err := g.genExpr(x.X)
		if err != nil {
			return ir.Value{}, err
		}
		t := exprType(x)
		if t.IsFloat() {
			dst := g.newReg(ir.ClassFloat)
			g.emit(ir.Inst{Kind: ir.KUn, Dst: dst, Op: ir.OpFNeg, A: v,
				IntWidth: int(t.Size()) * 8})
			return ir.R(dst), nil
		}
		dst := g.newReg(ir.ClassInt)
		g.emit(ir.Inst{Kind: ir.KUn, Dst: dst, Op: ir.OpNeg, A: v,
			IntWidth: int(t.Size()) * 8, Signed: !t.Unsigned})
		return ir.R(dst), nil

	case ctoken.Plus:
		return g.genExpr(x.X)

	case ctoken.Tilde:
		v, err := g.genExpr(x.X)
		if err != nil {
			return ir.Value{}, err
		}
		t := exprType(x)
		dst := g.newReg(ir.ClassInt)
		g.emit(ir.Inst{Kind: ir.KUn, Dst: dst, Op: ir.OpNot, A: v,
			IntWidth: int(t.Size()) * 8, Signed: !t.Unsigned})
		return ir.R(dst), nil

	case ctoken.Not:
		xt := exprType(x.X)
		v, err := g.genExpr(x.X)
		if err != nil {
			return ir.Value{}, err
		}
		dst := g.newReg(ir.ClassInt)
		if xt != nil && xt.IsFloat() {
			g.emit(ir.Inst{Kind: ir.KCmp, Dst: dst, Pred: ir.PredFEQ, A: v, B: ir.CF(0)})
		} else {
			g.emit(ir.Inst{Kind: ir.KCmp, Dst: dst, Pred: ir.PredEQ, A: v, B: ir.CI(0)})
		}
		return ir.R(dst), nil

	case ctoken.Inc, ctoken.Dec:
		_, newV, err := g.genIncDec(x.X, x.Op, x.Pos())
		return newV, err
	}
	return ir.Value{}, errAt(x.Pos(), "internal: unary %s", x.Op)
}

// genIncDec lowers ++/-- (pre and post share this), returning the old and
// new values.
func (g *generator) genIncDec(target cast.Expr, op ctoken.Kind, pos ctoken.Pos) (ir.Value, ir.Value, error) {
	lv, err := g.genLValue(target)
	if err != nil {
		return ir.Value{}, ir.Value{}, err
	}
	old, err := g.loadLValue(lv, pos)
	if err != nil {
		return ir.Value{}, ir.Value{}, err
	}
	if lv.isReg {
		// Snapshot the promoted register: the in-place update below
		// would otherwise clobber the "old" value postfix ++/-- yields.
		snap := g.newReg(classOf(lv.t))
		g.emit(ir.Inst{Kind: ir.KMov, Dst: snap, A: old})
		old = ir.R(snap)
	}
	t := lv.t
	var newV ir.Value
	switch {
	case t.IsPointer():
		step := int64(1)
		if op == ctoken.Dec {
			step = -1
		}
		newV = g.addrPlusDynamic(old, step*t.Elem.Size())
	case t.IsFloat():
		dst := g.newReg(ir.ClassFloat)
		o := ir.OpFAdd
		if op == ctoken.Dec {
			o = ir.OpFSub
		}
		g.emit(ir.Inst{Kind: ir.KBin, Dst: dst, Op: o, A: old, B: ir.CF(1),
			IntWidth: int(t.Size()) * 8})
		newV = ir.R(dst)
	default:
		dst := g.newReg(ir.ClassInt)
		o := ir.OpAdd
		if op == ctoken.Dec {
			o = ir.OpSub
		}
		g.emit(ir.Inst{Kind: ir.KBin, Dst: dst, Op: o, A: old, B: ir.CI(1),
			IntWidth: int(t.Size()) * 8, Signed: !t.Unsigned})
		newV = ir.R(dst)
	}
	if err := g.storeLValue(lv, newV, pos); err != nil {
		return ir.Value{}, ir.Value{}, err
	}
	return old, newV, nil
}

// addrPlusDynamic emits a pointer bump by a constant byte delta through a
// GEP so metadata propagation sees it as address arithmetic.
func (g *generator) addrPlusDynamic(base ir.Value, delta int64) ir.Value {
	r := g.newReg(ir.ClassPtr)
	g.emit(ir.Inst{Kind: ir.KGEP, Dst: r, A: base, B: ir.CI(0), Size: 1, C: ir.CI(delta)})
	return ir.R(r)
}

// genBinary lowers binary operators including pointer arithmetic and
// short-circuit logicals.
func (g *generator) genBinary(x *cast.Binary) (ir.Value, error) {
	switch x.Op {
	case ctoken.AndAnd, ctoken.OrOr:
		return g.genLogical(x)
	}
	lt, rt := exprType(x.X), exprType(x.Y)
	lhs, err := g.genExpr(x.X)
	if err != nil {
		return ir.Value{}, err
	}
	rhs, err := g.genExpr(x.Y)
	if err != nil {
		return ir.Value{}, err
	}
	return g.genBinOpValues(x.Op, lhs, rhs, lt, rt, exprType(x), x.Pos())
}

// genBinOpValues implements the operator given already-lowered operands;
// shared by Binary and compound assignment.
func (g *generator) genBinOpValues(op ctoken.Kind, lhs, rhs ir.Value, lt, rt, resT *ctypes.Type, pos ctoken.Pos) (ir.Value, error) {
	// Pointer arithmetic.
	if op == ctoken.Plus || op == ctoken.Minus {
		switch {
		case lt.IsPointer() && rt.IsInteger():
			idx := rhs
			if op == ctoken.Minus {
				neg := g.newReg(ir.ClassInt)
				g.emit(ir.Inst{Kind: ir.KUn, Dst: neg, Op: ir.OpNeg, A: rhs, IntWidth: 64, Signed: true})
				idx = ir.R(neg)
			}
			return g.gep(lhs, idx, lt.Elem.Size()), nil
		case lt.IsInteger() && rt.IsPointer() && op == ctoken.Plus:
			return g.gep(rhs, lhs, rt.Elem.Size()), nil
		case lt.IsPointer() && rt.IsPointer() && op == ctoken.Minus:
			diff := g.newReg(ir.ClassInt)
			g.emit(ir.Inst{Kind: ir.KBin, Dst: diff, Op: ir.OpSub, A: lhs, B: rhs,
				IntWidth: 64, Signed: true})
			size := lt.Elem.Size()
			if size <= 1 {
				return ir.R(diff), nil
			}
			q := g.newReg(ir.ClassInt)
			g.emit(ir.Inst{Kind: ir.KBin, Dst: q, Op: ir.OpDiv, A: ir.R(diff), B: ir.CI(size),
				IntWidth: 64, Signed: true})
			return ir.R(q), nil
		}
	}

	// Comparisons.
	if pred, isCmp := cmpPred(op); isCmp {
		dst := g.newReg(ir.ClassInt)
		switch {
		case lt.IsFloat() || rt.IsFloat():
			common := ctypes.UsualArithmetic(lt, rt)
			lhs = g.convert(lhs, lt, common)
			rhs = g.convert(rhs, rt, common)
			g.emit(ir.Inst{Kind: ir.KCmp, Dst: dst, Pred: floatPred(pred), A: lhs, B: rhs})
		case lt.IsPointer() || rt.IsPointer():
			g.emit(ir.Inst{Kind: ir.KCmp, Dst: dst, Pred: pred, A: lhs, B: rhs, Signed: false})
		default:
			common := ctypes.UsualArithmetic(lt, rt)
			lhs = g.convert(lhs, lt, common)
			rhs = g.convert(rhs, rt, common)
			g.emit(ir.Inst{Kind: ir.KCmp, Dst: dst, Pred: pred, A: lhs, B: rhs,
				Signed: !common.Unsigned})
		}
		return ir.R(dst), nil
	}

	// Arithmetic / bitwise.
	common := resT
	if common == nil || !common.IsArithmetic() {
		common = ctypes.UsualArithmetic(lt, rt)
	}
	if common.IsFloat() {
		lhs = g.convert(lhs, lt, common)
		rhs = g.convert(rhs, rt, common)
		var o ir.Op
		switch op {
		case ctoken.Plus:
			o = ir.OpFAdd
		case ctoken.Minus:
			o = ir.OpFSub
		case ctoken.Star:
			o = ir.OpFMul
		case ctoken.Slash:
			o = ir.OpFDiv
		default:
			return ir.Value{}, errAt(pos, "invalid float operator %s", op)
		}
		dst := g.newReg(ir.ClassFloat)
		g.emit(ir.Inst{Kind: ir.KBin, Dst: dst, Op: o, A: lhs, B: rhs,
			IntWidth: int(common.Size()) * 8})
		return ir.R(dst), nil
	}

	// Shifts keep the (promoted) left operand type.
	if op == ctoken.Shl || op == ctoken.Shr {
		common = lt.Promote()
	} else {
		lhs = g.convert(lhs, lt, common)
		rhs = g.convert(rhs, rt, common)
	}
	var o ir.Op
	switch op {
	case ctoken.Plus:
		o = ir.OpAdd
	case ctoken.Minus:
		o = ir.OpSub
	case ctoken.Star:
		o = ir.OpMul
	case ctoken.Slash:
		o = ir.OpDiv
	case ctoken.Percent:
		o = ir.OpRem
	case ctoken.Amp:
		o = ir.OpAnd
	case ctoken.Pipe:
		o = ir.OpOr
	case ctoken.Caret:
		o = ir.OpXor
	case ctoken.Shl:
		o = ir.OpShl
	case ctoken.Shr:
		o = ir.OpShr
	default:
		return ir.Value{}, errAt(pos, "invalid operator %s", op)
	}
	dst := g.newReg(ir.ClassInt)
	g.emit(ir.Inst{Kind: ir.KBin, Dst: dst, Op: o, A: lhs, B: rhs,
		IntWidth: int(common.Size()) * 8, Signed: !common.Unsigned})
	return ir.R(dst), nil
}

func cmpPred(op ctoken.Kind) (ir.Pred, bool) {
	switch op {
	case ctoken.Eq:
		return ir.PredEQ, true
	case ctoken.Ne:
		return ir.PredNE, true
	case ctoken.Lt:
		return ir.PredLT, true
	case ctoken.Le:
		return ir.PredLE, true
	case ctoken.Gt:
		return ir.PredGT, true
	case ctoken.Ge:
		return ir.PredGE, true
	}
	return 0, false
}

func floatPred(p ir.Pred) ir.Pred {
	switch p {
	case ir.PredEQ:
		return ir.PredFEQ
	case ir.PredNE:
		return ir.PredFNE
	case ir.PredLT:
		return ir.PredFLT
	case ir.PredLE:
		return ir.PredFLE
	case ir.PredGT:
		return ir.PredFGT
	case ir.PredGE:
		return ir.PredFGE
	}
	return p
}

// genLogical lowers && and || with short-circuit evaluation, producing a
// 0/1 integer in a register.
func (g *generator) genLogical(x *cast.Binary) (ir.Value, error) {
	dst := g.newReg(ir.ClassInt)
	rhsB := g.fn.NewBlock("logic.rhs")
	endB := g.fn.NewBlock("logic.end")

	lhs, err := g.genCond(x.X)
	if err != nil {
		return ir.Value{}, err
	}
	// Normalize lhs to 0/1 into dst, then branch.
	g.emit(ir.Inst{Kind: ir.KCmp, Dst: dst, Pred: ir.PredNE, A: lhs, B: ir.CI(0)})
	if x.Op == ctoken.AndAnd {
		g.condBr(ir.R(dst), rhsB, endB)
	} else {
		g.condBr(ir.R(dst), endB, rhsB)
	}
	g.setBlock(rhsB)
	rhs, err := g.genCond(x.Y)
	if err != nil {
		return ir.Value{}, err
	}
	g.emit(ir.Inst{Kind: ir.KCmp, Dst: dst, Pred: ir.PredNE, A: rhs, B: ir.CI(0)})
	g.br(endB)
	g.setBlock(endB)
	return ir.R(dst), nil
}

// genCondExpr lowers c ? a : b.
func (g *generator) genCondExpr(x *cast.Cond) (ir.Value, error) {
	t := exprType(x)
	dst := g.newReg(classOf(t))
	thenB := g.fn.NewBlock("cond.then")
	elseB := g.fn.NewBlock("cond.else")
	endB := g.fn.NewBlock("cond.end")

	c, err := g.genCond(x.C)
	if err != nil {
		return ir.Value{}, err
	}
	g.condBr(c, thenB, elseB)

	g.setBlock(thenB)
	tv, err := g.genExprConverted(x.Then, t)
	if err != nil {
		return ir.Value{}, err
	}
	g.emit(ir.Inst{Kind: ir.KMov, Dst: dst, A: tv})
	g.br(endB)

	g.setBlock(elseB)
	ev, err := g.genExprConverted(x.Else, t)
	if err != nil {
		return ir.Value{}, err
	}
	g.emit(ir.Inst{Kind: ir.KMov, Dst: dst, A: ev})
	g.br(endB)

	g.setBlock(endB)
	return ir.R(dst), nil
}

// genAssign lowers simple and compound assignment; its value is the
// stored value.
func (g *generator) genAssign(x *cast.Assign) (ir.Value, error) {
	lv, err := g.genLValue(x.L)
	if err != nil {
		return ir.Value{}, err
	}
	if x.Op == ctoken.Assign {
		if lv.t.Kind == ctypes.Struct {
			src, err := g.genExpr(x.R)
			if err != nil {
				return ir.Value{}, err
			}
			if err := g.storeLValue(lv, src, x.Pos()); err != nil {
				return ir.Value{}, err
			}
			return src, nil
		}
		v, err := g.genExprConverted(x.R, lv.t)
		if err != nil {
			return ir.Value{}, err
		}
		if err := g.storeLValue(lv, v, x.Pos()); err != nil {
			return ir.Value{}, err
		}
		return v, nil
	}
	// Compound: load, op, store.
	old, err := g.loadLValue(lv, x.Pos())
	if err != nil {
		return ir.Value{}, err
	}
	rt := exprType(x.R)
	rhs, err := g.genExpr(x.R)
	if err != nil {
		return ir.Value{}, err
	}
	op := compoundBase(x.Op)
	nv, err := g.genBinOpValues(op, old, rhs, lv.t.Decay(), rt, nil, x.Pos())
	if err != nil {
		return ir.Value{}, err
	}
	nv = g.convert(nv, resultTypeOf(op, lv.t, rt), lv.t)
	if err := g.storeLValue(lv, nv, x.Pos()); err != nil {
		return ir.Value{}, err
	}
	return nv, nil
}

func resultTypeOf(op ctoken.Kind, lt, rt *ctypes.Type) *ctypes.Type {
	l := lt.Decay()
	if l.IsPointer() {
		return l
	}
	if op == ctoken.Shl || op == ctoken.Shr {
		return l.Promote()
	}
	return ctypes.UsualArithmetic(l, rt)
}

func compoundBase(k ctoken.Kind) ctoken.Kind {
	switch k {
	case ctoken.PlusAssign:
		return ctoken.Plus
	case ctoken.MinusAssign:
		return ctoken.Minus
	case ctoken.StarAssign:
		return ctoken.Star
	case ctoken.SlashAssign:
		return ctoken.Slash
	case ctoken.PercentAssign:
		return ctoken.Percent
	case ctoken.AmpAssign:
		return ctoken.Amp
	case ctoken.PipeAssign:
		return ctoken.Pipe
	case ctoken.CaretAssign:
		return ctoken.Caret
	case ctoken.ShlAssign:
		return ctoken.Shl
	case ctoken.ShrAssign:
		return ctoken.Shr
	}
	return k
}

// genCall lowers a function call.
func (g *generator) genCall(x *cast.Call) (ir.Value, error) {
	var callee ir.Value
	var paramTypes []*ctypes.Type
	retT := exprType(x)

	if x.Direct != "" {
		callee = ir.FV(x.Direct)
		if id, ok := x.Target.(*cast.Ident); ok {
			if ft := id.Type(); ft != nil {
				fn := ft
				if fn.IsFuncPointer() {
					fn = fn.Elem
				}
				paramTypes = fn.Params
			}
		}
	} else {
		v, err := g.genExpr(x.Target)
		if err != nil {
			return ir.Value{}, err
		}
		callee = v
		tt := exprType(x.Target)
		fn := tt
		if fn.IsFuncPointer() {
			fn = fn.Elem
		}
		if fn.Kind == ctypes.Func {
			paramTypes = fn.Params
		}
	}

	args := make([]ir.Value, 0, len(x.Args))
	for i, a := range x.Args {
		at := exprType(a)
		v, err := g.genExpr(a)
		if err != nil {
			return ir.Value{}, err
		}
		if i < len(paramTypes) {
			v = g.convert(v, at, paramTypes[i])
		} else if at != nil && at.Kind == ctypes.Float {
			// Default argument promotion for varargs.
			v = g.convert(v, at, ctypes.DoubleType)
		}
		args = append(args, v)
	}

	dst := ir.NoReg
	if retT != nil && retT.Kind != ctypes.Void {
		if retT.Kind == ctypes.Struct {
			return ir.Value{}, errAt(x.Pos(), "struct return by value not supported")
		}
		dst = g.newReg(classOf(retT))
	}
	g.emit(ir.Inst{Kind: ir.KCall, Dst: dst, Callee: callee, Args: args})
	if dst == ir.NoReg {
		return ir.CI(0), nil
	}
	return ir.R(dst), nil
}
