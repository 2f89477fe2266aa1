package irgen

import (
	"math"

	"softbound/internal/cast"
	"softbound/internal/ctoken"
	"softbound/internal/ctypes"
	"softbound/internal/ir"
	"softbound/internal/sema"
)

func floatBits32(f float64) uint32 { return math.Float32bits(float32(f)) }
func floatBits64(f float64) uint64 { return math.Float64bits(f) }

// ---------------------------------------------------------------- functions

func (g *generator) genFunc(fi *sema.FuncInfo) error {
	d := fi.Decl
	f := &ir.Func{
		Name:     d.Name,
		RetClass: classOf(d.Ret),
		RetIsPtr: d.Ret.Kind == ctypes.Pointer,
		HasRet:   d.Ret.Kind != ctypes.Void,
		Variadic: d.Variadic,
	}
	g.fn = f
	g.fi = fi
	g.regOf = make(map[*sema.Symbol]ir.Reg)
	g.addrOf = make(map[*sema.Symbol]ir.Reg)
	g.typeOf = make(map[*sema.Symbol]*ctypes.Type)
	g.labelBlocks = make(map[string]int)
	g.breakTargets = nil
	g.continueTargets = nil
	g.frameOff = 0
	g.clear = nil

	// Address-taken analysis decides register promotion.
	taken := make(map[*sema.Symbol]bool)
	g.findAddressTaken(d.Body, taken)

	// Parameters occupy the first registers, in order.
	for _, ps := range fi.Params {
		c := classOf(ps.Type)
		r := f.NewReg(c)
		g.typeOf[ps] = ps.Type
		f.Params = append(f.Params, ir.Param{
			Name:  ps.Name,
			Class: c,
			IsPtr: ps.Type.Kind == ctypes.Pointer,
		})
		f.ParamRegs = append(f.ParamRegs, r)
		g.regOf[ps] = r
	}
	f.OrigParams = len(f.Params)

	g.cur = f.NewBlock("entry")
	g.buf = g.buf[:0]

	// Pre-create alloca slots for all locals (storage has function
	// lifetime; initialization happens at the declaration point). Also
	// decide promotion. Locals are laid out before spilled parameters,
	// matching the x86 convention that callee-saved parameter spills
	// sit above the locals.
	for _, ls := range fi.Locals {
		g.typeOf[ls] = ls.Type
		d := ls.Decl.(*cast.VarDecl)
		if d.Static {
			// Block-scope statics become module globals with a
			// function-qualified name.
			name := f.Name + "." + ls.Name
			gv := &ir.Global{
				Name: name, Size: ls.Type.Size(), Align: ls.Type.Align(),
				ContainsPtr: ls.Type.ContainsPointer(),
			}
			if d.Init != nil {
				buf := make([]byte, gv.Size)
				if err := g.layoutInit(gv, buf, 0, ls.Type, d.Init); err != nil {
					return err
				}
				gv.Init = buf
			}
			g.mod.Globals = append(g.mod.Globals, gv)
			continue
		}
		if g.promotable(ls, taken) {
			r := f.NewReg(classOf(ls.Type))
			g.regOf[ls] = r
			continue
		}
		g.addrOf[ls] = g.alloca(ls.Type, ls.Name)
	}

	// Demote address-taken parameters to stack slots (above the locals).
	for _, ps := range fi.Params {
		if !taken[ps] {
			continue
		}
		addr := g.alloca(ps.Type, ps.Name)
		mt, err := memTypeOf(ps.Type)
		if err != nil {
			return errAt(d.Pos(), "parameter %q: %v", ps.Name, err)
		}
		g.emit(ir.Inst{Kind: ir.KStore, A: ir.R(addr), B: ir.R(g.regOf[ps]), Mem: mt})
		delete(g.regOf, ps)
		g.addrOf[ps] = addr
	}

	// Pre-create blocks for labels so forward gotos resolve.
	for lbl := range fi.Labels {
		g.labelBlocks[lbl] = f.NewBlock("label." + lbl)
	}

	if err := g.genStmt(d.Body); err != nil {
		return err
	}
	// Implicit return.
	if !g.terminated() {
		g.emitDefaultReturn()
	}
	g.flush()
	// Ensure every block is terminated (label blocks never branched to,
	// dead blocks).
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || !t.IsTerminator() {
			b.Insts = append(b.Insts, ir.Inst{Kind: ir.KUnreachable})
		}
	}
	f.FrameSize = alignUp(g.frameOff, 16)
	f.ClearSlots = g.clear
	g.mod.AddFunc(f)
	return nil
}

func (g *generator) emitDefaultReturn() {
	if !g.fn.HasRet {
		g.emit(ir.Inst{Kind: ir.KRet})
		return
	}
	if g.fn.RetClass == ir.ClassFloat {
		g.emit(ir.Inst{Kind: ir.KRet, HasVal: true, A: ir.CF(0)})
		return
	}
	g.emit(ir.Inst{Kind: ir.KRet, HasVal: true, A: ir.CI(0)})
}

func alignUp(n, a int64) int64 { return (n + a - 1) / a * a }

// promotable reports whether the local can live in a register.
func (g *generator) promotable(s *sema.Symbol, taken map[*sema.Symbol]bool) bool {
	if taken[s] {
		return false
	}
	switch s.Type.Kind {
	case ctypes.Array, ctypes.Struct:
		return false
	}
	return true
}

// alloca reserves a frame slot and emits the address computation.
func (g *generator) alloca(t *ctypes.Type, name string) ir.Reg {
	size := t.Size()
	if size == 0 {
		size = 1
	}
	align := t.Align()
	g.frameOff = alignUp(g.frameOff, align)
	off := g.frameOff
	g.frameOff += size
	r := g.fn.NewReg(ir.ClassPtr)
	g.fn.Allocas = append(g.fn.Allocas, ir.AllocaSlot{Offset: off, Size: size, Name: name})
	g.emit(ir.Inst{Kind: ir.KAlloca, Dst: r, Size: size, Align: align, Name: name,
		C: ir.CI(off)})
	if t.ContainsPointer() {
		g.clear = append(g.clear, ir.AllocaSlot{Offset: off, Size: size, Name: name})
	}
	return r
}

// findAddressTaken marks symbols whose address escapes via &.
func (g *generator) findAddressTaken(s cast.Stmt, out map[*sema.Symbol]bool) {
	var walkExpr func(e cast.Expr)
	markAddr := func(e cast.Expr) {
		if id, ok := e.(*cast.Ident); ok {
			if sym := g.info.Refs[id]; sym != nil {
				out[sym] = true
			}
		}
	}
	walkExpr = func(e cast.Expr) {
		switch x := e.(type) {
		case *cast.Unary:
			if x.Op == ctoken.Amp {
				// &x.f or &x[i] still requires x in memory when x is
				// the direct operand chain base.
				base := x.X
				for {
					switch b := base.(type) {
					case *cast.Member:
						if b.Arrow {
							base = nil
						} else {
							base = b.X
							continue
						}
					case *cast.Index:
						base = b.X
						continue
					}
					break
				}
				if base != nil {
					markAddr(base)
				}
			}
			if x.X != nil {
				walkExpr(x.X)
			}
		case *cast.Postfix:
			walkExpr(x.X)
		case *cast.Binary:
			walkExpr(x.X)
			walkExpr(x.Y)
		case *cast.Assign:
			walkExpr(x.L)
			walkExpr(x.R)
		case *cast.Cond:
			walkExpr(x.C)
			walkExpr(x.Then)
			walkExpr(x.Else)
		case *cast.Comma:
			walkExpr(x.X)
			walkExpr(x.Y)
		case *cast.Cast:
			walkExpr(x.X)
		case *cast.SizeofType:
			// sizeof does not evaluate its operand.
		case *cast.Index:
			walkExpr(x.X)
			walkExpr(x.I)
		case *cast.Member:
			walkExpr(x.X)
		case *cast.Call:
			walkExpr(x.Target)
			for _, a := range x.Args {
				walkExpr(a)
			}
		}
	}
	var walkInit func(in *cast.Init)
	walkInit = func(in *cast.Init) {
		if in == nil {
			return
		}
		if in.Expr != nil {
			walkExpr(in.Expr)
		}
		for _, item := range in.List {
			walkInit(item)
		}
	}
	var walk func(s cast.Stmt)
	walk = func(s cast.Stmt) {
		switch x := s.(type) {
		case *cast.Block:
			for _, st := range x.Stmts {
				walk(st)
			}
		case *cast.ExprStmt:
			walkExpr(x.X)
		case *cast.DeclStmt:
			for _, d := range x.Decls {
				walkInit(d.Init)
			}
		case *cast.If:
			walkExpr(x.Cond)
			walk(x.Then)
			if x.Else != nil {
				walk(x.Else)
			}
		case *cast.While:
			walkExpr(x.Cond)
			walk(x.Body)
		case *cast.DoWhile:
			walk(x.Body)
			walkExpr(x.Cond)
		case *cast.For:
			if x.Init != nil {
				walk(x.Init)
			}
			if x.Cond != nil {
				walkExpr(x.Cond)
			}
			if x.Post != nil {
				walkExpr(x.Post)
			}
			walk(x.Body)
		case *cast.Return:
			if x.X != nil {
				walkExpr(x.X)
			}
		case *cast.Labeled:
			walk(x.Stmt)
		case *cast.Switch:
			walkExpr(x.Tag)
			for _, cs := range x.Cases {
				for _, st := range cs.Body {
					walk(st)
				}
			}
		}
	}
	walk(s)
}

// --------------------------------------------------------------- statements

func (g *generator) genStmt(s cast.Stmt) error {
	switch x := s.(type) {
	case *cast.Block:
		for _, st := range x.Stmts {
			if err := g.genStmt(st); err != nil {
				return err
			}
		}
		return nil

	case *cast.ExprStmt:
		_, err := g.genExpr(x.X)
		return err

	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if err := g.genLocalDecl(d); err != nil {
				return err
			}
		}
		return nil

	case *cast.If:
		cond, err := g.genCond(x.Cond)
		if err != nil {
			return err
		}
		thenB := g.fn.NewBlock("if.then")
		endB := g.fn.NewBlock("if.end")
		elseB := endB
		if x.Else != nil {
			elseB = g.fn.NewBlock("if.else")
		}
		g.condBr(cond, thenB, elseB)
		g.setBlock(thenB)
		if err := g.genStmt(x.Then); err != nil {
			return err
		}
		g.br(endB)
		if x.Else != nil {
			g.setBlock(elseB)
			if err := g.genStmt(x.Else); err != nil {
				return err
			}
			g.br(endB)
		}
		g.setBlock(endB)
		return nil

	case *cast.While:
		condB := g.fn.NewBlock("while.cond")
		bodyB := g.fn.NewBlock("while.body")
		endB := g.fn.NewBlock("while.end")
		g.br(condB)
		g.setBlock(condB)
		cond, err := g.genCond(x.Cond)
		if err != nil {
			return err
		}
		g.condBr(cond, bodyB, endB)
		g.setBlock(bodyB)
		g.pushLoop(endB, condB)
		if err := g.genStmt(x.Body); err != nil {
			return err
		}
		g.popLoop()
		g.br(condB)
		g.setBlock(endB)
		return nil

	case *cast.DoWhile:
		bodyB := g.fn.NewBlock("do.body")
		condB := g.fn.NewBlock("do.cond")
		endB := g.fn.NewBlock("do.end")
		g.br(bodyB)
		g.setBlock(bodyB)
		g.pushLoop(endB, condB)
		if err := g.genStmt(x.Body); err != nil {
			return err
		}
		g.popLoop()
		g.br(condB)
		g.setBlock(condB)
		cond, err := g.genCond(x.Cond)
		if err != nil {
			return err
		}
		g.condBr(cond, bodyB, endB)
		g.setBlock(endB)
		return nil

	case *cast.For:
		if x.Init != nil {
			if err := g.genStmt(x.Init); err != nil {
				return err
			}
		}
		condB := g.fn.NewBlock("for.cond")
		bodyB := g.fn.NewBlock("for.body")
		postB := g.fn.NewBlock("for.post")
		endB := g.fn.NewBlock("for.end")
		g.br(condB)
		g.setBlock(condB)
		if x.Cond != nil {
			cond, err := g.genCond(x.Cond)
			if err != nil {
				return err
			}
			g.condBr(cond, bodyB, endB)
		} else {
			g.br(bodyB)
		}
		g.setBlock(bodyB)
		g.pushLoop(endB, postB)
		if err := g.genStmt(x.Body); err != nil {
			return err
		}
		g.popLoop()
		g.br(postB)
		g.setBlock(postB)
		if x.Post != nil {
			if _, err := g.genExpr(x.Post); err != nil {
				return err
			}
		}
		g.br(condB)
		g.setBlock(endB)
		return nil

	case *cast.Return:
		if x.X == nil {
			if g.fn.HasRet {
				g.emitDefaultReturn()
			} else {
				g.emit(ir.Inst{Kind: ir.KRet})
			}
			return nil
		}
		v, err := g.genExprConverted(x.X, g.fi.Decl.Ret)
		if err != nil {
			return err
		}
		g.emit(ir.Inst{Kind: ir.KRet, HasVal: true, A: v})
		return nil

	case *cast.Break:
		if len(g.breakTargets) == 0 {
			return errAt(x.Pos(), "break outside loop or switch")
		}
		g.br(g.breakTargets[len(g.breakTargets)-1])
		return nil

	case *cast.Continue:
		if len(g.continueTargets) == 0 {
			return errAt(x.Pos(), "continue outside loop")
		}
		g.br(g.continueTargets[len(g.continueTargets)-1])
		return nil

	case *cast.Goto:
		g.br(g.labelBlocks[x.Label])
		return nil

	case *cast.Labeled:
		b := g.labelBlocks[x.Label]
		g.br(b)
		g.setBlock(b)
		return g.genStmt(x.Stmt)

	case *cast.Switch:
		return g.genSwitch(x)
	}
	return errAt(s.Pos(), "internal: cannot lower %T", s)
}

func (g *generator) pushLoop(brk, cont int) {
	g.breakTargets = append(g.breakTargets, brk)
	g.continueTargets = append(g.continueTargets, cont)
}

func (g *generator) popLoop() {
	g.breakTargets = g.breakTargets[:len(g.breakTargets)-1]
	g.continueTargets = g.continueTargets[:len(g.continueTargets)-1]
}

func (g *generator) genSwitch(x *cast.Switch) error {
	tag, err := g.genExpr(x.Tag)
	if err != nil {
		return err
	}
	endB := g.fn.NewBlock("switch.end")
	// Create a body block per case, then a comparison chain.
	bodyBlocks := make([]int, len(x.Cases))
	for i := range x.Cases {
		bodyBlocks[i] = g.fn.NewBlock("case.body")
	}
	defaultB := endB
	for i, cs := range x.Cases {
		if cs.IsDefault {
			defaultB = bodyBlocks[i]
		}
	}
	// Comparison chain.
	for i, cs := range x.Cases {
		if cs.IsDefault {
			continue
		}
		r := g.newReg(ir.ClassInt)
		g.emit(ir.Inst{Kind: ir.KCmp, Dst: r, Pred: ir.PredEQ, A: tag, B: ir.CI(cs.Value)})
		next := g.fn.NewBlock("case.test")
		g.condBr(ir.R(r), bodyBlocks[i], next)
		g.setBlock(next)
		_ = i
	}
	g.br(defaultB)
	// Bodies with fallthrough.
	g.breakTargets = append(g.breakTargets, endB)
	for i, cs := range x.Cases {
		g.setBlock(bodyBlocks[i])
		for _, st := range cs.Body {
			if err := g.genStmt(st); err != nil {
				return err
			}
		}
		if i+1 < len(x.Cases) {
			g.br(bodyBlocks[i+1]) // fallthrough
		} else {
			g.br(endB)
		}
	}
	g.breakTargets = g.breakTargets[:len(g.breakTargets)-1]
	g.setBlock(endB)
	return nil
}

func (g *generator) genLocalDecl(d *cast.VarDecl) error {
	sym := g.findLocalSym(d)
	if sym == nil {
		return errAt(d.Pos(), "internal: unresolved local %q", d.Name)
	}
	if d.Static {
		return nil // storage emitted as a global in genFunc
	}
	if d.Init == nil {
		return nil
	}
	if r, ok := g.regOf[sym]; ok {
		v, err := g.genExprConverted(d.Init.Expr, sym.Type)
		if err != nil {
			return err
		}
		g.emit(ir.Inst{Kind: ir.KMov, Dst: r, A: v})
		return nil
	}
	addr := g.addrOf[sym]
	return g.genInitInto(ir.R(addr), sym.Type, d.Init)
}

// genInitInto stores an initializer into memory at addr.
func (g *generator) genInitInto(addr ir.Value, t *ctypes.Type, init *cast.Init) error {
	if init.Expr != nil {
		if s, ok := init.Expr.(*cast.StringLit); ok && t.Kind == ctypes.Array {
			// char buf[N] = "str": copy the literal (memcpy semantics).
			name := g.internString(s.Value)
			n := int64(len(s.Value)) + 1
			if t.ArrayLen >= 0 && n > t.ArrayLen {
				n = t.ArrayLen
			}
			g.emit(ir.Inst{Kind: ir.KCall, Dst: ir.NoReg,
				Callee: ir.FV("memcpy"),
				Args:   []ir.Value{addr, ir.GV(name, 0), ir.CI(n)}})
			return nil
		}
		v, err := g.genExprConverted(init.Expr, t)
		if err != nil {
			return err
		}
		if t.Kind == ctypes.Struct {
			// Struct assignment from another struct lvalue: the
			// expression evaluates to the source address.
			g.emit(ir.Inst{Kind: ir.KCall, Dst: ir.NoReg,
				Callee: ir.FV("memcpy"),
				Args:   []ir.Value{addr, v, ir.CI(t.Size())}})
			return nil
		}
		mt, err := memTypeOf(t)
		if err != nil {
			return errAt(init.Pos, "%v", err)
		}
		g.emit(ir.Inst{Kind: ir.KStore, A: addr, B: v, Mem: mt})
		return nil
	}
	// Brace list: zero the whole object, then store the listed elements.
	g.emit(ir.Inst{Kind: ir.KCall, Dst: ir.NoReg, Callee: ir.FV("memset"),
		Args: []ir.Value{addr, ir.CI(0), ir.CI(t.Size())}})
	return g.genBraceInto(addr, t, init)
}

func (g *generator) genBraceInto(addr ir.Value, t *ctypes.Type, init *cast.Init) error {
	switch t.Kind {
	case ctypes.Array:
		for i, item := range init.List {
			off := int64(i) * t.Elem.Size()
			ea := g.addrPlus(addr, off)
			if item.List != nil {
				if err := g.genBraceInto(ea, t.Elem, item); err != nil {
					return err
				}
			} else if err := g.genInitInto(ea, t.Elem, item); err != nil {
				return err
			}
		}
	case ctypes.Struct:
		for i, item := range init.List {
			if i >= len(t.Fields) {
				break
			}
			f := t.Fields[i]
			ea := g.addrPlus(addr, f.Offset)
			if item.List != nil {
				if err := g.genBraceInto(ea, f.Type, item); err != nil {
					return err
				}
			} else if err := g.genInitInto(ea, f.Type, item); err != nil {
				return err
			}
		}
	default:
		if len(init.List) >= 1 {
			return g.genInitInto(addr, t, init.List[0])
		}
	}
	return nil
}

// fieldAddr emits the address of a struct field and marks the GEP for
// bounds shrinking: the resulting pointer's metadata narrows to the field
// (paper §3.1 "Shrinking Pointer Bounds"), which is what lets SoftBound
// catch the sub-object overflows object-table schemes miss (§2.1).
func (g *generator) fieldAddr(base ir.Value, off, fieldSize int64) ir.Value {
	r := g.newReg(ir.ClassPtr)
	g.emit(ir.Inst{Kind: ir.KGEP, Dst: r, A: base, B: ir.CI(0), Size: 1,
		C: ir.CI(off), Shrink: true, ShrinkLen: fieldSize})
	return ir.R(r)
}

// addrPlus emits addr+off (folding into the operand when possible).
func (g *generator) addrPlus(addr ir.Value, off int64) ir.Value {
	if off == 0 {
		return addr
	}
	if addr.Kind == ir.VGlobal {
		a := addr
		a.Int += off
		return a
	}
	r := g.newReg(ir.ClassPtr)
	g.emit(ir.Inst{Kind: ir.KGEP, Dst: r, A: addr, B: ir.CI(0), Size: 1, C: ir.CI(off)})
	return ir.R(r)
}

func (g *generator) findLocalSym(d *cast.VarDecl) *sema.Symbol {
	for _, s := range g.fi.Locals {
		if s.Decl == d {
			return s
		}
	}
	return nil
}
