package vm

import (
	"slices"

	"softbound/internal/ir"
)

// This file implements the fast engine's decode stage: each *ir.Func is
// flattened once into a dense []dinst, one decoded instruction per IR
// instruction. Block targets become flat instruction indices, operands
// are pre-resolved (register number vs. immediate — global and function
// addresses are a deterministic function of the module, so symbol
// operands become plain constants), and direct call targets are bound
// to their decoded bodies.
//
// The decoded program is immutable after construction and cached on the
// *ir.Module (ir.Module.Decoded), so concurrent VMs — the serve compile
// cache, the parallel bench harness — share one decode. A module linked
// behind a shared prefix (ir.Module.LinkPrefix: the cached libc unit)
// reuses the prefix's own cached decode, so the prefix is decoded once
// for every module linked against it and only the functions after it
// are decoded per module (see sharedPrefix for when that is sound).

// layoutGlobals computes the deterministic global layout: align-rounded
// offsets from GlobalBase, in declaration order. It fills addrs (and
// sizes, when non-nil) and returns the total data-segment extent.
func layoutGlobals(mod *ir.Module, addrs, sizes map[string]uint64) uint64 {
	var off uint64
	for _, g := range mod.Globals {
		align := uint64(g.Align)
		if align == 0 {
			align = 8
		}
		off = (off + align - 1) &^ (align - 1)
		addrs[g.Name] = GlobalBase + off
		if sizes != nil {
			sizes[g.Name] = uint64(g.Size)
		}
		off += uint64(g.Size)
	}
	return off
}

// layoutFuncs assigns the deterministic function-segment addresses.
func layoutFuncs(mod *ir.Module, addrs map[string]uint64) {
	for i, f := range mod.Funcs {
		addrs[f.Name] = FuncBase + uint64(i)*FuncSlot
	}
}

// dOp discriminates decoded instructions.
type dOp uint8

// Decoded operations. dConst..dUnreachable map 1:1 onto InstKinds (with
// const/reg specialization).
const (
	dBad dOp = iota // malformed instruction or operand: typed RuntimeError
	dFellOff
	dConst // dst = immediate
	dMov   // dst = register
	dAdd   // 64-bit wrapping add (width 0/64; signedness immaterial)
	dSub
	dMul
	dBin // generic KBin via src
	dUn
	dCmp
	dConv
	dAlloca
	dLoad
	dStore
	dGEP
	dCheck
	dCheckCall
	dMetaLoad
	dMetaStore
	dMetaClear
	dBr
	dCondBr
	dCall
	dRet
	dUnreachable
)

// dOperand is a pre-resolved operand: a register number, or (reg ==
// NoReg) an immediate. Constants, global addresses, and function
// addresses all collapse to immediates at decode time.
type dOperand struct {
	reg ir.Reg
	imm uint64
}

// get reads the operand against a register file.
func (o dOperand) get(regs []uint64) uint64 {
	if o.reg >= 0 {
		return regs[o.reg]
	}
	return o.imm
}

// dinst is one decoded instruction. The field set is the union of what
// the handlers need; src keeps the originating ir.Inst for cold fields
// (call argument metadata, conversion specs) and diagnostics, and blk/ip
// keep the source position for error wrapping.
type dinst struct {
	op     dOp
	mem    ir.MemType
	checkK ir.CheckKind

	dst, dst2 ir.Reg
	a, b      dOperand
	base, bnd dOperand // check bounds
	size, off int64    // GEP scale and constant offset; alloca size
	asize     uint64   // check access size

	// Temporal (CETS) operands, meaningful only under the flags: tmeta
	// gates key/lock (the check's lock-and-key pair, or a metastore's
	// source identity), and dst3 != NoReg gates the metaload key/lock
	// destinations. The flags are required — a zero dOperand or zero Reg
	// would otherwise read register 0, which is a valid register.
	tmeta      bool
	key, lock  dOperand
	dst3, dst4 ir.Reg

	target, elseT int32 // branch targets as flat indices (post-patch)

	callee *dfunc     // direct user-function call target
	args   []dOperand // pre-resolved call arguments
	shadow []dshadow  // pre-resolved shadow-window slots (KCall)

	src     *ir.Inst
	blk, ip int32
}

// dshadow is a pre-resolved shadow-stack slot of a call: the (base,
// bound) operands destined for window slot 1+arg, plus — under temporal
// instrumentation (tmeta) — the slot's (key, lock) operands.
type dshadow struct {
	arg       int32
	base, bnd dOperand
	tmeta     bool
	key, lock dOperand
}

// dfunc is a decoded function body.
type dfunc struct {
	fn         *ir.Func
	code       []dinst
	blockStart []int32
}

// program is a decoded module.
type program struct {
	funcs map[*ir.Func]*dfunc
	// free lists the symbols the module's code names but does not define:
	// builtin callees, and any global or function address that resolved
	// to 0. A module that defines one of them resolves it differently, so
	// it cannot reuse this decode as its prefix.
	free []string
}

// decoder carries the module-wide resolution context.
type decoder struct {
	globals   map[string]uint64
	funcAddrs map[string]uint64
	mod       *ir.Module
	prog      *program
	cur       *ir.Func // function being decoded (branch-target validation)
}

// decoded returns the module's cached decode, building it on first use.
func decoded(mod *ir.Module) *program {
	return mod.Decoded(func() any { return decodeModule(mod) }).(*program)
}

// decodeModule flattens every function of the module. It is pure with
// respect to the module (all addresses are recomputed from the layout
// helpers), so the result is shareable across VMs.
func decodeModule(mod *ir.Module) *program {
	dec := &decoder{
		globals:   make(map[string]uint64),
		funcAddrs: make(map[string]uint64),
		mod:       mod,
		prog:      &program{funcs: make(map[*ir.Func]*dfunc, len(mod.Funcs))},
	}
	layoutGlobals(mod, dec.globals, nil)
	layoutFuncs(mod, dec.funcAddrs)
	funcs := mod.Funcs
	if pre := dec.sharedPrefix(); pre != nil {
		for fn, df := range pre.funcs {
			dec.prog.funcs[fn] = df
		}
		dec.prog.free = append(dec.prog.free, pre.free...)
		funcs = funcs[len(mod.Prefix().Funcs):]
	}
	// Shells first, so direct-call operands can bind callees that appear
	// later (or recursively).
	for _, fn := range funcs {
		dec.prog.funcs[fn] = &dfunc{fn: fn}
	}
	for _, fn := range funcs {
		dec.decodeFunc(fn, dec.prog.funcs[fn])
	}
	return dec.prog
}

// sharedPrefix returns the decode of the module's prefix when the
// module can reuse it unchanged, else nil. Every decoded instruction is
// a function of the symbols it resolves, so a prefix function decodes
// the same in the module as in the prefix when each name resolves the
// same in both:
//   - the module's first functions and globals are the prefix's, pointer
//     for pointer, so they sit at the same addresses;
//   - no later function or global defines a name the prefix defines or
//     names without defining (a libc function calling malloc binds a
//     user-defined malloc, not the builtin).
func (dec *decoder) sharedPrefix() *program {
	m, p := dec.mod, dec.mod.Prefix()
	if p == nil || len(m.Funcs) < len(p.Funcs) || len(m.Globals) < len(p.Globals) ||
		!slices.Equal(m.Funcs[:len(p.Funcs)], p.Funcs) ||
		!slices.Equal(m.Globals[:len(p.Globals)], p.Globals) {
		return nil
	}
	pre := decoded(p)
	rebinds := func(name string) bool {
		return p.Lookup(name) != nil || p.GlobalByName(name) != nil || slices.Contains(pre.free, name)
	}
	for _, fn := range m.Funcs[len(p.Funcs):] {
		if rebinds(fn.Name) {
			return nil
		}
	}
	for _, g := range m.Globals[len(p.Globals):] {
		if rebinds(g.Name) {
			return nil
		}
	}
	return pre
}

// operand pre-resolves an ir.Value; ok is false for a malformed kind.
func (dec *decoder) operand(val ir.Value) (dOperand, bool) {
	switch val.Kind {
	case ir.VReg:
		return dOperand{reg: val.Reg}, true
	case ir.VConstInt, ir.VConstFloat: // a float constant's Int is its bits
		return dOperand{reg: ir.NoReg, imm: uint64(val.Int)}, true
	case ir.VGlobal:
		return dOperand{reg: ir.NoReg, imm: dec.symbol(dec.globals, val.Sym) + uint64(val.Off())}, true
	case ir.VFunc:
		return dOperand{reg: ir.NoReg, imm: dec.symbol(dec.funcAddrs, val.Sym)}, true
	}
	return dOperand{reg: ir.NoReg}, false
}

// symbol resolves a global or function address, noting a name the
// module does not define as free.
func (dec *decoder) symbol(addrs map[string]uint64, name string) uint64 {
	addr, ok := addrs[name]
	if !ok {
		dec.noteFree(name)
	}
	return addr
}

func (dec *decoder) noteFree(name string) {
	if !slices.Contains(dec.prog.free, name) {
		dec.prog.free = append(dec.prog.free, name)
	}
}

func isTerminator(k ir.InstKind) bool {
	switch k {
	case ir.KRet, ir.KBr, ir.KCondBr, ir.KUnreachable:
		return true
	}
	return false
}

// fallsOff reports whether control can run past a block's last
// instruction: the block is empty or does not end in a terminator.
func fallsOff(insts []ir.Inst) bool {
	return len(insts) == 0 || !isTerminator(insts[len(insts)-1].Kind)
}

func (dec *decoder) decodeFunc(fn *ir.Func, df *dfunc) {
	dec.cur = fn
	df.blockStart = make([]int32, len(fn.Blocks))
	// One decoded instruction per IR instruction, plus each fell-off
	// sentinel.
	n := 0
	for _, blk := range fn.Blocks {
		n += len(blk.Insts)
		if fallsOff(blk.Insts) {
			n++
		}
	}
	code := make([]dinst, 0, n)
	for bi, blk := range fn.Blocks {
		df.blockStart[bi] = int32(len(code))
		insts := blk.Insts
		for i := range insts {
			code = append(code, dec.decodeInst(&insts[i], bi, i))
		}
		if fallsOff(insts) {
			// The reference engine reports "fell off block" when ip runs
			// past the last instruction; a sentinel keeps the decoded
			// stream from sliding into the next block.
			code = append(code, dinst{op: dFellOff, blk: int32(bi), ip: int32(len(insts))})
		}
	}
	// Branch targets were recorded as block indices; patch them to flat
	// instruction indices now that every block start is known.
	for i := range code {
		switch code[i].op {
		case dBr:
			code[i].target = df.blockStart[code[i].target]
		case dCondBr:
			code[i].target = df.blockStart[code[i].target]
			code[i].elseT = df.blockStart[code[i].elseT]
		}
	}
	df.code = code
}

// decodeInst translates one instruction; any malformed piece degrades to
// dBad, which traps with a typed RuntimeError if ever executed.
func (dec *decoder) decodeInst(in *ir.Inst, bi, ii int) dinst {
	d := dinst{src: in, blk: int32(bi), ip: int32(ii)}
	bad := func() dinst {
		d.op = dBad
		return d
	}
	switch in.Kind {
	case ir.KConst, ir.KMov:
		a, ok := dec.operand(in.A)
		if !ok {
			return bad()
		}
		d.a, d.dst = a, in.Dst
		if a.reg >= 0 {
			d.op = dMov
		} else {
			d.op = dConst
		}

	case ir.KBin:
		a, okA := dec.operand(in.A)
		b, okB := dec.operand(in.B)
		if !okA || !okB {
			return bad()
		}
		d.a, d.b, d.dst = a, b, in.Dst
		// Full-width adds/subs/muls (the address arithmetic workhorses)
		// skip the generic width/sign dispatch: wrapInt is the identity
		// at width 0/64 regardless of signedness.
		if in.IntWidth == 0 || in.IntWidth == 64 {
			switch in.Op {
			case ir.OpAdd:
				d.op = dAdd
				return d
			case ir.OpSub:
				d.op = dSub
				return d
			case ir.OpMul:
				d.op = dMul
				return d
			}
		}
		d.op = dBin

	case ir.KUn:
		a, ok := dec.operand(in.A)
		if !ok {
			return bad()
		}
		d.op, d.a, d.dst = dUn, a, in.Dst

	case ir.KCmp:
		a, okA := dec.operand(in.A)
		b, okB := dec.operand(in.B)
		if !okA || !okB {
			return bad()
		}
		d.op, d.a, d.b, d.dst = dCmp, a, b, in.Dst

	case ir.KConv:
		a, ok := dec.operand(in.A)
		if !ok {
			return bad()
		}
		d.op, d.a, d.dst = dConv, a, in.Dst

	case ir.KAlloca:
		d.op, d.dst = dAlloca, in.Dst
		d.off = in.C.Int
		d.size = in.Size

	case ir.KLoad:
		a, ok := dec.operand(in.A)
		if !ok {
			return bad()
		}
		d.op, d.a, d.dst, d.mem = dLoad, a, in.Dst, in.Mem

	case ir.KStore:
		a, okA := dec.operand(in.A)
		b, okB := dec.operand(in.B)
		if !okA || !okB {
			return bad()
		}
		d.op, d.a, d.b, d.mem = dStore, a, b, in.Mem

	case ir.KGEP:
		a, okA := dec.operand(in.A)
		b, okB := dec.operand(in.B)
		if !okA || !okB {
			return bad()
		}
		d.op, d.a, d.b, d.dst = dGEP, a, b, in.Dst
		d.size, d.off = in.Size, in.C.Int

	case ir.KCheck:
		a, okA := dec.operand(in.A)
		m, okM := dec.checkMeta(in)
		if !okA || !okM {
			return bad()
		}
		d.a, d.base, d.bnd = a, m[0], m[1]
		d.checkK = in.CheckK
		if in.CheckK == ir.CheckCall {
			d.op = dCheckCall
		} else {
			d.op = dCheck
			d.asize = uint64(in.AccessSize)
			d.tmeta, d.key, d.lock = in.TMeta, m[2], m[3]
		}

	case ir.KMetaLoad:
		a, ok := dec.operand(in.A)
		if !ok {
			return bad()
		}
		d.op, d.a = dMetaLoad, a
		d.dst, d.dst2, d.dst3, d.dst4 = metaDsts(in)

	case ir.KMetaStore:
		a, okA := dec.operand(in.A)
		m, okM := dec.metaTuple(&in.Meta, in.MetaWords())
		if !okA || !okM {
			return bad()
		}
		d.op, d.a = dMetaStore, a
		d.base, d.bnd, d.tmeta, d.key, d.lock = m[0], m[1], in.TMeta, m[2], m[3]

	case ir.KMetaClear:
		a, okA := dec.operand(in.A)
		b, okB := dec.operand(in.B)
		if !okA || !okB {
			return bad()
		}
		d.op, d.a, d.b = dMetaClear, a, b

	case ir.KBr:
		if in.Target < 0 || in.Target >= len(dec.curBlocks()) {
			return bad()
		}
		d.op, d.target = dBr, int32(in.Target)

	case ir.KCondBr:
		a, ok := dec.operand(in.A)
		if !ok || in.Target < 0 || in.Target >= len(dec.curBlocks()) ||
			in.Else < 0 || in.Else >= len(dec.curBlocks()) {
			return bad()
		}
		d.op, d.a = dCondBr, a
		d.target, d.elseT = int32(in.Target), int32(in.Else)

	case ir.KCall:
		d.op = dCall
		d.args = make([]dOperand, len(in.Args))
		for i, a := range in.Args {
			op, ok := dec.operand(a)
			if !ok {
				return bad()
			}
			d.args[i] = op
		}
		if len(in.Shadow) > 0 {
			d.shadow = make([]dshadow, len(in.Shadow))
			for i := range in.Shadow {
				s := &in.Shadow[i]
				m, ok := dec.metaTuple(&s.Meta, in.MetaWords())
				if !ok {
					return bad()
				}
				d.shadow[i] = dshadow{arg: int32(s.Arg), base: m[0], bnd: m[1],
					tmeta: in.TMeta, key: m[2], lock: m[3]}
			}
		}
		switch in.Callee.Kind {
		case ir.VFunc:
			if fn := dec.mod.Lookup(in.Callee.Sym); fn != nil {
				d.callee = dec.prog.funcs[fn]
			} else {
				dec.noteFree(in.Callee.Sym)
			}
		case ir.VReg:
			// Indirect: resolved per call through the register.
		default:
			return bad()
		}

	case ir.KRet:
		d.op = dRet

	case ir.KUnreachable:
		d.op = dUnreachable

	default:
		return bad()
	}
	return d
}

// curBlocks returns the block slice of the function being decoded.
func (dec *decoder) curBlocks() []*ir.Block { return dec.cur.Blocks }

// metaTuple pre-resolves the first words of a metadata tuple (base,
// bound, then key and lock); the words past them stay zero.
func (dec *decoder) metaTuple(m *[4]ir.Value, words int) (t [4]dOperand, ok bool) {
	for w := range words {
		if t[w], ok = dec.operand(m[w]); !ok {
			return t, false
		}
	}
	return t, true
}

// checkMeta pre-resolves a check's tuple. A function-pointer check is
// spatial only: it never carries key and lock.
func (dec *decoder) checkMeta(chk *ir.Inst) ([4]dOperand, bool) {
	words := chk.MetaWords()
	if chk.CheckK == ir.CheckCall {
		words = 2
	}
	return dec.metaTuple(&chk.Meta, words)
}

// metaDsts returns a metadata load's destination registers; key and
// lock are NoReg unless the load is temporal.
func metaDsts(ml *ir.Inst) (base, bnd, key, lock ir.Reg) {
	key, lock = ir.NoReg, ir.NoReg
	if ml.TMeta {
		key, lock = ml.MetaDst[2], ml.MetaDst[3]
	}
	return ml.MetaDst[0], ml.MetaDst[1], key, lock
}
