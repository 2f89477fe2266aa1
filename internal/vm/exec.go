package vm

import (
	"fmt"
	"math"

	"softbound/internal/ir"
	"softbound/internal/meta"
)

// Simulated x86 instruction costs per IR operation. Metadata costs come
// from the facility (paper §5.1).
const (
	costALU    = 1
	costMem    = 1
	costBr     = 1
	costCondBr = 2
	costCall   = 3
	costRet    = 3
	// CheckCost is one spatial check: two compares and a branch.
	CheckCost = 3
	// costTemporalCheck models the CETS lock-and-key sequence a checked
	// dereference adds: load the lock word, compare against the key,
	// branch. Charged only for checks carrying temporal operands.
	costTemporalCheck = 3
)

// eval resolves an operand against the current frame. A malformed
// operand kind is a typed RuntimeError delivered by panic (the hot
// signature stays a plain uint64); the engine loops convert it back to
// an ordinary error via recoverRuntime.
func (v *VM) eval(f *frame, val ir.Value) uint64 {
	switch val.Kind {
	case ir.VReg:
		return f.regs[val.Reg]
	case ir.VConstInt, ir.VConstFloat: // a float constant's Int is its bits
		return uint64(val.Int)
	case ir.VGlobal:
		return v.globalAddrs[val.Sym] + uint64(val.Off())
	case ir.VFunc:
		return v.funcAddrs[val.Sym]
	}
	panic(&RuntimeError{Msg: fmt.Sprintf("unknown operand kind %d in %s", val.Kind, f.fn.Name)})
}

// recoverRuntime converts a panicked *RuntimeError (raised by eval on a
// malformed operand) into the returned error; any other panic value is
// re-raised untouched.
func recoverRuntime(errp *error) {
	if r := recover(); r != nil {
		re, ok := r.(*RuntimeError)
		if !ok {
			panic(r)
		}
		*errp = re
	}
}

// loop runs until the outermost frame returns, exit() is called, or an
// error occurs.
func (v *VM) loop() (err error) {
	defer recoverRuntime(&err)
	for !v.halted && len(v.stack) > 0 {
		if err := v.step(); err != nil {
			// Attach the faulting site for diagnostics; callers unwrap
			// with errors.As to classify the failure.
			if f := &v.stack[len(v.stack)-1]; len(f.fn.Blocks) > f.block &&
				f.ip < len(f.fn.Blocks[f.block].Insts) {
				in := &f.fn.Blocks[f.block].Insts[f.ip]
				return fmt.Errorf("at %s b%d#%d [%s]: %w",
					f.fn.Name, f.block, f.ip, in.String(), err)
			}
			return err
		}
	}
	return nil
}

// deadlinePollMask sets how often the step loop polls the context: every
// 4096 steps, cheap enough to be noise yet bounding deadline-detection
// latency to microseconds of simulated work.
const deadlinePollMask = 4095

func (v *VM) step() error {
	v.steps++
	if v.steps > v.limit {
		return &Trap{Code: TrapStepLimit, Cause: &RuntimeError{Msg: fmt.Sprintf(
			"step limit (%d) exceeded (possible runaway program)", v.limit)}}
	}
	if v.steps&deadlinePollMask == 0 && v.ctx != nil && v.ctx.Err() != nil {
		return &Trap{Code: TrapDeadline, Cause: &RuntimeError{Msg: fmt.Sprintf(
			"deadline exceeded after %d steps: %v", v.steps, v.ctx.Err())}}
	}
	f := &v.stack[len(v.stack)-1]
	blk := f.fn.Blocks[f.block]
	if f.ip >= len(blk.Insts) {
		return &RuntimeError{Msg: fmt.Sprintf("fell off block b%d in %s", f.block, f.fn.Name)}
	}
	in := &blk.Insts[f.ip]
	v.stats.Insts++

	switch in.Kind {
	case ir.KConst, ir.KMov:
		f.regs[in.Dst] = v.eval(f, in.A)
		v.stats.SimInsts += costALU

	case ir.KBin:
		r, err := v.execBin(f, in)
		if err != nil {
			return err
		}
		f.regs[in.Dst] = r
		v.stats.SimInsts += costALU

	case ir.KUn:
		f.regs[in.Dst] = unOp(f.regs[in.Dst], v.eval(f, in.A), in)
		v.stats.SimInsts += costALU

	case ir.KCmp:
		f.regs[in.Dst] = v.execCmp(f, in)
		v.stats.SimInsts += costALU

	case ir.KConv:
		f.regs[in.Dst] = execConv(v.eval(f, in.A), in)
		v.stats.SimInsts += costALU

	case ir.KAlloca:
		f.regs[in.Dst] = f.fp + uint64(in.C.Int)
		if v.cfg.Checker != nil {
			v.cfg.Checker.OnAlloc(f.regs[in.Dst], uint64(in.Size), "stack")
		}
		v.stats.SimInsts += costALU

	case ir.KLoad:
		addr := v.eval(f, in.A)
		if v.cfg.Checker != nil {
			if err := v.cfg.Checker.OnLoad(addr, uint64(in.Mem.Size())); err != nil {
				return err
			}
		}
		val, err := v.loadMem(addr, in.Mem)
		if err != nil {
			return err
		}
		f.regs[in.Dst] = val
		v.stats.Loads++
		if in.Mem == ir.MemPtr {
			v.stats.PtrLoads++
		}
		v.stats.SimInsts += costMem

	case ir.KStore:
		addr := v.eval(f, in.A)
		if v.cfg.Checker != nil {
			if err := v.cfg.Checker.OnStore(addr, uint64(in.Mem.Size())); err != nil {
				return err
			}
		}
		val := v.eval(f, in.B)
		if err := v.storeMem(addr, val, in.Mem); err != nil {
			return err
		}
		v.stats.Stores++
		if in.Mem == ir.MemPtr {
			v.stats.PtrStores++
			// Fault-injection surface: flip bits in the committed pointer
			// word when the injector schedules it.
			if v.cfg.PtrStoreFault != nil {
				if mask := v.cfg.PtrStoreFault(addr, val); mask != 0 {
					_ = v.mem.WriteU64(addr, val^mask)
				}
			}
		}
		v.stats.SimInsts += costMem

	case ir.KGEP:
		base := v.eval(f, in.A)
		idx := v.eval(f, in.B)
		f.regs[in.Dst] = base + idx*uint64(in.Size) + uint64(in.C.Int)
		v.stats.SimInsts += costALU

	case ir.KCheck:
		ptr := v.eval(f, in.A)
		if in.CheckK == ir.CheckCall {
			if err := v.checkCall(f.fn.Name, ptr, v.eval(f, in.Meta[0]), v.eval(f, in.Meta[1])); err != nil {
				return err
			}
			f.ip++
			return nil
		}
		e := v.evalMeta(f, &in.Meta, in.TMeta)
		if err := v.checkAccess(f.fn.Name, in.CheckK, ptr, e.Base, e.Bound,
			uint64(in.AccessSize), in.TMeta, e.Key, e.Lock); err != nil {
			return err
		}

	case ir.KMetaLoad:
		addr := v.eval(f, in.A)
		setMetaRegs(f.regs, in, v.fac.Lookup(addr))
		v.stats.MetaLoads++
		v.stats.SimInsts += uint64(v.fac.Costs().Lookup)

	case ir.KMetaStore:
		addr := v.eval(f, in.A)
		v.fac.Update(addr, v.evalMeta(f, &in.Meta, in.TMeta))
		v.stats.MetaStores++
		v.stats.SimInsts += uint64(v.fac.Costs().Update)

	case ir.KMetaClear:
		addr := v.eval(f, in.A)
		size := v.eval(f, in.B)
		v.fac.Clear(addr, size)
		v.stats.MetaClears++
		v.stats.SimInsts += 2 * (size/8 + 1)

	case ir.KBr:
		f.block = in.Target
		f.ip = 0
		v.stats.SimInsts += costBr
		return nil

	case ir.KCondBr:
		if v.eval(f, in.A) != 0 {
			f.block = in.Target
		} else {
			f.block = in.Else
		}
		f.ip = 0
		v.stats.SimInsts += costCondBr
		return nil

	case ir.KCall:
		return v.execCall(f, in)

	case ir.KRet:
		return v.execRet(f, in)

	case ir.KUnreachable:
		return &RuntimeError{Msg: "reached unreachable code in " + f.fn.Name}

	default:
		return &RuntimeError{Msg: fmt.Sprintf("unknown instruction kind %v", in.Kind)}
	}
	f.ip++
	return nil
}

// evalMeta evaluates a metadata tuple: base and bound, and key and lock
// when temporal.
func (v *VM) evalMeta(f *frame, m *[4]ir.Value, temporal bool) meta.Entry {
	e := meta.Entry{Base: v.eval(f, m[0]), Bound: v.eval(f, m[1])}
	if temporal {
		e.Key, e.Lock = v.eval(f, m[2]), v.eval(f, m[3])
	}
	return e
}

// setMetaRegs writes e into the MetaDst registers of a metadata load or
// of a pointer-returning call: base and bound, and key and lock under
// TMeta.
func setMetaRegs(regs []uint64, in *ir.Inst, e meta.Entry) {
	regs[in.MetaDst[0]] = e.Base
	regs[in.MetaDst[1]] = e.Bound
	if in.TMeta {
		regs[in.MetaDst[2]] = e.Key
		regs[in.MetaDst[3]] = e.Lock
	}
}

// checkAccess is the dereference check both engines share for load and
// store checks (CheckCall has its own, checkCall): count and charge
// the spatial check, then — for temporal checks — verify the lock-and-key
// BEFORE the spatial compare, so a revoked allocation traps as
// temporal-violation even when its stale bounds still bracket the access.
// Keeping one implementation is what holds the engine-differential gates
// to bit-identical traps and statistics.
func (v *VM) checkAccess(fname string, kind ir.CheckKind, ptr, base, bound, size uint64,
	tmeta bool, key, lock uint64) error {
	v.stats.Checks++
	v.stats.SimInsts += CheckCost
	switch kind {
	case ir.CheckLoad:
		v.stats.LoadChecks++
	case ir.CheckStore:
		v.stats.StoreChecks++
	}
	if tmeta {
		v.stats.TemporalChecks++
		v.stats.SimInsts += costTemporalCheck
		if !v.lockLive(key, lock) {
			return &TemporalViolation{Kind: kind, Ptr: ptr, Key: key, Lock: lock, Func: fname}
		}
	}
	if ptr < base || ptr+size > bound {
		return &SpatialViolation{Kind: kind, Ptr: ptr, Base: base,
			Bound: bound, Size: size, Func: fname}
	}
	return nil
}

// checkCall is the function-pointer check both engines share: count and
// charge it, then require the base==ptr==bound encoding (paper §5.2
// "function pointers") on the address of a function. It carries no
// temporal operands — functions are never deallocated.
func (v *VM) checkCall(fname string, ptr, base, bound uint64) error {
	v.stats.Checks++
	v.stats.SimInsts += CheckCost
	v.stats.CallChecks++
	if base != ptr || bound != ptr || v.funcByAddr(ptr) == nil {
		return &SpatialViolation{Kind: ir.CheckCall, Ptr: ptr, Base: base,
			Bound: bound, Func: fname}
	}
	return nil
}

func (v *VM) loadMem(addr uint64, mt ir.MemType) (uint64, error) {
	switch mt {
	case ir.MemI8:
		b, err := v.mem.ReadU8(addr)
		return uint64(int64(int8(b))), err
	case ir.MemU8:
		b, err := v.mem.ReadU8(addr)
		return uint64(b), err
	case ir.MemI16:
		x, err := v.mem.ReadU16(addr)
		return uint64(int64(int16(x))), err
	case ir.MemU16:
		x, err := v.mem.ReadU16(addr)
		return uint64(x), err
	case ir.MemI32:
		x, err := v.mem.ReadU32(addr)
		return uint64(int64(int32(x))), err
	case ir.MemU32:
		x, err := v.mem.ReadU32(addr)
		return uint64(x), err
	case ir.MemF32:
		x, err := v.mem.ReadU32(addr)
		return math.Float64bits(float64(math.Float32frombits(x))), err
	case ir.MemF64, ir.MemI64, ir.MemPtr:
		return v.mem.ReadU64(addr)
	}
	return 0, &RuntimeError{Msg: "bad memory type"}
}

func (v *VM) storeMem(addr, val uint64, mt ir.MemType) error {
	switch mt {
	case ir.MemI8, ir.MemU8:
		return v.mem.WriteU8(addr, byte(val))
	case ir.MemI16, ir.MemU16:
		return v.mem.WriteU16(addr, uint16(val))
	case ir.MemI32, ir.MemU32:
		return v.mem.WriteU32(addr, uint32(val))
	case ir.MemF32:
		f := math.Float64frombits(val)
		return v.mem.WriteU32(addr, math.Float32bits(float32(f)))
	case ir.MemF64, ir.MemI64, ir.MemPtr:
		return v.mem.WriteU64(addr, val)
	}
	return &RuntimeError{Msg: "bad memory type"}
}

// wrapInt truncates v to width bits then extends per signedness.
func wrapInt(v uint64, width int, signed bool) uint64 {
	if width == 0 || width >= 64 {
		return v
	}
	mask := (uint64(1) << uint(width)) - 1
	v &= mask
	if signed && v&(1<<uint(width-1)) != 0 {
		v |= ^mask
	}
	return v
}

func floatOp(a, b uint64, width int, op func(x, y float64) float64) uint64 {
	x, y := math.Float64frombits(a), math.Float64frombits(b)
	r := op(x, y)
	if width == 32 {
		r = float64(float32(r))
	}
	return math.Float64bits(r)
}

func (v *VM) execBin(f *frame, in *ir.Inst) (uint64, error) {
	return binOp(v.eval(f, in.A), v.eval(f, in.B), in, f.fn.Name)
}

// unOp applies a unary operator; an unknown op leaves the destination
// unchanged (old), matching the reference dispatch.
func unOp(old, a uint64, in *ir.Inst) uint64 {
	switch in.Op {
	case ir.OpNeg:
		return wrapInt(-a, in.IntWidth, in.Signed)
	case ir.OpNot:
		return wrapInt(^a, in.IntWidth, in.Signed)
	case ir.OpFNeg:
		return floatOp(a, 0, in.IntWidth, func(x, _ float64) float64 { return -x })
	}
	return old
}

// binOp applies a binary operator to pre-evaluated operands; both
// engines share it so arithmetic semantics cannot drift.
func binOp(a, b uint64, in *ir.Inst, fname string) (uint64, error) {
	switch in.Op {
	case ir.OpFAdd:
		return floatOp(a, b, in.IntWidth, func(x, y float64) float64 { return x + y }), nil
	case ir.OpFSub:
		return floatOp(a, b, in.IntWidth, func(x, y float64) float64 { return x - y }), nil
	case ir.OpFMul:
		return floatOp(a, b, in.IntWidth, func(x, y float64) float64 { return x * y }), nil
	case ir.OpFDiv:
		return floatOp(a, b, in.IntWidth, func(x, y float64) float64 { return x / y }), nil
	}
	var r uint64
	switch in.Op {
	case ir.OpAdd:
		r = a + b
	case ir.OpSub:
		r = a - b
	case ir.OpMul:
		r = a * b
	case ir.OpDiv:
		if b == 0 {
			return 0, &RuntimeError{Msg: "division by zero in " + fname}
		}
		if in.Signed {
			r = uint64(int64(a) / int64(b))
		} else {
			r = a / b
		}
	case ir.OpRem:
		if b == 0 {
			return 0, &RuntimeError{Msg: "modulo by zero in " + fname}
		}
		if in.Signed {
			r = uint64(int64(a) % int64(b))
		} else {
			r = a % b
		}
	case ir.OpAnd:
		r = a & b
	case ir.OpOr:
		r = a | b
	case ir.OpXor:
		r = a ^ b
	case ir.OpShl:
		r = a << (b & 63)
	case ir.OpShr:
		if in.Signed {
			r = uint64(int64(a) >> (b & 63))
		} else {
			width := in.IntWidth
			if width == 0 {
				width = 64
			}
			// Logical shift of the width-masked value.
			if width < 64 {
				a &= (uint64(1) << uint(width)) - 1
			}
			r = a >> (b & 63)
		}
	default:
		return 0, &RuntimeError{Msg: "bad binary op"}
	}
	return wrapInt(r, in.IntWidth, in.Signed), nil
}

func (v *VM) execCmp(f *frame, in *ir.Inst) uint64 {
	return cmpOp(v.eval(f, in.A), v.eval(f, in.B), in)
}

// cmpOp applies a comparison predicate to pre-evaluated operands.
func cmpOp(a, b uint64, in *ir.Inst) uint64 {
	var res bool
	switch in.Pred {
	case ir.PredEQ:
		res = a == b
	case ir.PredNE:
		res = a != b
	case ir.PredLT:
		if in.Signed {
			res = int64(a) < int64(b)
		} else {
			res = a < b
		}
	case ir.PredLE:
		if in.Signed {
			res = int64(a) <= int64(b)
		} else {
			res = a <= b
		}
	case ir.PredGT:
		if in.Signed {
			res = int64(a) > int64(b)
		} else {
			res = a > b
		}
	case ir.PredGE:
		if in.Signed {
			res = int64(a) >= int64(b)
		} else {
			res = a >= b
		}
	default:
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		switch in.Pred {
		case ir.PredFEQ:
			res = x == y
		case ir.PredFNE:
			res = x != y
		case ir.PredFLT:
			res = x < y
		case ir.PredFLE:
			res = x <= y
		case ir.PredFGT:
			res = x > y
		case ir.PredFGE:
			res = x >= y
		}
	}
	if res {
		return 1
	}
	return 0
}

// execConv implements KConv per destination Mem and source ConvSrc.
func execConv(a uint64, in *ir.Inst) uint64 {
	switch in.Mem {
	case ir.MemF64, ir.MemF32:
		switch in.ConvSrc {
		case ir.MemF64, ir.MemF32:
			f := math.Float64frombits(a)
			if in.Mem == ir.MemF32 {
				f = float64(float32(f))
			}
			return math.Float64bits(f)
		default:
			var f float64
			if in.Signed {
				f = float64(int64(a))
			} else {
				f = float64(a)
			}
			if in.Mem == ir.MemF32 {
				f = float64(float32(f))
			}
			return math.Float64bits(f)
		}
	case ir.MemPtr:
		return a // integer reinterpreted as address
	default:
		// Destination is an integer type.
		if in.ConvSrc == ir.MemF64 || in.ConvSrc == ir.MemF32 {
			f := math.Float64frombits(a)
			if math.IsNaN(f) {
				return 0
			}
			// Clamp to avoid implementation-defined conversion.
			if f >= 9.22e18 {
				return wrapInt(uint64(math.MaxInt64), in.IntWidth, in.Signed)
			}
			if f <= -9.22e18 {
				minI := int64(math.MinInt64)
				return wrapInt(uint64(minI), in.IntWidth, in.Signed)
			}
			return wrapInt(uint64(int64(f)), in.IntWidth, in.Signed)
		}
		return wrapInt(a, in.IntWidth, in.Signed)
	}
}

// execCall dispatches direct, indirect, and builtin calls under the
// shadow-stack metadata ABI: the caller pushes a window of (base, bound)
// slots — slot 0 for return metadata, slot 1+i for argument i — and the
// callee pops slots by its *dynamic* parameter layout (paper §3.3), so
// indirect calls keep metadata even when the call site's static
// signature disagrees with the function actually reached.
func (v *VM) execCall(f *frame, in *ir.Inst) error {
	v.stats.Calls++
	// Each shadow slot costs one instruction per metadata word it pushes.
	v.stats.SimInsts += costCall + uint64(len(in.Args)) + uint64(in.MetaWords()*len(in.Shadow))

	args := make([]uint64, len(in.Args))
	for i, a := range in.Args {
		args[i] = v.eval(f, a)
	}

	var callee *ir.Func
	var name string
	switch in.Callee.Kind {
	case ir.VFunc:
		name = in.Callee.Sym
		callee = v.mod.Lookup(name)
	case ir.VReg:
		addr := f.regs[in.Callee.Reg]
		callee = v.funcByAddr(addr)
		if callee == nil {
			return &WildJumpError{Addr: addr, Func: f.fn.Name}
		}
		name = callee.Name
	default:
		return &RuntimeError{Msg: "bad call target"}
	}

	if callee == nil {
		// Control-transfer builtins run before any window is pushed, so
		// setjmp checkpoints never capture a transient builtin window.
		switch name {
		case "setjmp", "_setjmp":
			return v.doSetjmp(f, in, args)
		case "longjmp", "_longjmp":
			return v.doLongjmp(f, args)
		}
	}

	// Push and fill this call's shadow window in the caller's frame.
	wbase := v.pushShadow(len(in.Args))
	for i := range in.Shadow {
		if s := &in.Shadow[i]; s.Arg >= 0 && s.Arg < len(in.Args) {
			v.shadow[wbase+1+s.Arg] = v.evalMeta(f, &s.Meta, in.TMeta)
		}
	}

	if callee == nil {
		// Builtin (libc/runtime) call: its wrappers read argument
		// metadata straight from the window (a zero slot means "no
		// metadata flowed here"); the window pops when it returns.
		metas := v.shadow[wbase+1 : wbase+1+len(args)]
		ret, retMeta, err := v.callBuiltin(name, f, in, args, metas)
		if err != nil {
			return err
		}
		if in.Dst != ir.NoReg {
			f.regs[in.Dst] = ret
		}
		if in.RetMetaValid {
			setMetaRegs(f.regs, in, retMeta)
		}
		v.shadow = v.shadow[:wbase]
		f.ip++
		return nil
	}

	// User function. Fixed arguments seed parameter registers; for
	// variadic callees (paper §5.2) the extras go to the frame's vararg
	// area with their metadata aliasing the window slots, which stay
	// live (and immutable) for the callee's whole activation.
	callArgs := args
	var varargs []uint64
	var varMetas []meta.Entry
	if callee.Variadic && len(args) > callee.OrigParams {
		varargs = args[callee.OrigParams:]
		varMetas = v.shadow[wbase+1+callee.OrigParams : wbase+1+len(args)]
		callArgs = args[:callee.OrigParams]
	}
	if callee.Transformed && len(callArgs) > callee.OrigParams {
		// Excess arguments at a mismatched non-variadic site must not
		// spill into the appended metadata parameter registers.
		callArgs = callArgs[:callee.OrigParams]
	}
	f.ip++ // resume after the call upon return
	if err := v.pushFrame(callee, callArgs, in); err != nil {
		return err
	}
	top := &v.stack[len(v.stack)-1]
	top.shadowBase = wbase
	v.seedShadowParams(top, len(args))
	top.varargs = varargs
	top.varMetas = varMetas
	return nil
}

func (v *VM) execRet(f *frame, in *ir.Inst) error {
	v.stats.SimInsts += costRet
	var retVal uint64
	if in.HasVal {
		retVal = v.eval(f, in.A)
	}
	if in.RetMetaValid {
		// Return metadata travels through slot 0 of the returning
		// frame's shadow window, never inline (paper §3.3): one
		// instruction per word.
		v.stats.SimInsts += uint64(in.MetaWords())
		if f.shadowBase < len(v.shadow) {
			v.shadow[f.shadowBase] = v.evalMeta(f, &in.Meta, in.TMeta)
		}
	}
	popped, err := v.popFrame()
	if err != nil {
		return err
	}
	if popped == nil {
		return nil // control was hijacked; a new frame is active
	}
	if v.cfg.Checker != nil {
		for _, slot := range popped.fn.Allocas {
			v.cfg.Checker.OnFree(popped.fp + uint64(slot.Offset))
		}
	}
	if len(v.stack) == 0 {
		v.shadow = v.shadow[:popped.shadowBase]
		if in.HasVal {
			v.exitCode = int64(retVal)
		}
		v.halted = true
		return nil
	}
	caller := &v.stack[len(v.stack)-1]
	if call := popped.call; call != nil {
		if call.Dst != ir.NoReg && in.HasVal {
			caller.regs[call.Dst] = retVal
		}
		if call.RetMetaValid {
			// The caller pops the return-metadata slot.
			var e meta.Entry
			if popped.shadowBase < len(v.shadow) {
				e = v.shadow[popped.shadowBase]
			}
			setMetaRegs(caller.regs, call, e)
		}
	}
	v.shadow = v.shadow[:popped.shadowBase]
	return nil
}
