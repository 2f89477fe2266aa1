package vm

import (
	"fmt"

	"softbound/internal/ir"
	"softbound/internal/meta"
)

// This file is the fast engine's execution loop over the decoded form
// (decode.go). It must be observationally identical to the reference
// loop in exec.go: same exit codes, same traps (including *where* a step
// limit lands inside a fused superinstruction), and bit-identical
// modeled statistics. The differential suite enforces this.
//
// The speed comes from four sources:
//   - pre-decoded dispatch: no per-step block/ip bookkeeping, no operand
//     kind switches, flat branch targets;
//   - superinstructions for the instrumentation's hot triples;
//   - batched accounting: Insts/SimInsts accumulate in locals and the
//     step-limit/deadline checks run as countdowns, flushed to the VM at
//     block/call/return/error boundaries;
//   - an allocation-free call path (pushFrame's slot pool plus per-VM
//     builtin scratch buffers).

// fastState is the batched accounting carried through one loopFast run.
type fastState struct {
	budget int64  // steps remaining before the step limit fires
	poll   int64  // steps until the next deadline poll
	insts  uint64 // Insts not yet flushed to v.stats
	sim    uint64 // SimInsts not yet flushed to v.stats
}

// flushFast commits the batched counters and synchronizes v.steps (the
// clock/time builtins and the deadline trap message read it).
func (v *VM) flushFast(st *fastState) {
	v.stats.Insts += st.insts
	v.stats.SimInsts += st.sim
	st.insts, st.sim = 0, 0
	v.steps = v.limit - uint64(st.budget)
}

// wrapFastErr attaches the faulting site, mirroring loop()'s wrapping.
// The fell-off sentinel has no source instruction and reports bare,
// exactly like the reference loop's out-of-range position.
func wrapFastErr(f *frame, d *dinst, err error) error {
	if d.src == nil {
		return err
	}
	return fmt.Errorf("at %s b%d#%d [%s]: %w",
		f.fn.Name, d.blk, d.ip, d.src.String(), err)
}

// fastCheck performs a non-call dereference check with reference-order
// statistics (the check is counted even when it fails). It resolves the
// decoded temporal operands, if any, and defers to the checkAccess
// implementation both engines share, so a temporal violation fires
// before the spatial compare exactly as in the reference loop.
func (v *VM) fastCheck(fname string, d *dinst, ptr, base, bound uint64, regs []uint64) error {
	var key, lock uint64
	if d.tmeta {
		key, lock = d.key.get(regs), d.lock.get(regs)
	}
	return v.checkAccess(fname, d.checkK, ptr, base, bound, d.asize, d.tmeta, key, lock)
}

// loopFast runs the decoded program until the outermost frame returns,
// exit() is called, or an error occurs.
func (v *VM) loopFast() (err error) {
	defer recoverRuntime(&err)
	st := fastState{
		budget: int64(v.limit) - int64(v.steps),
		poll:   int64(deadlinePollMask+1) - int64(v.steps&deadlinePollMask),
	}
	for !v.halted && len(v.stack) > 0 {
		f := &v.stack[len(v.stack)-1]
		df := f.df
		if df == nil || f.fip >= len(df.code) {
			v.flushFast(&st)
			return &RuntimeError{Msg: "no decoded code at resume point in " + f.fn.Name}
		}
		code := df.code
		regs := f.regs
		fip := f.fip
	dispatch:
		for {
			d := &code[fip]
			n := int64(d.nsteps)
			if st.budget < n || st.poll <= 0 {
				f.fip = fip
				if err := v.fastSlow(f, d, &st); err != nil {
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}
				continue // poll serviced; budget covers d again
			}
			st.budget -= n
			st.poll -= n

			switch d.op {
			case dConst:
				st.insts++
				st.sim += costALU
				regs[d.dst] = d.a.imm
				fip++

			case dMov:
				st.insts++
				st.sim += costALU
				regs[d.dst] = regs[d.a.reg]
				fip++

			case dAdd:
				st.insts++
				st.sim += costALU
				regs[d.dst] = d.a.get(regs) + d.b.get(regs)
				fip++

			case dSub:
				st.insts++
				st.sim += costALU
				regs[d.dst] = d.a.get(regs) - d.b.get(regs)
				fip++

			case dMul:
				st.insts++
				st.sim += costALU
				regs[d.dst] = d.a.get(regs) * d.b.get(regs)
				fip++

			case dBin:
				st.insts++
				r, err := binOp(d.a.get(regs), d.b.get(regs), d.src, f.fn.Name)
				if err != nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}
				regs[d.dst] = r
				st.sim += costALU
				fip++

			case dUn:
				st.insts++
				regs[d.dst] = unOp(regs[d.dst], d.a.get(regs), d.src)
				st.sim += costALU
				fip++

			case dCmp:
				st.insts++
				regs[d.dst] = cmpOp(d.a.get(regs), d.b.get(regs), d.src)
				st.sim += costALU
				fip++

			case dConv:
				st.insts++
				regs[d.dst] = execConv(d.a.get(regs), d.src)
				st.sim += costALU
				fip++

			case dAlloca:
				st.insts++
				addr := f.fp + uint64(d.off)
				regs[d.dst] = addr
				if v.cfg.Checker != nil {
					v.cfg.Checker.OnAlloc(addr, uint64(d.size), "stack")
				}
				st.sim += costALU
				fip++

			case dLoad:
				st.insts++
				addr := d.a.get(regs)
				if v.cfg.Checker != nil {
					if err := v.cfg.Checker.OnLoad(addr, uint64(d.mem.Size())); err != nil {
						f.fip = fip
						v.flushFast(&st)
						return wrapFastErr(f, d, err)
					}
				}
				val, err := v.loadMem(addr, d.mem)
				if err != nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}
				regs[d.dst] = val
				v.stats.Loads++
				if d.mem == ir.MemPtr {
					v.stats.PtrLoads++
				}
				st.sim += costMem
				fip++

			case dStore:
				st.insts++
				addr := d.a.get(regs)
				if v.cfg.Checker != nil {
					if err := v.cfg.Checker.OnStore(addr, uint64(d.mem.Size())); err != nil {
						f.fip = fip
						v.flushFast(&st)
						return wrapFastErr(f, d, err)
					}
				}
				val := d.b.get(regs)
				if err := v.storeMem(addr, val, d.mem); err != nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}
				v.stats.Stores++
				if d.mem == ir.MemPtr {
					v.stats.PtrStores++
					if v.cfg.PtrStoreFault != nil {
						if mask := v.cfg.PtrStoreFault(addr, val); mask != 0 {
							_ = v.mem.WriteU64(addr, val^mask)
						}
					}
				}
				st.sim += costMem
				fip++

			case dGEP:
				st.insts++
				regs[d.dst] = d.a.get(regs) + d.b.get(regs)*uint64(d.size) + uint64(d.off)
				st.sim += costALU
				fip++

			case dCheck:
				st.insts++
				if err := v.fastCheck(f.fn.Name, d,
					d.a.get(regs), d.base.get(regs), d.bnd.get(regs), regs); err != nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}
				fip++

			case dCheckCall:
				st.insts++
				ptr := d.a.get(regs)
				base := d.base.get(regs)
				bound := d.bnd.get(regs)
				v.stats.Checks++
				v.stats.SimInsts += v.cfg.CheckCost
				v.stats.CallChecks++
				if base != ptr || bound != ptr || v.funcByAddr(ptr) == nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, &SpatialViolation{Kind: ir.CheckCall,
						Ptr: ptr, Base: base, Bound: bound, Func: f.fn.Name})
				}
				fip++

			case dMetaLoad:
				st.insts++
				addr := d.a.get(regs)
				var e meta.Entry
				if v.mcache != nil {
					e = v.mcache.Lookup(addr)
				} else {
					e = v.fac.Lookup(addr)
				}
				regs[d.dst] = e.Base
				regs[d.dst2] = e.Bound
				if d.dst3 != ir.NoReg {
					regs[d.dst3] = e.Key
					regs[d.dst4] = e.Lock
				}
				v.stats.MetaLoads++
				st.sim += v.lookupCost
				fip++

			case dMetaStore:
				st.insts++
				addr := d.a.get(regs)
				e := meta.Entry{Base: d.base.get(regs), Bound: d.bnd.get(regs)}
				if d.tmeta {
					e.Key, e.Lock = d.key.get(regs), d.lock.get(regs)
				}
				if v.mcache != nil {
					v.mcache.Update(addr, e)
				} else {
					v.fac.Update(addr, e)
				}
				v.stats.MetaStores++
				st.sim += v.updateCost
				fip++

			case dMetaClear:
				st.insts++
				addr := d.a.get(regs)
				size := d.b.get(regs)
				v.fac.Clear(addr, size)
				v.stats.MetaClears++
				st.sim += 2 * (size/8 + 1)
				fip++

			case dBr:
				st.insts++
				st.sim += costBr
				fip = int(d.target)

			case dCondBr:
				st.insts++
				st.sim += costCondBr
				if d.a.get(regs) != 0 {
					fip = int(d.target)
				} else {
					fip = int(d.elseT)
				}

			case dCall:
				f.fip = fip
				if err := v.execCallFast(f, d, &st); err != nil {
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}
				break dispatch // the active frame may have changed

			case dRet:
				st.insts++
				f.fip = fip
				if err := v.execRet(f, d.src); err != nil {
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}
				break dispatch

			case dGEPCheckLoad:
				// Components execute in reference order with per-
				// component accounting, so a mid-superinstruction trap
				// is indistinguishable from the unfused sequence.
				st.insts++
				st.sim += costALU
				t := d.a.get(regs) + d.b.get(regs)*uint64(d.size) + uint64(d.off)
				regs[d.dst] = t

				st.insts++
				if err := v.fastCheck(f.fn.Name, d,
					t, d.base.get(regs), d.bnd.get(regs), regs); err != nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}

				st.insts++
				if v.cfg.Checker != nil {
					if err := v.cfg.Checker.OnLoad(t, uint64(d.mem.Size())); err != nil {
						f.fip = fip
						v.flushFast(&st)
						return wrapFastErr(f, d, err)
					}
				}
				val, err := v.loadMem(t, d.mem)
				if err != nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}
				regs[d.dst2] = val
				v.stats.Loads++
				if d.mem == ir.MemPtr {
					v.stats.PtrLoads++
				}
				st.sim += costMem
				fip++

			case dGEPCheckStore:
				st.insts++
				st.sim += costALU
				t := d.a.get(regs) + d.b.get(regs)*uint64(d.size) + uint64(d.off)
				regs[d.dst] = t

				st.insts++
				if err := v.fastCheck(f.fn.Name, d,
					t, d.base.get(regs), d.bnd.get(regs), regs); err != nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}

				st.insts++
				if v.cfg.Checker != nil {
					if err := v.cfg.Checker.OnStore(t, uint64(d.mem.Size())); err != nil {
						f.fip = fip
						v.flushFast(&st)
						return wrapFastErr(f, d, err)
					}
				}
				val := d.args[0].get(regs)
				if err := v.storeMem(t, val, d.mem); err != nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}
				v.stats.Stores++
				if d.mem == ir.MemPtr {
					v.stats.PtrStores++
					if v.cfg.PtrStoreFault != nil {
						if mask := v.cfg.PtrStoreFault(t, val); mask != 0 {
							_ = v.mem.WriteU64(t, val^mask)
						}
					}
				}
				st.sim += costMem
				fip++

			case dCheckMetaLoad:
				st.insts++
				if err := v.fastCheck(f.fn.Name, d,
					d.a.get(regs), d.base.get(regs), d.bnd.get(regs), regs); err != nil {
					f.fip = fip
					v.flushFast(&st)
					return wrapFastErr(f, d, err)
				}

				st.insts++
				addr := d.b.get(regs)
				var e meta.Entry
				if v.mcache != nil {
					e = v.mcache.Lookup(addr)
				} else {
					e = v.fac.Lookup(addr)
				}
				regs[d.dst] = e.Base
				regs[d.dst2] = e.Bound
				if d.dst3 != ir.NoReg {
					regs[d.dst3] = e.Key
					regs[d.dst4] = e.Lock
				}
				v.stats.MetaLoads++
				st.sim += v.lookupCost
				fip++

			case dUnreachable:
				st.insts++
				f.fip = fip
				v.flushFast(&st)
				return wrapFastErr(f, d, &RuntimeError{
					Msg: "reached unreachable code in " + f.fn.Name})

			case dFellOff:
				// The reference engine charges the step but not Insts.
				f.fip = fip
				v.flushFast(&st)
				return &RuntimeError{Msg: fmt.Sprintf(
					"fell off block b%d in %s", d.blk, f.fn.Name)}

			default: // dBad
				st.insts++
				f.fip = fip
				v.flushFast(&st)
				return wrapFastErr(f, d, &RuntimeError{Msg: fmt.Sprintf(
					"malformed instruction in %s", f.fn.Name)})
			}
		}
	}
	v.flushFast(&st)
	return nil
}

// fastSlow services the two countdown events: the periodic deadline poll
// and the step limit. A nil return means the poll was serviced and the
// budget still covers d, so the caller re-dispatches; otherwise the trap
// (after executing any fused components the remaining budget allows, in
// reference order) comes back as the run's error.
func (v *VM) fastSlow(f *frame, d *dinst, st *fastState) error {
	if st.poll <= 0 {
		v.flushFast(st)
		if v.ctx != nil && v.ctx.Err() != nil {
			return &Trap{Code: TrapDeadline, Cause: &RuntimeError{Msg: fmt.Sprintf(
				"deadline exceeded after %d steps: %v", v.steps, v.ctx.Err())}}
		}
		for st.poll <= 0 {
			st.poll += deadlinePollMask + 1
		}
	}
	if st.budget < int64(d.nsteps) {
		return v.stepLimited(f, d, st)
	}
	return nil
}

// stepLimited fires the step limit at exactly the component the
// reference engine would trap on: a superinstruction entered with a
// partial budget executes (and accounts) its leading components first,
// and a bounds violation inside those components still wins over the
// limit, just as in the unfused sequence.
func (v *VM) stepLimited(f *frame, d *dinst, st *fastState) error {
	trap := func() error {
		return &Trap{Code: TrapStepLimit, Cause: &RuntimeError{Msg: fmt.Sprintf(
			"step limit (%d) exceeded (possible runaway program)", v.limit)}}
	}
	if st.budget <= 0 {
		return trap()
	}
	regs := f.regs
	switch d.op {
	case dGEPCheckLoad, dGEPCheckStore:
		st.budget--
		st.insts++
		st.sim += costALU
		t := d.a.get(regs) + d.b.get(regs)*uint64(d.size) + uint64(d.off)
		regs[d.dst] = t
		if st.budget == 0 {
			return trap()
		}
		st.budget--
		st.insts++
		if err := v.fastCheck(f.fn.Name, d, t, d.base.get(regs), d.bnd.get(regs), regs); err != nil {
			return err
		}
	case dCheckMetaLoad:
		st.budget--
		st.insts++
		if err := v.fastCheck(f.fn.Name, d,
			d.a.get(regs), d.base.get(regs), d.bnd.get(regs), regs); err != nil {
			return err
		}
	}
	return trap()
}

// execCallFast dispatches calls under the fast engine without heap
// allocation on the steady-state path: builtin arguments marshal into
// per-VM scratch, metadata rides the reusable shadow stack, and
// user-call arguments are written straight into the callee's register
// file (frames come from pushFrame's slot pool). On a successful builtin
// the caller's fip is advanced past the call; on a user call the new
// frame is ready to run. The caller reloads its frame state afterwards
// in all cases.
func (v *VM) execCallFast(f *frame, d *dinst, st *fastState) error {
	in := d.src
	st.insts++
	st.sim += costCall + uint64(len(in.Args)) + 2*uint64(len(d.shadow))
	if in.TMeta {
		// Temporal calls push key and lock alongside each slot's bounds.
		st.sim += 2 * uint64(len(d.shadow))
	}
	v.stats.Calls++

	var callee *dfunc
	if d.callee != nil {
		callee = d.callee
	} else if in.Callee.Kind == ir.VReg {
		addr := f.regs[in.Callee.Reg]
		fn := v.funcByAddr(addr)
		if fn == nil {
			return &WildJumpError{Addr: addr, Func: f.fn.Name}
		}
		callee = v.prog.funcs[fn]
	}

	if callee == nil {
		// Builtin call: marshal arguments into the reusable scratch
		// buffer; metadata goes through a shadow window like any call.
		name := in.Callee.Sym
		args := v.argScratch
		if cap(args) < len(d.args) {
			args = make([]uint64, 0, len(d.args)+8)
		}
		args = args[:0]
		for _, a := range d.args {
			args = append(args, a.get(f.regs))
		}
		v.argScratch = args

		switch name {
		case "setjmp", "_setjmp":
			// The shared checkpoint code records block/ip/fip; keep the
			// reference-engine coordinates in sync first. Dispatched
			// before the window push, like the reference engine.
			f.block, f.ip = int(d.blk), int(d.ip)
			return v.doSetjmp(f, in, args)
		case "longjmp", "_longjmp":
			return v.doLongjmp(f, args)
		}

		wbase := v.pushShadow(len(in.Args))
		regs := f.regs
		for _, s := range d.shadow {
			if int(s.arg) < len(in.Args) {
				e := meta.Entry{
					Base:  s.base.get(regs),
					Bound: s.bnd.get(regs),
				}
				if s.tmeta {
					e.Key = s.key.get(regs)
					e.Lock = s.lock.get(regs)
				}
				v.shadow[wbase+1+int(s.arg)] = e
			}
		}
		metas := v.shadow[wbase+1 : wbase+1+len(args)]

		// Builtins observe v.steps (clock/time) and add their own
		// modeled costs; commit the batched state first.
		v.flushFast(st)
		ret, retMeta, err := v.callBuiltin(name, f, in, args, metas)
		if err != nil {
			return err
		}
		if in.Dst != ir.NoReg {
			f.regs[in.Dst] = ret
		}
		if in.DstBase != ir.NoReg {
			f.regs[in.DstBase] = retMeta.Base
			f.regs[in.DstBound] = retMeta.Bound
			if in.TMeta {
				f.regs[in.DstKey] = retMeta.Key
				f.regs[in.DstLock] = retMeta.Lock
			}
		}
		v.shadow = v.shadow[:wbase]
		f.fip++
		return nil
	}

	// User call. Fill the shadow window from the caller's registers
	// before the frame switch; the callee then pops slots by its own
	// parameter layout, whatever the call site's static signature was.
	fn := callee.fn
	nargs := len(d.args)
	wbase := v.pushShadow(nargs)
	{
		regs := f.regs
		for _, s := range d.shadow {
			if int(s.arg) < nargs {
				e := meta.Entry{
					Base:  s.base.get(regs),
					Bound: s.bnd.get(regs),
				}
				if s.tmeta {
					e.Key = s.key.get(regs)
					e.Lock = s.lock.get(regs)
				}
				v.shadow[wbase+1+int(s.arg)] = e
			}
		}
	}

	ci := len(v.stack) - 1
	f.fip++ // resume after the call upon return
	retKey, retLock := ir.NoReg, ir.NoReg
	if in.TMeta && in.DstBase != ir.NoReg {
		retKey, retLock = in.DstKey, in.DstLock
	}
	if err := v.pushFrame(fn, nil, in.Dst, in.DstBase, in.DstBound, retKey, retLock); err != nil {
		return err
	}
	// pushFrame may have grown the stack's backing array.
	f = &v.stack[ci]
	nf := &v.stack[ci+1]
	nf.shadowBase = wbase

	// Seed fixed arguments directly into the callee's registers. The
	// argument list is truncated to OrigParams when variadic extras
	// follow, and for transformed callees also at a mismatched
	// non-variadic site, so excess values never spill into the appended
	// metadata parameter registers.
	pr := fn.ParamRegs
	fixed := nargs
	variadicExtra := fn.Variadic && nargs > fn.OrigParams
	if variadicExtra || (fn.Transformed && nargs > fn.OrigParams) {
		fixed = fn.OrigParams
	}
	for i := 0; i < fixed && i < len(pr); i++ {
		nf.regs[pr[i]] = d.args[i].get(f.regs)
	}
	v.seedShadowParams(nf, nargs)

	// Variadic extras go to the frame's vararg area (paper §5.2); their
	// metadata aliases the window slots — including extras the caller
	// filled past OrigParams — which stay live for the whole activation.
	// The value slice must outlive the call for va_arg, so this one call
	// shape still allocates, the same cost the reference engine pays.
	if variadicExtra {
		n := nargs - fn.OrigParams
		varargs := make([]uint64, n)
		for i := 0; i < n; i++ {
			varargs[i] = d.args[fn.OrigParams+i].get(f.regs)
		}
		nf.varargs = varargs
		nf.varMetas = v.shadow[wbase+1+fn.OrigParams : wbase+1+nargs]
	}
	return nil
}
