package vm

import (
	"context"
	"fmt"
	"io"

	"softbound/internal/ir"
	"softbound/internal/meta"
	"softbound/internal/metrics"
)

// CheckMode selects which accesses the instrumented program checks. The
// IR carries the checks; the mode also informs library wrappers.
type CheckMode int

// Check modes (paper §1: full checking vs store-only checking).
const (
	CheckNone CheckMode = iota
	CheckStoreOnly
	CheckFull
)

func (m CheckMode) String() string {
	return [...]string{"none", "store-only", "full"}[m]
}

// Checker is a runtime checking hook used by the object-based baseline
// tools (Jones–Kelly object table, Valgrind- and Mudflap-style checkers),
// which check uninstrumented programs at object granularity.
type Checker interface {
	Name() string
	OnAlloc(addr, size uint64, zone string)
	OnFree(addr uint64)
	OnLoad(addr, size uint64) error
	OnStore(addr, size uint64) error
}

// DefaultMaxStackDepth bounds activation records when Config.MaxStackDepth
// is zero. Stack-segment memory binds first under default sizes; the depth
// guard is the fail-closed backstop for tiny-frame recursion.
const DefaultMaxStackDepth = 1 << 20

// InterpKind selects the execution engine.
type InterpKind int

// Engines. The fast engine is the default (zero value): it runs the
// module's pre-decoded form (decode.go) with batched step accounting.
// The reference engine is the original per-step switch interpreter, kept
// as the semantic oracle: the differential suite holds the fast engine
// to its exit codes, traps, and modeled statistics bit for bit.
const (
	InterpFast InterpKind = iota
	InterpRef
)

func (k InterpKind) String() string {
	switch k {
	case InterpFast:
		return "fast"
	case InterpRef:
		return "ref"
	}
	return fmt.Sprintf("InterpKind(%d)", int(k))
}

// Config parameterizes a VM run.
type Config struct {
	Mode      CheckMode
	Meta      meta.Facility // nil selects a shadow space, temporal if Temporal is
	Checker   Checker       // optional baseline checker
	Stdout    io.Writer     // nil discards output
	StepLimit uint64        // max executed instructions (0 = default 4e9)
	HeapSize  uint64
	StackSize uint64
	Args      []string // argv for main
	// HeapLimit caps live heap bytes; an allocation that would exceed it
	// traps with TrapOOM instead of returning NULL (0 = no cap). This is
	// distinct from HeapSize, which bounds the segment: segment exhaustion
	// keeps C semantics (malloc returns NULL).
	HeapLimit uint64
	// MaxStackDepth caps the number of live activation records; exceeding
	// it traps with TrapStackOverflow (0 = DefaultMaxStackDepth).
	MaxStackDepth int

	// PtrStoreFault, if set, is consulted after every committed
	// pointer-sized store with the slot address and the stored word; a
	// nonzero return value is XORed into the word (fault injection; see
	// internal/faults).
	PtrStoreFault func(addr, val uint64) uint64
	// AllocFault, if set, is consulted before every heap allocation;
	// returning false forces that allocation to fail as if out of memory
	// (malloc returns NULL).
	AllocFault func(size uint64) bool

	// Temporal enables the CETS lock-and-key runtime: the VM issues a
	// fresh key per allocation (heap and stack frames; statics share the
	// constant global key), revokes locks on free/frame-pop/realloc, and
	// checked dereferences verify the key against the lock table before
	// the spatial compare. The driver sets it iff the selected metadata
	// scheme is a -cets kind, matching the core lowering's
	// Options.Temporal. It must agree with Meta's Kind().Temporal():
	// a temporal VM over a spatial facility would read every key as
	// zero, and a spatial one would never check the keys it stores, so
	// New rejects the mismatch.
	Temporal bool

	// Interp selects the execution engine: InterpFast (the default) or
	// InterpRef, the reference oracle. New rejects any other value.
	Interp InterpKind
}

// SpatialViolation is a bounds-check failure: SoftBound aborts the
// program (paper §3.1 check()).
type SpatialViolation struct {
	Kind  ir.CheckKind
	Ptr   uint64
	Base  uint64
	Bound uint64
	Size  uint64
	Func  string
}

func (e *SpatialViolation) Error() string {
	return fmt.Sprintf("softbound: spatial violation (%s) in %s: ptr=0x%x size=%d not within [0x%x,0x%x)",
		e.Kind, e.Func, e.Ptr, e.Size, e.Base, e.Bound)
}

// TemporalViolation is a CETS lock-and-key check failure (use-after-free,
// use-after-realloc, use-after-return, double-free): the pointer's key no
// longer matches its lock — the allocation it named is gone. Zero
// key/lock (no temporal metadata recorded for the slot) also fails, so
// the check is fail-closed.
type TemporalViolation struct {
	Kind ir.CheckKind
	Ptr  uint64
	Key  uint64
	Lock uint64
	Func string
}

func (e *TemporalViolation) Error() string {
	return fmt.Sprintf("softbound: temporal violation (%s) in %s: ptr=0x%x key=%d lock=%d no longer names a live allocation",
		e.Kind, e.Func, e.Ptr, e.Key, e.Lock)
}

// BaselineViolation is a violation reported by a baseline Checker.
type BaselineViolation struct {
	Tool string
	Msg  string
}

func (e *BaselineViolation) Error() string { return e.Tool + ": " + e.Msg }

// ControlHijack is recorded when corrupted control data (return token,
// function pointer used via ret, or longjmp buffer) transferred control
// somewhere a legitimate execution never would. The VM continues running
// at the hijacked target — the attack has succeeded.
type ControlHijack struct {
	Via    string // "return-address", "longjmp", "frame-pointer"
	Target string // function name reached
}

// RuntimeError is any other execution error (division by zero, step
// limit, stack overflow, smashed stack).
type RuntimeError struct{ Msg string }

func (e *RuntimeError) Error() string { return e.Msg }

// WildJumpError is an indirect call through a value that is not a
// function-table address — the dynamic signature of a corrupted or
// forged function pointer. It classifies as TrapWildJump.
type WildJumpError struct {
	Addr uint64 // the value the call went through
	Func string // function containing the call site
}

func (e *WildJumpError) Error() string {
	return fmt.Sprintf("wild jump: call through corrupted function pointer 0x%x in %s",
		e.Addr, e.Func)
}

// frame is one activation record. Register contents are Go-side (they
// model machine registers); fp points at the frame's memory block, which
// holds allocas plus saved fp and the return token.
type frame struct {
	fn   *ir.Func
	regs []uint64
	fp   uint64
	// fpEff is the frame pointer used to locate the saved-FP/return
	// slots at return time. Normally equal to fp; a corrupted saved
	// frame pointer in a callee redirects it (the classic two-stage
	// old-base-pointer attack).
	fpEff uint64
	block int
	ip    int
	// call is the caller's call instruction, whose Dst and MetaDst
	// receive the return value and metadata (nil for an entry frame).
	call  *ir.Inst
	token uint64 // the return token written at call time

	// lock is this frame's temporal lock index (0 = none issued); the VM
	// revokes it on every exit path, so pointers into the frame die with
	// the frame.
	lock uint64

	// shadowBase indexes this frame's metadata window on the VM shadow
	// stack: slot shadowBase receives the return metadata, slot
	// shadowBase+1+i carries argument i's metadata. The window is pushed
	// by the caller before the frame and popped when the frame unwinds.
	shadowBase int

	// Variadic support (paper §5.2): arguments beyond the fixed
	// parameters, with their metadata, plus the va_arg cursor. The
	// SoftBound vararg convention passes the argument count and pointer
	// count so decoding can be checked; here both are implied by the
	// slice lengths, and the checked builtins enforce them.
	varargs  []uint64
	varMetas []meta.Entry
	vaCursor int

	// Fast-engine state: the decoded body and the flat instruction index
	// (decode.go). Maintained alongside block/ip so cold paths shared
	// with the reference engine (hijacks, diagnostics) keep working.
	df  *dfunc
	fip int
}

// jmpCheckpoint is a setjmp capture.
type jmpCheckpoint struct {
	depth     int
	shadowLen int // shadow-stack length to restore on longjmp
	block     int
	ip        int // index of the setjmp call instruction
	fip       int // flat index of the same instruction (fast engine)
	retDst    ir.Reg
}

// VM executes a linked module.
//
// Isolation contract: a VM owns all of its mutable state (memory,
// allocator, stack, metadata facility, statistics) and treats the module
// as read-only, and the package keeps no mutable globals — so distinct
// VMs may run concurrently, even over the same module, without
// synchronization. The parallel benchmark harness depends on this;
// isolation_test.go holds it under the race detector.
type VM struct {
	mod   *ir.Module
	mem   *Mem
	alloc *heapAllocator
	cfg   Config
	fac   meta.Facility
	stats metrics.Stats

	// prog is the module's pre-decoded form (nil under the reference
	// engine).
	prog *program

	// argScratch is a per-VM buffer the fast call path reuses for builtin
	// argument marshaling, so steady-state calls allocate nothing.
	// Builtins never re-enter user code, so one buffer suffices.
	argScratch []uint64

	// shadow is the metadata shadow stack (paper §3.3; softboundcets'
	// __softboundcets_*_shadow_stack): one window of (base, bound) slots
	// per in-flight call, pushed by the caller and popped by the dynamic
	// callee's layout. The backing array is reused across calls — length
	// resets on pop, capacity persists — so the steady-state call path
	// stays allocation-free once the deepest window has been seen.
	shadow []meta.Entry

	// lookupCost/updateCost cache the facility's constant modeled costs so
	// the fast metaload/metastore handlers skip the interface dispatch.
	lookupCost uint64
	updateCost uint64

	globalAddrs map[string]uint64
	globalSizes map[string]uint64
	funcs       []*ir.Func
	funcAddrs   map[string]uint64

	stack   []frame
	sp      uint64
	nextTok uint64

	// Temporal (CETS) lock table: locks[i] holds the key of the live
	// allocation owning lock i, or 0 once revoked. Index 0 is never used
	// (a zero lock fails closed); index 1 is the global lock (key 1),
	// never revoked. freeLocks recycles revoked indices — the analogue of
	// CETS reusing lock locations — and heapLocks maps live heap block
	// addresses to their lock index so free/realloc can revoke.
	locks     []uint64
	freeLocks []uint64
	nextKey   uint64
	heapLocks map[uint64]uint64

	jmpPoints map[uint64]*jmpCheckpoint
	jmpSPs    map[uint64]uint64
	nextJmp   uint64

	rngState uint64

	// Hijacks records successful control-flow attacks (empty in healthy
	// runs). Table 3 asserts on these.
	Hijacks []ControlHijack

	stdout   io.Writer
	halted   bool
	exitCode int64
	steps    uint64
	limit    uint64

	// ctx carries the wall-clock deadline during RunContext; the step
	// loop polls it periodically.
	ctx      context.Context
	maxDepth int
	allocs   uint64 // heap allocations performed (fault-injection event count)
}

// New builds a VM for the module. The module must already be linked and,
// if desired, instrumented.
func New(mod *ir.Module, cfg Config) (*VM, error) {
	if cfg.Interp != InterpFast && cfg.Interp != InterpRef {
		return nil, fmt.Errorf("vm: unknown engine %v (want fast or ref)", cfg.Interp)
	}
	fac := cfg.Meta
	if fac == nil {
		fac = meta.NewShadowSpace(cfg.Temporal)
	}
	if fac.Kind().Temporal() != cfg.Temporal {
		return nil, fmt.Errorf("vm: Temporal is %v but the metadata facility is %v", cfg.Temporal, fac.Kind())
	}
	v := &VM{
		mod:         mod,
		cfg:         cfg,
		fac:         fac,
		globalAddrs: make(map[string]uint64),
		globalSizes: make(map[string]uint64),
		funcAddrs:   make(map[string]uint64),
		jmpPoints:   make(map[uint64]*jmpCheckpoint),
		jmpSPs:      make(map[uint64]uint64),
		rngState:    0x9e3779b97f4a7c15,
		stdout:      cfg.Stdout,
		limit:       cfg.StepLimit,
	}
	if v.stdout == nil {
		v.stdout = io.Discard
	}
	if v.limit == 0 {
		v.limit = 4_000_000_000
	}
	v.maxDepth = cfg.MaxStackDepth
	if v.maxDepth == 0 {
		v.maxDepth = DefaultMaxStackDepth
	}
	if cfg.Temporal {
		v.locks = []uint64{0, 1} // slot 0 invalid; slot 1 = global lock, key 1
		v.nextKey = 2
		v.heapLocks = make(map[uint64]uint64)
	}

	// Lay out globals and function addresses. The layout is a pure,
	// deterministic function of the module (decode.go helpers), shared
	// with the decode stage so pre-resolved operand addresses agree with
	// the VM's own maps.
	off := layoutGlobals(mod, v.globalAddrs, v.globalSizes)
	v.mem = NewMem(off, cfg.HeapSize, cfg.StackSize)
	v.alloc = newHeapAllocator(v.mem.heapEnd)
	v.sp = StackTop

	v.funcs = append(v.funcs, mod.Funcs...)
	layoutFuncs(mod, v.funcAddrs)

	// Fast engine: fetch (or build) the module's pre-decoded program.
	// Decode is module-pure — global and function addresses are a deterministic
	// function of the module — so the decoded form is shared across all
	// VMs of this module via the ir-side cache.
	if cfg.Interp != InterpRef {
		v.prog = decoded(mod)
	}
	v.lookupCost = uint64(v.fac.Costs().Lookup)
	v.updateCost = uint64(v.fac.Costs().Update)

	// Initialize global contents and relocations.
	for _, g := range mod.Globals {
		addr := v.globalAddrs[g.Name]
		if len(g.Init) > 0 {
			if err := v.mem.WriteBytes(addr, g.Init); err != nil {
				return nil, err
			}
		}
		if v.cfg.Checker != nil {
			v.cfg.Checker.OnAlloc(addr, uint64(g.Size), "global")
		}
	}
	for _, g := range mod.Globals {
		addr := v.globalAddrs[g.Name]
		for _, pi := range g.PtrInits {
			var target uint64
			var base, bound uint64
			if pi.Func != "" {
				target = v.funcAddrs[pi.Func]
				base, bound = target, target // function-pointer encoding
				if target == 0 {
					return nil, fmt.Errorf("vm: undefined function %q in initializer of %q", pi.Func, g.Name)
				}
			} else {
				t, ok := v.globalAddrs[pi.Sym]
				if !ok {
					return nil, fmt.Errorf("vm: undefined global %q in initializer of %q", pi.Sym, g.Name)
				}
				target = t + uint64(pi.Addend)
				base = t
				bound = t + v.globalSizes[pi.Sym]
			}
			if err := v.mem.WriteU64(addr+uint64(pi.Offset), target); err != nil {
				return nil, err
			}
			// Seed metadata for statically initialized pointers
			// (paper §5.2 "global variables": SoftBound emits
			// constructor code to do this). Statics carry the global
			// key/lock, which is never revoked.
			e := meta.Entry{Base: base, Bound: bound}
			if cfg.Temporal {
				e.Key, e.Lock = globalKey, globalLock
			}
			v.fac.Update(addr+uint64(pi.Offset), e)
		}
	}
	return v, nil
}

// Stats returns the accumulated execution statistics.
func (v *VM) Stats() *metrics.Stats {
	occ := v.fac.Occupancy()
	v.stats.MetaBytes = occ.Bytes
	v.stats.MetaLive = occ.Live
	v.stats.MaxHeap = v.alloc.maxInUse
	return &v.stats
}

// Mem exposes the memory (tests inspect corruption effects).
func (v *VM) Mem() *Mem { return v.mem }

// GlobalAddr returns the simulated address of a global, 0 if absent.
func (v *VM) GlobalAddr(name string) uint64 { return v.globalAddrs[name] }

// ExitCode returns the program's exit status after Run.
func (v *VM) ExitCode() int64 { return v.exitCode }

// The global temporal identity: statics and functions share key 1 under
// lock 1, which New seeds live and nothing ever revokes.
const (
	globalKey  = 1
	globalLock = 1
)

// issueLock mints a fresh (key, lock) pair for a new allocation,
// recycling revoked lock indices like CETS reuses lock locations — a
// recycled index holds a *different* key, so stale pointers into the old
// allocation still mismatch.
func (v *VM) issueLock() (key, lock uint64) {
	key = v.nextKey
	v.nextKey++
	if n := len(v.freeLocks); n > 0 {
		lock = v.freeLocks[n-1]
		v.freeLocks = v.freeLocks[:n-1]
	} else {
		lock = uint64(len(v.locks))
		v.locks = append(v.locks, 0)
	}
	v.locks[lock] = key
	return key, lock
}

// revokeLock kills a lock: every pointer still carrying its key fails the
// temporal check from now on. The global lock is never revoked.
func (v *VM) revokeLock(lock uint64) {
	if lock <= globalLock || lock >= uint64(len(v.locks)) {
		return
	}
	if v.locks[lock] != 0 {
		v.locks[lock] = 0
		v.freeLocks = append(v.freeLocks, lock)
	}
}

// lockLive reports whether (key, lock) still names a live allocation.
// Zero key or lock — no temporal metadata recorded — fails closed.
func (v *VM) lockLive(key, lock uint64) bool {
	return key != 0 && lock != 0 && lock < uint64(len(v.locks)) && v.locks[lock] == key
}

// funcByAddr resolves a function-segment address.
func (v *VM) funcByAddr(addr uint64) *ir.Func {
	if addr < FuncBase {
		return nil
	}
	idx := (addr - FuncBase) / FuncSlot
	if (addr-FuncBase)%FuncSlot != 0 || idx >= uint64(len(v.funcs)) {
		return nil
	}
	return v.funcs[idx]
}

// Run executes main (argc/argv are synthesized from cfg.Args) and returns
// the program's exit code. Every non-nil error is a *Trap (possibly
// wrapped with the faulting site).
func (v *VM) Run() (int64, error) {
	return v.RunContext(context.Background())
}

// RunContext is Run under a wall-clock deadline: when ctx expires the VM
// traps with TrapDeadline at the next step-loop poll instead of running
// to its step budget.
func (v *VM) RunContext(ctx context.Context) (int64, error) {
	code, err := v.run(ctx)
	return code, Classify(err)
}

func (v *VM) run(ctx context.Context) (int64, error) {
	v.ctx = ctx
	mainFn := v.mod.Lookup("main")
	if mainFn == nil {
		return -1, &RuntimeError{Msg: "vm: no main function"}
	}

	// Build argv in heap memory.
	args := append([]string{"prog"}, v.cfg.Args...)
	argvAddr, err := v.allocate(uint64(8 * len(args)))
	if err != nil {
		return -1, err
	}
	for i, a := range args {
		sAddr, err := v.allocate(uint64(len(a) + 1))
		if err != nil {
			return -1, err
		}
		if err := v.mem.WriteBytes(sAddr, append([]byte(a), 0)); err != nil {
			return -1, err
		}
		if err := v.mem.WriteU64(argvAddr+uint64(8*i), sAddr); err != nil {
			return -1, err
		}
		se := meta.Entry{Base: sAddr, Bound: sAddr + uint64(len(a)+1)}
		if v.cfg.Temporal {
			// argv strings live for the whole program: global identity.
			se.Key, se.Lock = globalKey, globalLock
		}
		v.fac.Update(argvAddr+uint64(8*i), se)
	}

	callArgs := []uint64{uint64(len(args)), argvAddr}
	callMeta := []meta.Entry{{}, {Base: argvAddr, Bound: argvAddr + uint64(8*len(args))}}
	if v.cfg.Temporal {
		callMeta[1].Key, callMeta[1].Lock = globalKey, globalLock
	}
	if mainFn.OrigParams < len(callArgs) {
		callArgs = callArgs[:mainFn.OrigParams]
		callMeta = callMeta[:mainFn.OrigParams]
	}
	// Entry calls use the same shadow-stack ABI as everything else: push
	// a window, fill argv's slot, let the callee pop by its own layout.
	wbase := v.pushShadow(len(callArgs))
	for i := range callArgs {
		v.shadow[wbase+1+i] = callMeta[i]
	}
	if err := v.pushFrame(mainFn, callArgs, nil); err != nil {
		return -1, err
	}
	nf := &v.stack[len(v.stack)-1]
	nf.shadowBase = wbase
	v.seedShadowParams(nf, len(callArgs))
	if err := v.runLoop(); err != nil {
		return v.exitCode, err
	}
	return v.exitCode, nil
}

// runLoop dispatches to the configured engine.
func (v *VM) runLoop() error {
	if v.prog != nil {
		return v.loopFast()
	}
	return v.loop()
}

// allocate is the central heap-allocation path: it applies injected
// allocation faults and the configured heap cap before delegating to the
// allocator. Address 0 with a nil error is C-style exhaustion (malloc
// returns NULL); a non-nil error is the fail-closed TrapOOM from the
// heap cap.
func (v *VM) allocate(size uint64) (uint64, error) {
	v.allocs++
	if v.cfg.AllocFault != nil && !v.cfg.AllocFault(size) {
		return 0, nil
	}
	if v.cfg.HeapLimit != 0 && v.alloc.inUse+roundAlloc(size) > v.cfg.HeapLimit {
		return 0, &Trap{Code: TrapOOM, Cause: &RuntimeError{Msg: fmt.Sprintf(
			"heap cap exceeded: %d bytes live + %d requested > %d limit",
			v.alloc.inUse, size, v.cfg.HeapLimit)}}
	}
	return v.alloc.alloc(size), nil
}

// pushShadow reserves a zeroed call window of 1+nargs metadata slots on
// the shadow stack — slot 0 for the callee's return metadata, slot 1+i
// for argument i — and returns its base index. The backing array is
// reused across calls (length shrinks on pop, capacity persists), so the
// steady-state call path allocates nothing.
func (v *VM) pushShadow(nargs int) int {
	base := len(v.shadow)
	need := base + 1 + nargs
	if cap(v.shadow) >= need {
		v.shadow = v.shadow[:need]
		clear(v.shadow[base:need])
		return base
	}
	for len(v.shadow) < need {
		v.shadow = append(v.shadow, meta.Entry{})
	}
	return base
}

// seedShadowParams pops the metadata for a transformed callee's pointer
// parameters out of its shadow window into the appended base/bound
// parameter registers — by the *dynamic* callee's parameter layout, not
// the call site's static signature (the compatibility contract of paper
// §3.3/§5.2). Slots that carry no metadata (non-pointer arguments,
// missing arguments, out-of-range indices) yield NULL bounds, which
// fail closed at the first dereference. nargs is the number of actual
// arguments the call supplied.
func (v *VM) seedShadowParams(nf *frame, nargs int) {
	fn := nf.fn
	if !fn.Transformed {
		return
	}
	pos := fn.OrigParams
	for i := 0; i < fn.OrigParams; i++ {
		if !fn.Params[i].IsPtr {
			continue
		}
		var e meta.Entry
		if idx := nf.shadowBase + 1 + i; i < nargs && idx < len(v.shadow) {
			e = v.shadow[idx]
		}
		if pos < len(fn.ParamRegs) {
			nf.regs[fn.ParamRegs[pos]] = e.Base
		}
		pos++
		if pos < len(fn.ParamRegs) {
			nf.regs[fn.ParamRegs[pos]] = e.Bound
		}
		pos++
		if fn.Temporal {
			// Temporal callees pop four metadata registers per pointer
			// parameter (base, bound, key, lock).
			if pos < len(fn.ParamRegs) {
				nf.regs[fn.ParamRegs[pos]] = e.Key
			}
			pos++
			if pos < len(fn.ParamRegs) {
				nf.regs[fn.ParamRegs[pos]] = e.Lock
			}
			pos++
		}
	}
}

// pushFrame establishes an activation record: reserve the frame in stack
// memory, write the saved frame pointer and the return token into
// simulated memory, and seed parameter registers. Popped stack slots and
// their register files are reused (the backing array keeps them), so the
// steady-state call path allocates nothing once the deepest frame and
// widest register file have been seen.
func (v *VM) pushFrame(fn *ir.Func, args []uint64, call *ir.Inst) error {
	if len(v.stack) >= v.maxDepth {
		return &Trap{Code: TrapStackOverflow, Cause: &RuntimeError{Msg: fmt.Sprintf(
			"stack depth limit (%d frames) exceeded in %s", v.maxDepth, fn.Name)}}
	}
	frameBytes := uint64(fn.FrameSize) + 16
	if v.sp < v.mem.stackBase+frameBytes {
		return &Trap{Code: TrapStackOverflow,
			Cause: &RuntimeError{Msg: "stack overflow in " + fn.Name}}
	}
	v.sp -= frameBytes
	fp := v.sp

	var callerFP uint64
	if len(v.stack) > 0 {
		callerFP = v.stack[len(v.stack)-1].fp
	}
	tok := RetTokenBase + v.nextTok*16
	v.nextTok++

	// Saved FP at fp+FrameSize, return token at fp+FrameSize+8 — above
	// the locals, so an upward overflow reaches them (x86 layout).
	if err := v.mem.WriteU64(fp+uint64(fn.FrameSize), callerFP); err != nil {
		return err
	}
	if err := v.mem.WriteU64(fp+uint64(fn.FrameSize)+8, tok); err != nil {
		return err
	}

	n := len(v.stack)
	if n < cap(v.stack) {
		v.stack = v.stack[:n+1]
	} else {
		v.stack = append(v.stack, frame{})
	}
	nf := &v.stack[n]
	regs := nf.regs // register file left behind by a popped frame
	if cap(regs) >= fn.NumRegs {
		regs = regs[:fn.NumRegs]
		clear(regs)
	} else {
		regs = make([]uint64, fn.NumRegs)
	}
	*nf = frame{
		fn:    fn,
		regs:  regs,
		fp:    fp,
		fpEff: fp,
		call:  call,
		token: tok,
	}
	if v.prog != nil {
		nf.df = v.prog.funcs[fn]
	}
	for i, r := range fn.ParamRegs {
		if i < len(args) {
			regs[r] = args[i]
		}
	}
	if v.cfg.Temporal && fn.Temporal && len(fn.Allocas) > 0 {
		// Issue the frame lock: every alloca'd pointer in this frame
		// carries it, and popFrame revokes it — use-after-return dies at
		// the first dereference. Frames without allocas need no lock.
		key, lock := v.issueLock()
		nf.lock = lock
		regs[fn.FrameKeyReg] = key
		regs[fn.FrameLockReg] = lock
	}
	return nil
}

// popFrame validates the in-memory return token and unwinds, using the
// effective frame pointer like an x86 epilogue uses %rbp. A corrupted
// token pointing at a function is a successful control-flow hijack; a
// corrupted saved frame pointer redirects where the *caller's* epilogue
// will look for its own return slot (two-stage frame-pointer attack).
func (v *VM) popFrame() (*frame, error) {
	f := &v.stack[len(v.stack)-1]
	// Revoke the frame's temporal lock on every exit path — including
	// the hijack path below, where the victim frame is simply discarded:
	// pointers into this frame must never outlive it.
	if f.lock != 0 {
		v.revokeLock(f.lock)
		f.lock = 0
	}
	tokAddr := f.fpEff + uint64(f.fn.FrameSize) + 8
	tok, err := v.mem.ReadU64(tokAddr)
	if err != nil {
		return nil, err
	}
	savedFP, err := v.mem.ReadU64(f.fpEff + uint64(f.fn.FrameSize))
	if err != nil {
		return nil, err
	}
	frameBytes := uint64(f.fn.FrameSize) + 16

	if tok != f.token {
		if target := v.funcByAddr(tok); target != nil {
			// The attacker redirected the return: transfer control. The
			// victim's shadow window is discarded and the hijacked target
			// gets a fresh, empty one (a real transfer would push one too;
			// all its slots read as NULL bounds).
			v.Hijacks = append(v.Hijacks, ControlHijack{
				Via: "return-address", Target: target.Name,
			})
			wbase := f.shadowBase
			v.stack = v.stack[:len(v.stack)-1]
			v.sp += frameBytes
			v.shadow = v.shadow[:wbase]
			hb := v.pushShadow(0)
			if err := v.pushFrame(target, nil, nil); err != nil {
				return nil, err
			}
			v.stack[len(v.stack)-1].shadowBase = hb
			return nil, nil // control continues in the hijacked target
		}
		return nil, &RuntimeError{Msg: fmt.Sprintf(
			"return to corrupted address 0x%x in %s (smashed stack)", tok, f.fn.Name)}
	}
	v.stack = v.stack[:len(v.stack)-1]
	v.sp += frameBytes
	// Propagate a corrupted saved FP into the caller's epilogue.
	if len(v.stack) > 0 {
		caller := &v.stack[len(v.stack)-1]
		if savedFP != caller.fp && savedFP != caller.fpEff &&
			savedFP >= v.mem.stackBase && savedFP < StackTop {
			caller.fpEff = savedFP
			v.Hijacks = append(v.Hijacks, ControlHijack{
				Via: "frame-pointer", Target: caller.fn.Name,
			})
		}
	}
	return f, nil
}
