package vm

import (
	"fmt"
	"math"
	"strings"

	"softbound/internal/ir"
	"softbound/internal/meta"
)

// callBuiltin implements the runtime library functions that are not
// written in the C subset (allocation, raw memory ops, I/O, math,
// setjmp/longjmp). These correspond to the paper's library wrappers
// (§5.2): each is metadata-aware, checking pointer arguments against the
// caller-provided base/bound when checking is enabled and producing
// metadata for returned pointers.
func (v *VM) callBuiltin(name string, f *frame, in *ir.Inst, args []uint64, metas []meta.Entry) (uint64, meta.Entry, error) {
	instrumented := v.cfg.Mode != CheckNone

	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	farg := func(i int) float64 { return math.Float64frombits(arg(i)) }
	fret := func(x float64) (uint64, meta.Entry, error) {
		return math.Float64bits(x), meta.Entry{}, nil
	}
	// checkArg validates a pointer argument of the given length against
	// its metadata, as the paper's wrappers do.
	checkArg := func(i int, size uint64, isWrite bool) error {
		if !instrumented || i >= len(metas) {
			return nil
		}
		if v.cfg.Mode == CheckStoreOnly && !isWrite {
			return nil
		}
		m := metas[i]
		if m == (meta.Entry{}) {
			// No metadata flowed here (e.g. vararg int reinterpreted);
			// the paper's wrappers cannot check such pointers.
			return nil
		}
		p := arg(i)
		v.stats.Checks++
		v.stats.SimInsts += CheckCost
		k := ir.CheckLoad
		if isWrite {
			k = ir.CheckStore
		}
		if v.cfg.Temporal {
			// Library wrappers verify the lock-and-key before the spatial
			// compare, like instrumented dereferences do.
			v.stats.TemporalChecks++
			v.stats.SimInsts += costTemporalCheck
			if !v.lockLive(m.Key, m.Lock) {
				return &TemporalViolation{Kind: k, Ptr: p, Key: m.Key,
					Lock: m.Lock, Func: name}
			}
		}
		if p < m.Base || p+size > m.Bound {
			return &SpatialViolation{Kind: k, Ptr: p, Base: m.Base,
				Bound: m.Bound, Size: size, Func: name}
		}
		return nil
	}

	// heapEntry builds the returned metadata for a fresh heap block of
	// [p, p+size): under the temporal runtime the block gets a fresh
	// (key, lock), revoked when free/realloc retires the block.
	heapEntry := func(p, size uint64) meta.Entry {
		e := meta.Entry{Base: p, Bound: p + size}
		if v.cfg.Temporal {
			key, lock := v.issueLock()
			v.heapLocks[p] = lock
			e.Key, e.Lock = key, lock
		}
		return e
	}
	// revokeHeap kills the temporal lock of a retiring heap block.
	revokeHeap := func(p uint64) {
		if v.cfg.Temporal {
			if lock, ok := v.heapLocks[p]; ok {
				v.revokeLock(lock)
				delete(v.heapLocks, p)
			}
		}
	}

	switch name {
	// ------------------------------------------------------ allocation
	case "malloc":
		size := arg(0)
		v.stats.Mallocs++
		v.stats.SimInsts += 30
		p, err := v.allocate(size)
		if err != nil {
			return 0, meta.Entry{}, err
		}
		if p == 0 {
			return 0, meta.Entry{}, nil
		}
		if v.cfg.Checker != nil {
			v.cfg.Checker.OnAlloc(p, size, "heap")
		}
		if instrumented {
			// Paper §5.2: clear stale metadata on reuse.
			v.fac.Clear(p, size)
		}
		// ptr_base = ptr; ptr_bound = ptr+size (paper §3.1).
		return p, heapEntry(p, size), nil

	case "calloc":
		n, esz := arg(0), arg(1)
		size := n * esz
		v.stats.Mallocs++
		v.stats.SimInsts += 30 + size/8
		p, err := v.allocate(size)
		if err != nil {
			return 0, meta.Entry{}, err
		}
		if p == 0 {
			return 0, meta.Entry{}, nil
		}
		if b, err := v.mem.slice(p, size); err == nil {
			for i := range b {
				b[i] = 0
			}
		}
		if v.cfg.Checker != nil {
			v.cfg.Checker.OnAlloc(p, size, "heap")
		}
		if instrumented {
			v.fac.Clear(p, size)
		}
		return p, heapEntry(p, size), nil

	case "realloc":
		old, size := arg(0), arg(1)
		v.stats.Mallocs++
		v.stats.SimInsts += 40
		if old == 0 {
			p, err := v.allocate(size)
			if err != nil {
				return 0, meta.Entry{}, err
			}
			if p != 0 && v.cfg.Checker != nil {
				v.cfg.Checker.OnAlloc(p, size, "heap")
			}
			if p != 0 && instrumented {
				v.fac.Clear(p, size)
			}
			return p, heapEntry(p, size), nil
		}
		// Temporal pre-check on the old pointer: realloc of a block whose
		// lock is already revoked (freed, or realloc'd before) is a
		// temporal violation, just like free of one.
		if v.cfg.Temporal && instrumented && len(metas) > 0 && metas[0] != (meta.Entry{}) {
			v.stats.TemporalChecks++
			v.stats.SimInsts += costTemporalCheck
			if !v.lockLive(metas[0].Key, metas[0].Lock) {
				return 0, meta.Entry{}, &TemporalViolation{Kind: ir.CheckStore,
					Ptr: old, Key: metas[0].Key, Lock: metas[0].Lock, Func: name}
			}
		}
		oldSize := v.alloc.size(old)
		p, err := v.allocate(size)
		if err != nil {
			return 0, meta.Entry{}, err
		}
		if p == 0 {
			return 0, meta.Entry{}, nil
		}
		n := oldSize
		if size < n {
			n = size
		}
		// Propagate copy faults instead of silently returning a
		// half-initialized block with full bounds: a realloc that cannot
		// read the old contents (or write the new block) is a memory
		// fault, surfaced as a typed trap.
		if n > 0 {
			src, err := v.mem.ReadBytes(old, n)
			if err != nil {
				return 0, meta.Entry{}, err
			}
			if err := v.mem.WriteBytes(p, src); err != nil {
				return 0, meta.Entry{}, err
			}
		}
		if instrumented {
			v.fac.Clear(p, size)
			v.fac.CopyRange(p, old, n)
			v.fac.Clear(old, oldSize)
		}
		v.alloc.release(old)
		// Realloc-of-old revokes the old block's lock: every retained
		// alias of the old pointer fails its next temporal check.
		revokeHeap(old)
		if v.cfg.Checker != nil {
			v.cfg.Checker.OnFree(old)
			v.cfg.Checker.OnAlloc(p, size, "heap")
		}
		return p, heapEntry(p, size), nil

	case "free":
		p := arg(0)
		v.stats.Frees++
		v.stats.SimInsts += 20
		if p == 0 {
			return 0, meta.Entry{}, nil
		}
		// Temporal pre-check: freeing through a pointer whose lock is
		// already revoked is a double free — a temporal violation, caught
		// before the allocator is consulted (the address may have been
		// recycled to a *live* block by then).
		if v.cfg.Temporal && instrumented && len(metas) > 0 && metas[0] != (meta.Entry{}) {
			v.stats.TemporalChecks++
			v.stats.SimInsts += costTemporalCheck
			if !v.lockLive(metas[0].Key, metas[0].Lock) {
				return 0, meta.Entry{}, &TemporalViolation{Kind: ir.CheckStore,
					Ptr: p, Key: metas[0].Key, Lock: metas[0].Lock, Func: name}
			}
		}
		size := v.alloc.size(p)
		if !v.alloc.release(p) {
			// Free of a pointer that is not a live allocation (double
			// free, interior pointer, stack/global address): a typed
			// memory-fault trap — non-retryable and breaker-neutral —
			// instead of an unclassified runtime error.
			return 0, meta.Entry{}, &Trap{Code: TrapMemFault, Cause: &RuntimeError{
				Msg: fmt.Sprintf("free of invalid pointer 0x%x", p)}}
		}
		revokeHeap(p)
		if v.cfg.Checker != nil {
			v.cfg.Checker.OnFree(p)
		}
		if instrumented {
			// Paper §5.2: clear metadata when freeing pointer-bearing
			// memory so reuse cannot see stale bounds.
			v.fac.Clear(p, size)
		}
		return 0, meta.Entry{}, nil

	// -------------------------------------------------- raw memory ops
	case "memcpy", "memmove":
		dst, src, n := arg(0), arg(1), arg(2)
		// Checked once at the start of the copy (paper §5.2 memcpy).
		if err := checkArg(0, n, true); err != nil {
			return 0, meta.Entry{}, err
		}
		if err := checkArg(1, n, false); err != nil {
			return 0, meta.Entry{}, err
		}
		if v.cfg.Checker != nil {
			if err := v.cfg.Checker.OnStore(dst, n); err != nil {
				return 0, meta.Entry{}, err
			}
			if err := v.cfg.Checker.OnLoad(src, n); err != nil {
				return 0, meta.Entry{}, err
			}
		}
		if n > 0 {
			data, err := v.mem.ReadBytes(src, n)
			if err != nil {
				return 0, meta.Entry{}, err
			}
			if err := v.mem.WriteBytes(dst, data); err != nil {
				return 0, meta.Entry{}, err
			}
		}
		v.stats.SimInsts += 10 + n/4
		if instrumented {
			// Safe default: always carry the metadata (paper §5.2).
			v.fac.CopyRange(dst, src, n)
			v.stats.MetaCopyWords += n / 8
			v.stats.SimInsts += (n / 8) * uint64(v.fac.Costs().Lookup)
		}
		mret := meta.Entry{}
		if len(metas) > 0 {
			mret = metas[0]
		}
		return dst, mret, nil

	case "memset":
		dst, c, n := arg(0), arg(1), arg(2)
		if err := checkArg(0, n, true); err != nil {
			return 0, meta.Entry{}, err
		}
		if v.cfg.Checker != nil {
			if err := v.cfg.Checker.OnStore(dst, n); err != nil {
				return 0, meta.Entry{}, err
			}
		}
		b, err := v.mem.slice(dst, n)
		if err != nil {
			return 0, meta.Entry{}, err
		}
		for i := range b {
			b[i] = byte(c)
		}
		v.stats.SimInsts += 10 + n/4
		if instrumented && n >= 8 {
			v.fac.Clear(dst, n) // overwritten pointers lose metadata
		}
		mret := meta.Entry{}
		if len(metas) > 0 {
			mret = metas[0]
		}
		return dst, mret, nil

	case "memcmp":
		a, b, n := arg(0), arg(1), arg(2)
		if err := checkArg(0, n, false); err != nil {
			return 0, meta.Entry{}, err
		}
		if err := checkArg(1, n, false); err != nil {
			return 0, meta.Entry{}, err
		}
		ab, err := v.mem.ReadBytes(a, n)
		if err != nil {
			return 0, meta.Entry{}, err
		}
		bb, err := v.mem.ReadBytes(b, n)
		if err != nil {
			return 0, meta.Entry{}, err
		}
		v.stats.SimInsts += 10 + n/4
		for i := uint64(0); i < n; i++ {
			if ab[i] != bb[i] {
				return uint64(int64(int(ab[i]) - int(bb[i]))), meta.Entry{}, nil
			}
		}
		return 0, meta.Entry{}, nil

	// ------------------------------------------------------------- I/O
	case "printf":
		s, err := v.formatPrintf(args, metas, 0)
		if err != nil {
			return 0, meta.Entry{}, err
		}
		fmt.Fprint(v.stdout, s)
		v.stats.SimInsts += 50 + uint64(len(s))
		return uint64(len(s)), meta.Entry{}, nil

	case "sprintf":
		s, err := v.formatPrintf(args, metas, 1)
		if err != nil {
			return 0, meta.Entry{}, err
		}
		if err := checkArg(0, uint64(len(s)+1), true); err != nil {
			return 0, meta.Entry{}, err
		}
		if v.cfg.Checker != nil {
			if err := v.cfg.Checker.OnStore(arg(0), uint64(len(s)+1)); err != nil {
				return 0, meta.Entry{}, err
			}
		}
		if err := v.mem.WriteBytes(arg(0), append([]byte(s), 0)); err != nil {
			return 0, meta.Entry{}, err
		}
		v.stats.SimInsts += 50 + uint64(len(s))
		return uint64(len(s)), meta.Entry{}, nil

	case "puts":
		str, err := v.mem.CString(arg(0), 1<<20)
		if err != nil {
			return 0, meta.Entry{}, err
		}
		if err := checkArg(0, uint64(len(str)+1), false); err != nil {
			return 0, meta.Entry{}, err
		}
		fmt.Fprintln(v.stdout, str)
		v.stats.SimInsts += 30 + uint64(len(str))
		return uint64(len(str) + 1), meta.Entry{}, nil

	case "putchar":
		fmt.Fprintf(v.stdout, "%c", rune(byte(arg(0))))
		v.stats.SimInsts += 10
		return arg(0), meta.Entry{}, nil

	// --------------------------------------------------------- control
	case "exit":
		v.exitCode = int64(arg(0))
		v.halted = true
		return 0, meta.Entry{}, nil

	case "abort":
		return 0, meta.Entry{}, &RuntimeError{Msg: "abort called"}

	// ----------------------------------------------------------- misc
	case "rand":
		// xorshift64*: deterministic across runs for reproducibility.
		v.rngState ^= v.rngState >> 12
		v.rngState ^= v.rngState << 25
		v.rngState ^= v.rngState >> 27
		v.stats.SimInsts += 8
		return (v.rngState * 0x2545F4914F6CDD1D) >> 33 & 0x7fffffff, meta.Entry{}, nil

	case "srand":
		v.rngState = arg(0) | 1
		return 0, meta.Entry{}, nil

	case "clock", "time":
		return v.steps, meta.Entry{}, nil

	// -------------------------------------------------------- varargs
	// The va_* builtins implement the paper's §5.2 variable-argument
	// support: the callee's vararg area carries the argument values and
	// their pointer metadata, and decoding is *checked* — reading more
	// arguments than were passed aborts under instrumentation, instead
	// of reading garbage as plain C would.
	case "va_start":
		f.vaCursor = 0
		v.stats.SimInsts += 2
		return 0, meta.Entry{}, nil

	case "va_end":
		return 0, meta.Entry{}, nil

	case "va_arg_int", "va_arg_long", "va_arg_double", "va_arg_ptr":
		v.stats.SimInsts += 3
		if f.vaCursor >= len(f.varargs) {
			if instrumented {
				return 0, meta.Entry{}, &SpatialViolation{
					Kind: ir.CheckLoad, Func: f.fn.Name + " (va_arg)",
					Ptr: uint64(f.vaCursor), Bound: uint64(len(f.varargs)),
				}
			}
			// Unchecked C reads garbage past the argument area.
			return 0, meta.Entry{}, nil
		}
		val := f.varargs[f.vaCursor]
		m := f.varMetas[f.vaCursor]
		f.vaCursor++
		switch name {
		case "va_arg_int":
			return uint64(int64(int32(val))), meta.Entry{}, nil
		case "va_arg_ptr":
			return val, m, nil
		default:
			return val, meta.Entry{}, nil
		}

	case "setbound":
		// SoftBound extension (paper §3.1/§5.2): programmer-supplied
		// bounds, e.g. for custom allocators. Returns its pointer
		// argument with bounds [ptr, ptr+size). setbound is spatial: the
		// temporal identity is preserved when the argument carried one,
		// and defaults to the never-revoked global lock otherwise.
		p, size := arg(0), arg(1)
		e := meta.Entry{Base: p, Bound: p + size}
		if v.cfg.Temporal {
			e.Key, e.Lock = globalKey, globalLock
			if len(metas) > 0 && metas[0].Key != 0 {
				e.Key, e.Lock = metas[0].Key, metas[0].Lock
			}
		}
		return p, e, nil

	// ----------------------------------------------------------- math
	case "sqrt":
		return fret(math.Sqrt(farg(0)))
	case "fabs":
		return fret(math.Abs(farg(0)))
	case "pow":
		return fret(math.Pow(farg(0), farg(1)))
	case "sin":
		return fret(math.Sin(farg(0)))
	case "cos":
		return fret(math.Cos(farg(0)))
	case "tan":
		return fret(math.Tan(farg(0)))
	case "exp":
		return fret(math.Exp(farg(0)))
	case "log":
		return fret(math.Log(farg(0)))
	case "floor":
		return fret(math.Floor(farg(0)))
	case "ceil":
		return fret(math.Ceil(farg(0)))
	case "atan":
		return fret(math.Atan(farg(0)))
	case "atan2":
		return fret(math.Atan2(farg(0), farg(1)))
	case "fmod":
		return fret(math.Mod(farg(0), farg(1)))
	}
	return 0, meta.Entry{}, &RuntimeError{Msg: "call to undefined function " + name}
}

// formatPrintf renders a printf-family format. fmtArg is the index of the
// format-string argument; conversion arguments follow it.
func (v *VM) formatPrintf(args []uint64, metas []meta.Entry, fmtArg int) (string, error) {
	if fmtArg >= len(args) {
		return "", &RuntimeError{Msg: "printf: missing format string"}
	}
	format, err := v.mem.CString(args[fmtArg], 1<<20)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	ai := fmtArg + 1
	next := func() uint64 {
		if ai < len(args) {
			x := args[ai]
			ai++
			return x
		}
		ai++
		return 0
	}
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		// Parse %[flags][width][.prec][length]verb.
		j := i + 1
		spec := "%"
		for j < len(format) && strings.IndexByte("-+ 0#123456789.", format[j]) >= 0 {
			spec += string(format[j])
			j++
		}
		long := 0
		for j < len(format) && (format[j] == 'l' || format[j] == 'h') {
			if format[j] == 'l' {
				long++
			}
			j++
		}
		if j >= len(format) {
			b.WriteString(spec)
			break
		}
		verb := format[j]
		j++
		switch verb {
		case '%':
			b.WriteByte('%')
		case 'd', 'i':
			val := int64(next())
			if long == 0 {
				val = int64(int32(val))
			}
			fmt.Fprintf(&b, spec+"d", val)
		case 'u':
			val := next()
			if long == 0 {
				val = uint64(uint32(val))
			}
			fmt.Fprintf(&b, spec+"d", val)
		case 'x':
			val := next()
			if long == 0 {
				val = uint64(uint32(val))
			}
			fmt.Fprintf(&b, spec+"x", val)
		case 'X':
			val := next()
			if long == 0 {
				val = uint64(uint32(val))
			}
			fmt.Fprintf(&b, spec+"X", val)
		case 'o':
			fmt.Fprintf(&b, spec+"o", next())
		case 'c':
			fmt.Fprintf(&b, spec+"c", rune(byte(next())))
		case 'p':
			fmt.Fprintf(&b, "0x%x", next())
		case 'f', 'F':
			fmt.Fprintf(&b, spec+"f", math.Float64frombits(next()))
		case 'e', 'E':
			fmt.Fprintf(&b, spec+"e", math.Float64frombits(next()))
		case 'g', 'G':
			fmt.Fprintf(&b, spec+"g", math.Float64frombits(next()))
		case 's':
			strIdx := ai
			p := next()
			s, err := v.mem.CString(p, 1<<20)
			if err != nil {
				return "", err
			}
			// Library-wrapper read check (full mode only).
			if v.cfg.Mode == CheckFull && strIdx < len(metas) && metas[strIdx] != (meta.Entry{}) {
				m := metas[strIdx]
				v.stats.Checks++
				if p < m.Base || p+uint64(len(s))+1 > m.Bound {
					return "", &SpatialViolation{Kind: ir.CheckLoad, Ptr: p,
						Base: m.Base, Bound: m.Bound, Size: uint64(len(s)) + 1,
						Func: "printf"}
				}
			}
			fmt.Fprintf(&b, spec+"s", s)
		default:
			b.WriteString(spec + string(verb))
		}
		i = j
	}
	return b.String(), nil
}
