// Package opt implements the optimizer passes the pipeline runs before
// and after SoftBound instrumentation, mirroring the paper's use of
// LLVM's optimizer (§6.1): running SoftBound post-optimization keeps the
// instrumentation off register-promoted scalars, and re-running cleanup
// afterwards removes redundant checks and dead metadata manipulation.
//
// Block-local passes:
//   - ConstFold: folds constant arithmetic, comparisons, and branches.
//   - DeadCodeElim: removes pure instructions whose results are unused
//     (this is what deletes unused base/bound constants after
//     instrumentation).
//   - EliminateRedundantChecks: removes a spatial check identical to an
//     earlier check in the same block with no intervening redefinition.
//   - CSEMetaLoads: merges repeated metadata lookups of the same address
//     within a block when no metadata write or call intervenes.
//
// Whole-function (CFG) passes, enabled by Options.Global:
//   - EliminateRedundantChecksGlobal: available-check dataflow over the
//     CFG; removes a check covered by identical checks on every incoming
//     path (in particular, one dominated by an identical check with no
//     redefinition on any path between them).
//   - Dead metadata-load removal inside DeadCodeElim: a KMetaLoad whose
//     result registers are never read is deleted.
//
// No pass moves an instruction from one block to another or adds a
// block: loop-invariant metadata-load hoisting is retired (DESIGN.md,
// "Retired: metadata-load hoisting").
//
// The soundness contract every pass obeys (what may be assumed about
// register definitions, metadata effects, and checks) is documented in
// DESIGN.md; the differential fuzz tests in this package and in
// internal/driver hold the passes to it.
package opt

import (
	"softbound/internal/ir"
)

// Result reports what the passes changed (benchmarks surface this).
type Result struct {
	FoldedConsts int
	RemovedInsts int
	// RemovedChecks counts checks removed by the block-local pass;
	// RemovedChecksGlobal counts the additional cross-block removals by
	// the CFG availability pass (it runs after the local pass, so the
	// two never count the same check).
	RemovedChecks       int
	RemovedChecksGlobal int
	MergedMetaLoads     int
	// HoistedMetaLoads counted the metadata loads moved by a retired
	// loop-invariant hoisting pass; internal/perf still reads it.
	//
	// Deprecated: always zero.
	HoistedMetaLoads int
	DeadMetaLoads    int
}

func (r *Result) add(o Result) {
	r.FoldedConsts += o.FoldedConsts
	r.RemovedInsts += o.RemovedInsts
	r.RemovedChecks += o.RemovedChecks
	r.RemovedChecksGlobal += o.RemovedChecksGlobal
	r.MergedMetaLoads += o.MergedMetaLoads
	r.DeadMetaLoads += o.DeadMetaLoads
}

// Options selects which passes OptimizeWith runs.
type Options struct {
	// Global enables the whole-function passes: cross-block
	// redundant-check elimination and dead metadata-load removal.
	Global bool
}

// Optimize runs the block-local pass pipeline over the module until
// fixpoint (bounded), returning aggregate results.
func Optimize(m *ir.Module) Result {
	return OptimizeWith(m, Options{})
}

// OptimizeWith runs the pass pipeline selected by o over the module
// until fixpoint (bounded), returning aggregate results.
func OptimizeWith(m *ir.Module, o Options) Result {
	return OptimizeFuncs(m.Funcs, o)
}

// OptimizeFuncs runs the pass pipeline selected by o over each function
// until fixpoint (bounded). Every pass works on one function at a time,
// so optimizing a module's functions piecewise gives the same result as
// optimizing the whole module.
func OptimizeFuncs(funcs []*ir.Func, o Options) Result {
	var total Result
	var cs checkSets
	for _, f := range funcs {
		for iter := 0; iter < 8; iter++ {
			r := Result{}
			r.FoldedConsts = ConstFold(f)
			// Both check passes use one numbering of the round's
			// checks.
			cs.intern(f)
			r.RemovedChecks = cs.eliminateLocal(f)
			if o.Global {
				r.RemovedChecksGlobal = cs.eliminateGlobal(f, ir.BuildCFG(f))
			}
			r.MergedMetaLoads = CSEMetaLoads(f)
			r.RemovedInsts, r.DeadMetaLoads = deadCodeElim(f, o.Global)
			total.add(r)
			if r == (Result{}) {
				break
			}
		}
	}
	return total
}

// ConstFold folds KBin/KUn/KCmp over constant operands and KCondBr over a
// constant condition.
func ConstFold(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			switch in.Kind {
			case ir.KBin:
				if in.A.Kind == ir.VConstInt && in.B.Kind == ir.VConstInt {
					if v, ok := foldBin(in); ok {
						*in = ir.Inst{Kind: ir.KConst, Dst: in.Dst, A: ir.CI(v)}
						n++
					}
				}
			case ir.KUn:
				if in.A.Kind == ir.VConstInt {
					switch in.Op {
					case ir.OpNeg:
						*in = ir.Inst{Kind: ir.KConst, Dst: in.Dst,
							A: ir.CI(truncS(-in.A.Int, in.IntWidth))}
						n++
					case ir.OpNot:
						*in = ir.Inst{Kind: ir.KConst, Dst: in.Dst,
							A: ir.CI(truncS(^in.A.Int, in.IntWidth))}
						n++
					}
				}
			case ir.KCmp:
				if in.A.Kind == ir.VConstInt && in.B.Kind == ir.VConstInt {
					if v, ok := foldCmp(in); ok {
						*in = ir.Inst{Kind: ir.KConst, Dst: in.Dst, A: ir.CI(v)}
						n++
					}
				}
			case ir.KCondBr:
				if in.A.Kind == ir.VConstInt {
					t := in.Target
					if in.A.Int == 0 {
						t = in.Else
					}
					*in = ir.Inst{Kind: ir.KBr, Target: t}
					n++
				}
			case ir.KGEP:
				// A bounds-shrinking GEP must survive to instrumentation:
				// the Shrink marker is what tells the SoftBound pass to
				// narrow the result's metadata to the sub-object (§3.1),
				// and a bare KConst would silently lose it.
				if in.Shrink {
					break
				}
				// gep c1 + c2*s + c3 with constant base folds to const.
				if in.A.Kind == ir.VConstInt && in.B.Kind == ir.VConstInt {
					v := in.A.Int + in.B.Int*in.Size + in.C.Int
					*in = ir.Inst{Kind: ir.KConst, Dst: in.Dst, A: ir.CI(v)}
					n++
				}
			}
		}
	}
	return n
}

func truncS(v int64, width int) int64 {
	if width == 0 || width >= 64 {
		return v
	}
	mask := (uint64(1) << uint(width)) - 1
	u := uint64(v) & mask
	if u&(1<<uint(width-1)) != 0 {
		u |= ^mask
	}
	return int64(u)
}

func foldBin(in *ir.Inst) (int64, bool) {
	a, b := in.A.Int, in.B.Int
	var r int64
	switch in.Op {
	case ir.OpAdd:
		r = a + b
	case ir.OpSub:
		r = a - b
	case ir.OpMul:
		r = a * b
	case ir.OpDiv:
		if b == 0 {
			return 0, false // preserve the runtime fault
		}
		r = a / b
	case ir.OpRem:
		if b == 0 {
			return 0, false
		}
		r = a % b
	case ir.OpAnd:
		r = a & b
	case ir.OpOr:
		r = a | b
	case ir.OpXor:
		r = a ^ b
	case ir.OpShl:
		r = a << (uint64(b) & 63)
	case ir.OpShr:
		if in.Signed {
			r = a >> (uint64(b) & 63)
		} else {
			r = int64(uint64(a) >> (uint64(b) & 63))
		}
	default:
		return 0, false
	}
	return truncS(r, in.IntWidth), true
}

func foldCmp(in *ir.Inst) (int64, bool) {
	a, b := in.A.Int, in.B.Int
	var res bool
	switch in.Pred {
	case ir.PredEQ:
		res = a == b
	case ir.PredNE:
		res = a != b
	case ir.PredLT:
		if in.Signed {
			res = a < b
		} else {
			res = uint64(a) < uint64(b)
		}
	case ir.PredLE:
		if in.Signed {
			res = a <= b
		} else {
			res = uint64(a) <= uint64(b)
		}
	case ir.PredGT:
		if in.Signed {
			res = a > b
		} else {
			res = uint64(a) > uint64(b)
		}
	case ir.PredGE:
		if in.Signed {
			res = a >= b
		} else {
			res = uint64(a) >= uint64(b)
		}
	default:
		return 0, false
	}
	if res {
		return 1, true
	}
	return 0, true
}

// DeadCodeElim removes side-effect-free instructions whose destination is
// never read. Because registers are mutable (non-SSA), an instruction is
// removable only if no instruction anywhere reads its destination
// register at all; this is conservative but removes exactly the unused
// metadata constants instrumentation introduces.
func DeadCodeElim(f *ir.Func) int {
	n, _ := deadCodeElim(f, false)
	return n
}

// deadCodeElim is DeadCodeElim plus, when removeMetaLoads is set, removal
// of KMetaLoads whose result registers are all unread (a table lookup
// has no effect other than writing them). The two counts are disjoint.
func deadCodeElim(f *ir.Func, removeMetaLoads bool) (removed, removedMetaLoads int) {
	used := make([]bool, f.NumRegs)
	markVal := func(v ir.Value) {
		if v.Kind == ir.VReg && int(v.Reg) < len(used) {
			used[v.Reg] = true
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Insts {
			b.Insts[i].Uses(markVal)
		}
	}
	regUsed := func(r ir.Reg) bool { return r >= 0 && int(r) < len(used) && used[r] }
	// Parameter registers (including appended metadata parameters) are
	// written by the calling convention and must survive.
	keepDst := func(in *ir.Inst) bool {
		switch in.Kind {
		case ir.KConst, ir.KMov, ir.KBin, ir.KUn, ir.KCmp, ir.KConv, ir.KGEP:
			return in.Dst != ir.NoReg && regUsed(in.Dst)
		case ir.KMetaLoad:
			if removeMetaLoads {
				keep := false
				in.Defs(func(r ir.Reg) { keep = keep || regUsed(r) })
				return keep
			}
		}
		return true
	}
	for _, b := range f.Blocks {
		n := 0
		for i := range b.Insts {
			in := &b.Insts[i]
			switch {
			case keepDst(in):
				if n != i {
					b.Insts[n] = *in
				}
				n++
			case in.Kind == ir.KMetaLoad:
				removedMetaLoads++
			default:
				removed++
			}
		}
		b.Insts = b.Insts[:n]
	}
	return removed, removedMetaLoads
}

// checkKey identifies a check up to register/operand identity: two
// checks with equal keys over unchanged registers verify the same
// predicate. A temporal check also keys on its (key, lock) words; tmeta
// keeps the zero words of a spatial check from aliasing register 0, and
// marks the keys a call kills.
type checkKey struct {
	a     ir.Value
	meta  [4]ir.Value
	size  int64
	kind  ir.CheckKind
	tmeta bool
}

func keyOf(in *ir.Inst) checkKey {
	k := checkKey{a: in.A, size: in.AccessSize, kind: in.CheckK, tmeta: in.TMeta}
	w := in.MetaWords()
	copy(k.meta[:w], in.Meta[:w])
	return k
}

// regs calls fn for each register the key reads: the checked address
// and its metadata words.
func (k *checkKey) regs(fn func(ir.Reg)) {
	w := 2
	if k.tmeta {
		w = 4
	}
	if k.a.Kind == ir.VReg {
		fn(k.a.Reg)
	}
	for _, v := range k.meta[:w] {
		if v.Kind == ir.VReg {
			fn(v.Reg)
		}
	}
}

// EliminateRedundantChecks removes a KCheck identical to an earlier check
// in the same block when none of its operand registers were redefined in
// between. Checks have no side effect other than aborting, so the second
// of two identical checks can never fire first. It applies the same
// transfer function as EliminateRedundantChecksGlobal, from an empty set
// at every block entry.
func EliminateRedundantChecks(f *ir.Func) int {
	var cs checkSets
	cs.intern(f)
	return cs.eliminateLocal(f)
}

// eliminateLocal is EliminateRedundantChecks over f's interned checks.
func (cs *checkSets) eliminateLocal(f *ir.Func) int {
	if len(cs.ids) == 0 {
		return 0
	}
	cs.sets = grow(cs.sets, cs.words)
	s := cs.sets
	removed := 0
	for b, blk := range f.Blocks {
		clear(s)
		removed += cs.sweep(blk, b, s)
	}
	return removed
}

// isSetjmpCall reports whether in is a direct call to setjmp: the one
// instruction where control can re-enter mid-block (via longjmp) with
// register state from an arbitrary later program point.
func isSetjmpCall(in *ir.Inst) bool {
	return in.Kind == ir.KCall && in.Callee.Kind == ir.VFunc &&
		(in.Callee.Sym == "setjmp" || in.Callee.Sym == "_setjmp")
}

func mentionsReg(v ir.Value, r ir.Reg) bool {
	return v.Kind == ir.VReg && v.Reg == r
}

// CSEMetaLoads merges repeated KMetaLoad of the same address register in
// a block into register moves, invalidating on metadata writes, clears,
// calls (callees may update the table), redefinition of the address, and
// redefinition of the registers holding the cached metadata — including
// by another KMetaLoad, whose MetaDst registers are definitions like any
// other.
func CSEMetaLoads(f *ir.Func) int {
	merged := 0
	for _, blk := range f.Blocks {
		type cached struct{ base, bound ir.Reg }
		avail := make(map[ir.Value]cached)
		evict := func(dst ir.Reg) {
			for k, c := range avail {
				if mentionsReg(k, dst) || c.base == dst || c.bound == dst {
					delete(avail, k)
				}
			}
		}
		// A merged metaload expands to two moves, so a block with a merge
		// grows: it gets a fresh slice at its first merge, holding the
		// prefix copied so far. A block without one keeps its slice.
		var out []ir.Inst
		for i := range blk.Insts {
			in := &blk.Insts[i]
			switch in.Kind {
			case ir.KMetaLoad:
				if in.TMeta {
					// A temporal metaload defines four registers; merging
					// it would need four ordered moves and the cache knows
					// nothing of its key/lock destinations. Keep the load
					// and evict everything it redefines.
					in.Defs(evict)
					break
				}
				base, bnd := in.MetaDst[0], in.MetaDst[1]
				// Order the two moves so neither reads a register the
				// other just clobbered; when the destinations swap the
				// cached pair exactly, merging would need a scratch
				// register — keep the load instead.
				c, hit := avail[in.A]
				replaced := false
				var dst1, src1, dst2, src2 ir.Reg
				switch {
				case !hit:
				case base == c.bound && bnd == c.base && c.base != c.bound:
					// unmergeable swap
				case base == c.bound:
					dst1, src1, dst2, src2 = bnd, c.bound, base, c.base
					replaced = true
				default:
					dst1, src1, dst2, src2 = base, c.base, bnd, c.bound
					replaced = true
				}
				if replaced {
					if out == nil {
						out = growFrom(blk.Insts, i)
					}
					out = append(out,
						ir.Inst{Kind: ir.KMov, Dst: dst1, A: ir.R(src1)},
						ir.Inst{Kind: ir.KMov, Dst: dst2, A: ir.R(src2)})
				}
				// Whether merged or not, base and bound were just
				// (re)defined: evict any entry reading them, then cache
				// the freshest copy of this address's metadata — unless
				// the load clobbered its own address register.
				in.Defs(evict)
				if !mentionsReg(in.A, base) && !mentionsReg(in.A, bnd) {
					avail[in.A] = cached{base, bnd}
				}
				if replaced {
					merged++
					continue
				}
			case ir.KMetaStore, ir.KMetaClear, ir.KCall:
				avail = make(map[ir.Value]cached)
			default:
				in.Defs(evict)
			}
			if out != nil {
				out = append(out, *in)
			}
		}
		if out != nil {
			blk.Insts = out
		}
	}
	return merged
}

// growFrom returns a fresh slice holding insts[:i], with room for the
// rest of insts plus one more instruction per metadata load left in it
// (each merge turns one load into two moves).
func growFrom(insts []ir.Inst, i int) []ir.Inst {
	room := len(insts)
	for j := i; j < len(insts); j++ {
		if insts[j].Kind == ir.KMetaLoad {
			room++
		}
	}
	out := make([]ir.Inst, i, room)
	copy(out, insts[:i])
	return out
}
