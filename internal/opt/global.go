// The whole-function optimizer pass built on the internal/ir CFG
// analysis: available-check elimination across blocks. It recovers,
// inside the SoftBound pipeline, the global redundancy elimination the
// paper gets by re-running LLVM's optimizer over the instrumented
// bitcode (§6.1).
package opt

import (
	"softbound/internal/ir"
)

// EliminateRedundantChecksGlobal removes a KCheck that is available on
// entry to its position along every path from the function entry — in
// particular, a check dominated by an identical check with no
// redefinition of its operands on any intervening path. It is a forward
// dataflow ("available expressions" over check keys): meet is
// intersection over reachable predecessors, the transfer function adds
// executed checks and kills keys whose registers are redefined, and
// setjmp call sites clear everything (longjmp resumes after them with
// unknown register state). Run EliminateRedundantChecks first; this pass
// only pays off on cross-block redundancy, and its counter isolates the
// extra wins.
func EliminateRedundantChecksGlobal(f *ir.Func) int {
	var cs checkSets
	cs.intern(f)
	return cs.eliminateGlobal(f, ir.BuildCFG(f))
}

// eliminateGlobal is EliminateRedundantChecksGlobal over f's interned
// checks and its CFG cfg, which it leaves valid: it deletes only checks,
// never a terminator.
//
// Each block's transfer function has the form out = in&^kill | gen, so
// one walk over its instructions computes it, and the fixpoint then
// iterates on set words alone.
func (cs *checkSets) eliminateGlobal(f *ir.Func, cfg *ir.CFG) int {
	if len(cfg.RPO) == 0 || len(cs.ids) == 0 {
		return 0
	}
	n, w := len(f.Blocks), cs.words
	// Per block: gen, kill and the fixpoint state at its end (out);
	// in is the scratch entry state.
	cs.sets = grow(cs.sets, (3*n+1)*w)
	clear(cs.sets)
	set := func(i, b int) []uint64 { return cs.sets[(i*n+b)*w : (i*n+b+1)*w] }
	in := cs.sets[3*n*w:]
	for _, b := range cfg.RPO {
		cs.genKill(f.Blocks[b], b, set(0, b), set(1, b))
	}
	// done[b] is false until block b's first visit: its out is then ⊤
	// ("all checks available"), so facts propagate around back edges.
	cs.done = grow(cs.done, n)
	clear(cs.done)
	availIn := func(b int) {
		clear(in)
		if b == cfg.RPO[0] {
			return // nothing available at function entry
		}
		first := true
		for _, p := range cfg.Preds[b] {
			if !cs.done[p] {
				continue // ⊤: imposes no constraint
			}
			po := set(2, p)
			if first {
				copy(in, po)
				first = false
				continue
			}
			for i := range in {
				in[i] &= po[i]
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.RPO {
			availIn(b)
			gen, kill, out := set(0, b), set(1, b), set(2, b)
			same := cs.done[b]
			for i := range out {
				o := in[i]&^kill[i] | gen[i]
				same = same && o == out[i]
				out[i] = o
			}
			if !same {
				cs.done[b] = true
				changed = true
			}
		}
	}

	// Elimination sweep: replay each block from its fixpoint entry state
	// and drop checks already available.
	removed := 0
	for _, b := range cfg.RPO {
		availIn(b)
		removed += cs.sweep(f.Blocks[b], b, in)
	}
	return removed
}
