// Whole-function optimizer passes built on the internal/ir CFG analysis:
// available-check elimination across blocks and loop-invariant
// metadata-load hoisting. These recover, inside the SoftBound pipeline,
// the global redundancy elimination the paper gets by re-running LLVM's
// optimizer over the instrumented bitcode (§6.1).
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

// HoistLoopInvariantMetaLoads moves a loop-invariant KMetaLoad into a
// preheader block inserted before the loop header. A metaload is hoisted
// only when all of the following hold, keeping the motion observationally
// neutral:
//
//   - The loop contains no KCall, KMetaStore, or KMetaClear: nothing in
//     the loop (or in a callee, or via longjmp out of one) can change
//     what the lookup returns.
//   - Its address operand is a constant/symbol, or a register no loop
//     instruction writes: the lookup reads the same table slot every
//     iteration.
//   - Its destination registers are written by no other loop instruction
//     (and only once by this one): moving the single definition out of
//     the loop cannot change which value later reads observe.
//   - Its block dominates every loop exit: the lookup was unconditionally
//     executed before leaving the loop, so executing it earlier adds no
//     new behavior (a table lookup never faults, it only reads).
//   - Its block dominates every loop block that reads a destination
//     register, and no read precedes it inside its own block: every read
//     already saw this definition.
//
// The loop's header must not be the function entry (a preheader needs
// somewhere to splice in). One metaload is hoisted per CFG build; the
// caller's fixpoint loop re-runs the pass until it finds nothing.
func HoistLoopInvariantMetaLoads(f *ir.Func) int {
	return hoistMetaLoads(f, ir.BuildCFG(f))
}

// hoistMetaLoads is HoistLoopInvariantMetaLoads starting from f's CFG
// cfg. It rebuilds the CFG only after splicing in a new preheader: a
// hoist into an existing one moves an instruction and edits no edge.
func hoistMetaLoads(f *ir.Func, cfg *ir.CFG) int {
	hoisted := 0
	// Bound the loop defensively; each iteration either hoists or stops.
	for iter := 0; iter < 64; iter++ {
		ok, spliced := hoistOneMetaLoad(f, cfg)
		if !ok {
			return hoisted
		}
		hoisted++
		if spliced {
			cfg = ir.BuildCFG(f)
		}
	}
	return hoisted
}

// hoistOneMetaLoad hoists one metaload, reporting whether it did and
// whether it spliced a new preheader block into the CFG to do so.
func hoistOneMetaLoad(f *ir.Func, cfg *ir.CFG) (ok, spliced bool) {
	for _, loop := range cfg.NaturalLoops() {
		if loop.Header == cfg.RPO[0] {
			continue // entry block cannot get a preheader
		}
		if b, i := findHoistableMetaLoad(f, cfg, loop); b >= 0 {
			return true, hoistInto(f, cfg, loop, b, i)
		}
	}
	return false, false
}

// findHoistableMetaLoad returns the block index and instruction index of
// a metaload satisfying the conditions above, or (-1, -1).
func findHoistableMetaLoad(f *ir.Func, cfg *ir.CFG, loop *ir.Loop) (int, int) {
	// Pass 1 over the loop body: reject loops with calls or metadata
	// writes, and collect per-register write counts.
	writes := make(map[ir.Reg]int)
	for _, b := range loop.Blocks {
		for i := range f.Blocks[b].Insts {
			in := &f.Blocks[b].Insts[i]
			switch in.Kind {
			case ir.KCall, ir.KMetaStore, ir.KMetaClear:
				return -1, -1
			}
			in.Defs(func(r ir.Reg) { writes[r]++ })
		}
	}
	exits := cfg.ExitBlocks(loop)

	for _, b := range loop.Blocks {
		for i := range f.Blocks[b].Insts {
			in := &f.Blocks[b].Insts[i]
			if in.Kind != ir.KMetaLoad {
				continue
			}
			// A temporal metaload also defines the key/lock words, which
			// this analysis does not model; never hoist one.
			if in.TMeta {
				continue
			}
			// Invariant address: non-register, or never written in-loop.
			if in.A.Kind == ir.VReg && writes[in.A.Reg] != 0 {
				continue
			}
			// Sole in-loop definition of both destinations. (A metaload
			// whose base and bound are one register writes it twice.)
			base, bnd := in.MetaDst[0], in.MetaDst[1]
			if writes[base] != 1 || writes[bnd] != 1 || base == bnd {
				continue
			}
			if !dominatesAll(cfg, b, exits) {
				continue
			}
			if !dominatesReads(f, cfg, loop, b, i, base) ||
				!dominatesReads(f, cfg, loop, b, i, bnd) {
				continue
			}
			return b, i
		}
	}
	return -1, -1
}

func dominatesAll(cfg *ir.CFG, b int, blocks []int) bool {
	for _, o := range blocks {
		if !cfg.Dominates(b, o) {
			return false
		}
	}
	return true
}

// dominatesReads reports whether the definition at (defBlock, defIdx)
// dominates every read of reg inside the loop: reads in other loop
// blocks must be in blocks dominated by defBlock, and reads in defBlock
// itself must come after defIdx.
func dominatesReads(f *ir.Func, cfg *ir.CFG, loop *ir.Loop, defBlock, defIdx int, reg ir.Reg) bool {
	for _, b := range loop.Blocks {
		for i := range f.Blocks[b].Insts {
			reads := false
			f.Blocks[b].Insts[i].Uses(func(v ir.Value) { reads = reads || mentionsReg(v, reg) })
			if !reads {
				continue
			}
			if b == defBlock {
				if i < defIdx {
					return false
				}
				continue
			}
			if !cfg.Dominates(defBlock, b) {
				return false
			}
		}
	}
	return true
}

// hoistInto creates (or reuses) a preheader for the loop and moves the
// metaload at (b, i) to its end, before the terminator. It reports
// whether it created the preheader.
func hoistInto(f *ir.Func, cfg *ir.CFG, loop *ir.Loop, b, i int) (spliced bool) {
	in := f.Blocks[b].Insts[i]
	f.Blocks[b].Insts = append(f.Blocks[b].Insts[:i], f.Blocks[b].Insts[i+1:]...)

	nblocks := len(f.Blocks)
	pre := makePreheader(f, cfg, loop)
	// Insert before the preheader's terminator (an unconditional branch
	// to the header).
	blk := f.Blocks[pre]
	term := blk.Insts[len(blk.Insts)-1]
	blk.Insts[len(blk.Insts)-1] = in
	blk.Insts = append(blk.Insts, term)
	return len(f.Blocks) > nblocks
}

// makePreheader returns a block that is the unique non-loop predecessor
// of the loop header, creating one (and redirecting the other non-loop
// predecessors' terminators) if necessary.
func makePreheader(f *ir.Func, cfg *ir.CFG, loop *ir.Loop) int {
	h := loop.Header
	var outside []int
	for _, p := range cfg.Preds[h] {
		if !loop.Contains(p) {
			outside = append(outside, p)
		}
	}
	// A unique outside predecessor that only branches to the header
	// already serves as the preheader.
	if len(outside) == 1 {
		t := f.Blocks[outside[0]].Terminator()
		if t != nil && t.Kind == ir.KBr && t.Target == h {
			return outside[0]
		}
	}
	pre := f.NewBlock(f.Blocks[h].Name + ".preheader")
	f.Blocks[pre].Insts = []ir.Inst{{Kind: ir.KBr, Target: h}}
	for _, p := range outside {
		t := f.Blocks[p].Terminator()
		switch t.Kind {
		case ir.KBr:
			if t.Target == h {
				t.Target = pre
			}
		case ir.KCondBr:
			if t.Target == h {
				t.Target = pre
			}
			if t.Else == h {
				t.Else = pre
			}
		}
	}
	return pre
}
