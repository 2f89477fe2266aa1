package opt

import (
	"softbound/internal/ir"
)

// The model the check-elimination passes are held to: the available-checks
// dataflow over map-keyed sets that they replaced. EliminateRedundantChecks
// and EliminateRedundantChecksGlobal must keep exactly the instructions
// these keep.

// availState is the set of checks known to have executed (without any
// operand redefinition since) on every path reaching a program point.
// nil is ⊤ ("all checks available"), used to initialize blocks
// optimistically so facts propagate around loop back edges.
type availState map[checkKey]bool

func (s availState) clone() availState {
	c := make(availState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// equal reports set equality; a nil receiver (⊤) equals only nil.
func (s availState) equal(o availState) bool {
	if (s == nil) != (o == nil) || len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

func (k checkKey) mentions(r ir.Reg) bool {
	if mentionsReg(k.a, r) {
		return true
	}
	w := 2
	if k.tmeta {
		w = 4
	}
	for _, v := range k.meta[:w] {
		if mentionsReg(v, r) {
			return true
		}
	}
	return false
}

// transferCheck applies one instruction to the available-check set,
// returning the updated set (mutating s in place).
func transferCheck(s availState, in *ir.Inst) availState {
	switch in.Kind {
	case ir.KCheck:
		s[keyOf(in)] = true
		return s
	default:
		if isSetjmpCall(in) {
			return make(availState)
		}
		if in.Kind == ir.KCall {
			for k := range s {
				if k.tmeta {
					delete(s, k)
				}
			}
		}
		in.Defs(func(dst ir.Reg) {
			for k := range s {
				if k.mentions(dst) {
					delete(s, k)
				}
			}
		})
		return s
	}
}

// modelEliminateChecks is the model of EliminateRedundantChecks.
func modelEliminateChecks(f *ir.Func) int {
	removed := 0
	for _, blk := range f.Blocks {
		seen := make(availState)
		n := 0
		for i := range blk.Insts {
			in := &blk.Insts[i]
			if in.Kind == ir.KCheck && seen[keyOf(in)] {
				removed++
				continue
			}
			seen = transferCheck(seen, in)
			if n != i {
				blk.Insts[n] = *in
			}
			n++
		}
		blk.Insts = blk.Insts[:n]
	}
	return removed
}

// modelEliminateChecksGlobal is the model of
// EliminateRedundantChecksGlobal.
func modelEliminateChecksGlobal(f *ir.Func) int {
	cfg := ir.BuildCFG(f)
	if len(cfg.RPO) == 0 {
		return 0
	}
	availOut := make([]availState, len(f.Blocks))
	availIn := func(b int) availState {
		var s availState
		for _, p := range cfg.Preds[b] {
			po := availOut[p]
			if po == nil {
				continue
			}
			if s == nil {
				s = po.clone()
				continue
			}
			for k := range s {
				if !po[k] {
					delete(s, k)
				}
			}
		}
		if s == nil {
			s = make(availState)
		}
		return s
	}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.RPO {
			s := availIn(b)
			if b == cfg.RPO[0] {
				s = make(availState)
			}
			for i := range f.Blocks[b].Insts {
				s = transferCheck(s, &f.Blocks[b].Insts[i])
			}
			if !s.equal(availOut[b]) {
				availOut[b] = s
				changed = true
			}
		}
	}
	removed := 0
	for _, b := range cfg.RPO {
		s := availIn(b)
		if b == cfg.RPO[0] {
			s = make(availState)
		}
		blk := f.Blocks[b]
		n := 0
		for i := range blk.Insts {
			in := &blk.Insts[i]
			if in.Kind == ir.KCheck && s[keyOf(in)] {
				removed++
				continue
			}
			s = transferCheck(s, in)
			if n != i {
				blk.Insts[n] = *in
			}
			n++
		}
		blk.Insts = blk.Insts[:n]
	}
	return removed
}
