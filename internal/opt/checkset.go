package opt

import (
	"softbound/internal/ir"
)

// checkSets is one function's checks numbered for the check-elimination
// passes: each distinct checkKey gets a dense id, so a set of available
// checks is a bitset of ids and every transfer step is a few word
// operations instead of hashing keys. The zero value is ready to use; a
// checkSets is reused across functions to keep its buffers.
type checkSets struct {
	keys map[checkKey]int32
	// ids holds the key id of every KCheck in block order, block b's
	// from ids[first[b]]. A sweep moves the ids of the checks it keeps
	// to the front of its block's part, in order, so the numbering stays
	// current for the next pass.
	ids   []int32
	first []int32
	words int // uint64 words per set
	// masks holds the kill masks, words long each: the temporal keys
	// (the ones a call kills) first, then one per register that some
	// key mentions, at the offset regMask[r] (-1 when none does).
	masks   []uint64
	regMask []int32
	// Scratch: the passes' sets, and the global pass's visited blocks.
	sets []uint64
	done []bool
}

// intern numbers f's checks.
func (cs *checkSets) intern(f *ir.Func) {
	if cs.keys == nil {
		cs.keys = make(map[checkKey]int32)
	}
	clear(cs.keys)
	cs.ids, cs.first = cs.ids[:0], cs.first[:0]
	for _, blk := range f.Blocks {
		cs.first = append(cs.first, int32(len(cs.ids)))
		for i := range blk.Insts {
			in := &blk.Insts[i]
			if in.Kind != ir.KCheck {
				continue
			}
			k := keyOf(in)
			id, ok := cs.keys[k]
			if !ok {
				id = int32(len(cs.keys))
				cs.keys[k] = id
			}
			cs.ids = append(cs.ids, id)
		}
	}
	if len(cs.ids) == 0 {
		return // no sets to build: both passes have nothing to do
	}

	cs.words = (len(cs.keys) + 63) / 64
	maxReg := ir.Reg(-1)
	for k := range cs.keys {
		k.regs(func(r ir.Reg) { maxReg = max(maxReg, r) })
	}
	cs.regMask = grow(cs.regMask, int(maxReg)+1)
	for r := range cs.regMask {
		cs.regMask[r] = -1
	}
	cs.masks = grow(cs.masks, cs.words)
	clear(cs.masks)
	for k, id := range cs.keys {
		if k.tmeta {
			setBit(cs.masks[:cs.words], id)
		}
		k.regs(func(r ir.Reg) {
			if r < 0 {
				return // NoReg names no register a definition can write
			}
			off := cs.regMask[r]
			if off < 0 {
				off = int32(len(cs.masks))
				cs.regMask[r] = off
				for range cs.words {
					cs.masks = append(cs.masks, 0)
				}
			}
			setBit(cs.masks[off:off+int32(cs.words)], id)
		})
	}
}

// kill applies a non-check instruction to the available set s: a setjmp
// call empties it, any call drops the temporal keys, and each register
// the instruction defines drops the keys that mention it. When k is not
// nil, every key dropped is also added to k, so a block walk collects
// its kill set.
func (cs *checkSets) kill(s, k []uint64, in *ir.Inst) {
	if isSetjmpCall(in) {
		// longjmp re-enters after this instruction with register state
		// from an arbitrary later point: nothing stays known.
		clear(s)
		for i := range k {
			k[i] = ^uint64(0)
		}
		return
	}
	if in.Kind == ir.KCall {
		// A temporal check's outcome depends on the lock table, which
		// any callee can change by freeing or reallocating. Spatial
		// keys are pure functions of their registers and survive.
		killMask(s, k, cs.masks[:cs.words])
	}
	in.Defs(func(r ir.Reg) {
		if r >= 0 && int(r) < len(cs.regMask) && cs.regMask[r] >= 0 {
			off := cs.regMask[r]
			killMask(s, k, cs.masks[off:off+int32(cs.words)])
		}
	})
}

func killMask(s, k, m []uint64) {
	for i, w := range m {
		s[i] &^= w
	}
	for i := range k {
		k[i] |= m[i]
	}
}

// sweep walks block b from the available set s, deleting each check
// whose key s already holds and applying every other instruction to s.
// It returns the number of checks deleted.
func (cs *checkSets) sweep(blk *ir.Block, b int, s []uint64) int {
	ids := cs.blockIDs(b)
	removed, n, c := 0, 0, 0
	for i := range blk.Insts {
		in := &blk.Insts[i]
		if in.Kind == ir.KCheck {
			id := ids[c+removed]
			if hasBit(s, id) {
				removed++
				continue
			}
			setBit(s, id)
			ids[c] = id
			c++
		} else {
			cs.kill(s, nil, in)
		}
		if n != i {
			blk.Insts[n] = *in
		}
		n++
	}
	blk.Insts = blk.Insts[:n]
	return removed
}

// genKill computes block b's transfer function as the pair (gen, kill)
// with out = in&^kill | gen. Each step composes exactly: a check adds
// its key to gen, and a kill mask joins kill and leaves gen.
func (cs *checkSets) genKill(blk *ir.Block, b int, gen, kill []uint64) {
	ids := cs.blockIDs(b)
	c := 0
	for i := range blk.Insts {
		in := &blk.Insts[i]
		if in.Kind == ir.KCheck {
			setBit(gen, ids[c])
			c++
			continue
		}
		cs.kill(gen, kill, in)
	}
}

// blockIDs returns the ids of block b's checks, in order, as the block
// was interned; after a sweep, those of the checks it kept.
func (cs *checkSets) blockIDs(b int) []int32 {
	return cs.ids[cs.first[b]:]
}

func setBit(s []uint64, id int32) { s[id>>6] |= 1 << (id & 63) }

func hasBit(s []uint64, id int32) bool { return s[id>>6]&(1<<(id&63)) != 0 }

// grow returns s resized to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
