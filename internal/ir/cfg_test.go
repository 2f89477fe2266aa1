package ir

import (
	"slices"
	"testing"
)

// mkFunc builds a function whose blocks are given as terminator specs:
// each entry is either {KBr, target}, {KCondBr, target, else}, or {KRet}.
func mkFunc(blocks ...[]int) *Func {
	f := &Func{Name: "t"}
	for range blocks {
		f.NewBlock("b")
	}
	for i, spec := range blocks {
		var t Inst
		switch spec[0] {
		case int(KBr):
			t = Inst{Kind: KBr, Target: spec[1]}
		case int(KCondBr):
			t = Inst{Kind: KCondBr, A: R(0), Target: spec[1], Else: spec[2]}
		default:
			t = Inst{Kind: KRet}
		}
		f.Blocks[i].Insts = []Inst{t}
	}
	f.NewReg(ClassInt)
	return f
}

func TestCFGDiamond(t *testing.T) {
	// 0 → {1, 2} → 3 → ret
	f := mkFunc(
		[]int{int(KCondBr), 1, 2},
		[]int{int(KBr), 3},
		[]int{int(KBr), 3},
		[]int{int(KRet)},
	)
	c := BuildCFG(f)
	if got := c.Succs[0]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("succs(0) = %v", got)
	}
	if got := c.Preds[3]; len(got) != 2 {
		t.Fatalf("preds(3) = %v", got)
	}
	if c.RPO[0] != 0 {
		t.Fatalf("RPO must start at entry: %v", c.RPO)
	}
	if len(c.RPO) != 4 || c.RPO[3] != 3 {
		t.Fatalf("RPO must end at the join: %v", c.RPO)
	}
}

func TestCFGLoop(t *testing.T) {
	// 0 → 1(header) → {2(body), 3(exit)}; 2 → 1.
	f := mkFunc(
		[]int{int(KBr), 1},
		[]int{int(KCondBr), 2, 3},
		[]int{int(KBr), 1},
		[]int{int(KRet)},
	)
	c := BuildCFG(f)
	// The header's predecessors are the entry and the back edge's source.
	if got := c.Preds[1]; len(got) != 2 || !slices.Contains(got, 0) || !slices.Contains(got, 2) {
		t.Errorf("preds(1) = %v", got)
	}
	if got := c.Succs[2]; len(got) != 1 || got[0] != 1 {
		t.Errorf("succs(2) = %v", got)
	}
	if len(c.RPO) != 4 || c.RPO[0] != 0 || c.RPO[1] != 1 {
		t.Errorf("RPO = %v, want the entry then the header first", c.RPO)
	}
}

func TestCFGNestedLoops(t *testing.T) {
	// 0 → 1(outer hdr) → 2(inner hdr) → {3(inner body→2), 4(outer latch→1)};
	// 1 can also exit to 5.
	f := mkFunc(
		[]int{int(KBr), 1},
		[]int{int(KCondBr), 2, 5},
		[]int{int(KCondBr), 3, 4},
		[]int{int(KBr), 2},
		[]int{int(KBr), 1},
		[]int{int(KRet)},
	)
	c := BuildCFG(f)
	if len(c.RPO) != 6 {
		t.Fatalf("RPO = %v, want all 6 blocks", c.RPO)
	}
	// Reverse postorder puts each header before the blocks it reaches
	// without a back edge.
	pos := make([]int, 6)
	for i, b := range c.RPO {
		pos[b] = i
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 5}, {2, 3}, {2, 4}} {
		if pos[e[0]] > pos[e[1]] {
			t.Errorf("RPO %v places %d after %d", c.RPO, e[0], e[1])
		}
	}
	for h, want := range map[int][]int{1: {0, 4}, 2: {1, 3}} {
		got := slices.Clone(c.Preds[h])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("preds(%d) = %v, want %v", h, got, want)
		}
	}
}

func TestCFGUnreachable(t *testing.T) {
	// Block 1 is unreachable; block 2 is the real successor.
	f := mkFunc(
		[]int{int(KBr), 2},
		[]int{int(KBr), 2},
		[]int{int(KRet)},
	)
	c := BuildCFG(f)
	if slices.Contains(c.RPO, 1) || len(c.RPO) != 2 {
		t.Errorf("RPO = %v: block 1 should be unreachable", c.RPO)
	}
	// Unreachable preds must not pollute the predecessor lists.
	if got := c.Preds[2]; len(got) != 1 || got[0] != 0 {
		t.Errorf("preds(2) = %v", got)
	}
}

func TestCFGSelfLoop(t *testing.T) {
	// 0 → 1; 1 → {1, 2}.
	f := mkFunc(
		[]int{int(KBr), 1},
		[]int{int(KCondBr), 1, 2},
		[]int{int(KRet)},
	)
	c := BuildCFG(f)
	if got := c.Preds[1]; len(got) != 2 || !slices.Contains(got, 0) || !slices.Contains(got, 1) {
		t.Fatalf("self loop: preds(1) = %v, want 0 and 1", got)
	}
	if got := c.Succs[1]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("self loop: succs(1) = %v", got)
	}
}
