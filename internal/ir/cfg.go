// CFG analysis over a Func's basic blocks: successor/predecessor edges
// and reverse postorder. The optimizer's cross-block redundant-check
// elimination is built on this; the paper gets the same effect by
// re-running LLVM's optimizer after instrumentation (§6.1).
//
// A CFG is a snapshot: any pass that edits terminators or adds blocks
// must rebuild it before relying on it again.
package ir

// CFG is the control-flow graph of one function.
type CFG struct {
	// Succs/Preds are per-block edge lists (block indices). Predecessor
	// lists include only edges from reachable blocks.
	Succs [][]int
	Preds [][]int
	// RPO lists the reachable blocks in reverse postorder (entry first).
	RPO []int
}

// successors returns the blocks a block's terminator can branch to. A
// block without a terminator (or ending in KRet/KUnreachable) has none.
func successors(b *Block) []int {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Kind {
	case KBr:
		return []int{t.Target}
	case KCondBr:
		if t.Target == t.Else {
			return []int{t.Target}
		}
		return []int{t.Target, t.Else}
	}
	return nil
}

// BuildCFG computes edges, reverse postorder and predecessors for f.
// Block 0 is the entry. Functions with no blocks yield an empty CFG.
func BuildCFG(f *Func) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		Succs: make([][]int, n),
		Preds: make([][]int, n),
	}
	if n == 0 {
		return c
	}
	for i, b := range f.Blocks {
		c.Succs[i] = successors(b)
	}

	// Iterative postorder DFS from the entry; reachability falls out.
	type dfsFrame struct{ block, next int }
	visited := make([]bool, n)
	var post []int
	stack := []dfsFrame{{0, 0}}
	visited[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(c.Succs[top.block]) {
			s := c.Succs[top.block][top.next]
			top.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, dfsFrame{s, 0})
			}
			continue
		}
		post = append(post, top.block)
		stack = stack[:len(stack)-1]
	}
	c.RPO = make([]int, len(post))
	for i, b := range post {
		c.RPO[len(post)-1-i] = b
	}

	// Predecessors, from reachable blocks only.
	for _, b := range c.RPO {
		for _, s := range c.Succs[b] {
			c.Preds[s] = append(c.Preds[s], b)
		}
	}
	return c
}
