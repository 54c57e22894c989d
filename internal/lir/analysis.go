package lir

// Analyses over the SSA CFG: reverse postorder, dominators, and the loop
// forest. Recompute builds all three in one go and caches them on the
// function (Block.rpo, Block.IDom, Block.LoopDepth, Function.loops); nothing
// refreshes them implicitly. A pass that edits the CFG must call Recompute
// before it next queries dominators, loop depths, or Loops. Edits that only
// add, remove, or rewrite values inside blocks leave the analyses valid.

// Recompute reorders Blocks in reverse postorder, drops unreachable blocks
// (fixing phi inputs), and rebuilds dominators, the loop forest, and loop
// depths.
func (f *Function) Recompute() {
	f.pruneUnreachable()
	f.computeDominators()
	f.loops = f.findLoops()
	f.computeLoopDepths()
}

func (f *Function) pruneUnreachable() {
	if len(f.Blocks) == 0 {
		return
	}
	// Every block a pass creates lands in f.Blocks, so clearing the scratch
	// marks here lets the DFS avoid a per-Recompute visited map.
	for _, b := range f.Blocks {
		b.visited = false
	}
	post := make([]*Block, 0, len(f.Blocks))
	var dfs func(*Block)
	dfs = func(b *Block) {
		if b.visited {
			return
		}
		b.visited = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.Blocks[0])
	// Remove edges from unreachable predecessors.
	for _, b := range post {
		kept := b.Preds[:0]
		removed := make([]int, 0, 2)
		for i, p := range b.Preds {
			if p.visited {
				kept = append(kept, p)
			} else {
				removed = append(removed, i)
			}
		}
		if len(removed) > 0 {
			for _, phi := range b.Phis {
				args := phi.Args[:0]
				for i, a := range phi.Args {
					drop := false
					for _, r := range removed {
						if i == r {
							drop = true
							break
						}
					}
					if !drop {
						args = append(args, a)
					}
				}
				phi.Args = args
			}
		}
		b.Preds = kept
	}
	ordered := make([]*Block, len(post))
	for i := range post {
		ordered[i] = post[len(post)-1-i]
	}
	f.Blocks = ordered
	for i, b := range f.Blocks {
		b.rpo = i
	}
}

func (f *Function) computeDominators() {
	if len(f.Blocks) == 0 {
		return
	}
	entry := f.Blocks[0]
	for _, b := range f.Blocks {
		b.IDom = nil
	}
	entry.IDom = entry
	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks[1:] {
			var nd *Block
			for _, p := range b.Preds {
				if p.IDom == nil {
					continue
				}
				if nd == nil {
					nd = p
				} else {
					nd = intersectDom(p, nd)
				}
			}
			if nd != nil && b.IDom != nd {
				b.IDom = nd
				changed = true
			}
		}
	}
	entry.IDom = nil
}

func intersectDom(a, b *Block) *Block {
	for a != b {
		for a.rpo > b.rpo {
			if a.IDom == nil {
				return b
			}
			a = a.IDom
		}
		for b.rpo > a.rpo {
			if b.IDom == nil {
				return a
			}
			b = b.IDom
		}
	}
	return a
}

// Dominates reports whether a dominates b.
func (f *Function) Dominates(a, b *Block) bool {
	for x := b; x != nil; x = x.IDom {
		if x == a {
			return true
		}
	}
	return false
}

// Loop is a natural loop in the SSA CFG.
type Loop struct {
	Head   *Block
	Blocks map[*Block]bool
	Depth  int
	Parent *Loop
}

// Latches returns the in-loop predecessors of the head (back-edge sources).
func (l *Loop) Latches() []*Block {
	var out []*Block
	for _, p := range l.Head.Preds {
		if l.Blocks[p] {
			out = append(out, p)
		}
	}
	return out
}

// Loops returns the natural-loop forest built by the last Recompute; CFG
// edits made since then are not reflected. The slice is the caller's to
// reorder, but the Loops themselves are shared and must not be modified.
func (f *Function) Loops() []*Loop {
	return append([]*Loop(nil), f.loops...)
}

// findLoops detects natural loops from the current dominators.
func (f *Function) findLoops() []*Loop {
	byHead := map[*Block]*Loop{}
	var loops []*Loop
	for _, tail := range f.Blocks {
		for _, head := range tail.Succs {
			// A dominator precedes what it dominates in RPO, so only an
			// edge that does not go forward can be a back edge.
			if head.rpo > tail.rpo || !f.Dominates(head, tail) {
				continue
			}
			l := byHead[head]
			if l == nil {
				l = &Loop{Head: head, Blocks: map[*Block]bool{head: true}}
				byHead[head] = l
				loops = append(loops, l)
			}
			var stack []*Block
			if !l.Blocks[tail] {
				l.Blocks[tail] = true
				stack = append(stack, tail)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if !l.Blocks[p] {
						l.Blocks[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	for _, l := range loops {
		for _, outer := range loops {
			if outer == l || !outer.Blocks[l.Head] {
				continue
			}
			if l.Parent == nil || len(outer.Blocks) < len(l.Parent.Blocks) {
				l.Parent = outer
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}

func (f *Function) computeLoopDepths() {
	for _, b := range f.Blocks {
		b.LoopDepth = 0
	}
	for _, l := range f.loops {
		for b := range l.Blocks {
			if l.Depth > b.LoopDepth {
				b.LoopDepth = l.Depth
			}
		}
	}
}

// domChildren builds the dominator tree's child lists.
func (f *Function) domChildren() map[*Block][]*Block {
	kids := map[*Block][]*Block{}
	for _, b := range f.Blocks[1:] {
		if b.IDom != nil {
			kids[b.IDom] = append(kids[b.IDom], b)
		}
	}
	return kids
}

// dominanceFrontiers computes DF per block (Cooper-Harvey-Kennedy).
func (f *Function) dominanceFrontiers() map[*Block]map[*Block]bool {
	df := map[*Block]map[*Block]bool{}
	for _, b := range f.Blocks {
		df[b] = map[*Block]bool{}
	}
	for _, b := range f.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			runner := p
			for runner != nil && runner != b.IDom {
				df[runner][b] = true
				if runner.IDom == runner {
					break
				}
				runner = runner.IDom
			}
		}
	}
	return df
}
