package lir

import "fmt"

// VerifyIR checks structural SSA invariants; passes are tested against it,
// and tv.VerifyStrict builds on it to check every pass application under a
// tv.Checker (whose strict violations always abort the compile). Beyond
// the basic shape checks (block/phi/terminator structure, edge symmetry,
// unique IDs) it enforces the SSA dominance discipline: every use must be
// dominated by its definition — in straight-line code that means defined
// earlier in the same block — and a phi argument must be available at the end
// of the corresponding predecessor. Returns the first violation found.
func VerifyIR(f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("lir-verify: %s has no blocks", f.Name)
	}
	inFunc := map[*Block]bool{}
	for _, b := range f.Blocks {
		if inFunc[b] {
			return fmt.Errorf("lir-verify: block b%d listed twice", b.ID)
		}
		inFunc[b] = true
	}
	defined := map[*Value]*Block{}
	for _, b := range f.Blocks {
		for _, p := range b.Phis {
			if p.Op != OpPhi {
				return fmt.Errorf("lir-verify: non-phi %s in b%d's phi list", p.Op, b.ID)
			}
			if len(p.Args) != len(b.Preds) {
				return fmt.Errorf("lir-verify: phi v%d in b%d has %d args for %d preds",
					p.ID, b.ID, len(p.Args), len(b.Preds))
			}
			if prev, dup := defined[p]; dup {
				return fmt.Errorf("lir-verify: value v%d defined in b%d and b%d", p.ID, prev.ID, b.ID)
			}
			defined[p] = b
		}
		for i, v := range b.Insns {
			if v.Op == OpPhi {
				return fmt.Errorf("lir-verify: phi v%d in b%d's instruction list", v.ID, b.ID)
			}
			if prev, dup := defined[v]; dup {
				return fmt.Errorf("lir-verify: value v%d defined in b%d and b%d", v.ID, prev.ID, b.ID)
			}
			defined[v] = b
			if v.IsTerminator() && i != len(b.Insns)-1 {
				return fmt.Errorf("lir-verify: terminator %s mid-block in b%d", v.Op, b.ID)
			}
		}
		t := b.Term()
		if t == nil {
			return fmt.Errorf("lir-verify: b%d has no terminator", b.ID)
		}
		switch t.Op {
		case OpBranch:
			if len(b.Succs) != 2 {
				return fmt.Errorf("lir-verify: branch block b%d has %d succs", b.ID, len(b.Succs))
			}
		case OpJump:
			if len(b.Succs) != 1 {
				return fmt.Errorf("lir-verify: jump block b%d has %d succs", b.ID, len(b.Succs))
			}
		case OpReturn, OpThrow:
			if len(b.Succs) != 0 {
				return fmt.Errorf("lir-verify: exit block b%d has %d succs", b.ID, len(b.Succs))
			}
		}
	}
	// Edge symmetry, in both directions: each b->s successor entry needs a
	// matching s.Preds entry and each pred entry a matching successor entry
	// (a dangling Preds entry corrupts phi indexing even when every Succs
	// entry checks out).
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !inFunc[s] {
				return fmt.Errorf("lir-verify: b%d's successor b%d is not in the function", b.ID, s.ID)
			}
			found := 0
			for _, p := range s.Preds {
				if p == b {
					found++
				}
			}
			want := 0
			for _, s2 := range b.Succs {
				if s2 == s {
					want++
				}
			}
			if found != want {
				return fmt.Errorf("lir-verify: edge b%d->b%d: %d pred entries for %d succ entries",
					b.ID, s.ID, found, want)
			}
		}
		for _, p := range b.Preds {
			if !inFunc[p] {
				return fmt.Errorf("lir-verify: b%d's predecessor b%d is not in the function", b.ID, p.ID)
			}
			found := 0
			for _, s := range p.Succs {
				if s == b {
					found++
				}
			}
			want := 0
			for _, p2 := range b.Preds {
				if p2 == p {
					want++
				}
			}
			if found != want {
				return fmt.Errorf("lir-verify: edge b%d->b%d: %d succ entries for %d pred entries",
					p.ID, b.ID, found, want)
			}
		}
	}
	// Every argument must be defined somewhere in the function.
	ids := map[int]*Value{}
	check := func(v *Value, user string) error {
		for _, a := range v.Args {
			if a == nil {
				return fmt.Errorf("lir-verify: nil argument in %s", user)
			}
			if _, ok := defined[a]; !ok {
				return fmt.Errorf("lir-verify: %s uses v%d (%s) which is not defined in the function",
					user, a.ID, a.Op)
			}
		}
		if prev, dup := ids[v.ID]; dup && prev != v {
			return fmt.Errorf("lir-verify: two distinct values share ID v%d (%s and %s)",
				v.ID, prev.Op, v.Op)
		}
		ids[v.ID] = v
		return nil
	}
	for _, b := range f.Blocks {
		for _, p := range b.Phis {
			if err := check(p, fmt.Sprintf("phi v%d in b%d", p.ID, b.ID)); err != nil {
				return err
			}
		}
		for _, v := range b.Insns {
			if err := check(v, fmt.Sprintf("v%d (%s) in b%d", v.ID, v.Op, b.ID)); err != nil {
				return err
			}
		}
	}
	return verifyDominance(f, defined)
}

// domInfo is a non-mutating dominator computation over the current CFG. The
// verifier cannot call Recompute — that would prune unreachable blocks and
// reorder Blocks, destroying the evidence it is asked to judge — so it
// rebuilds reachability and immediate dominators in side tables.
type domInfo struct {
	reach map[*Block]bool
	idom  map[*Block]*Block
	rpo   map[*Block]int
}

// dominatorsOf computes reachability from the entry and immediate dominators
// (Cooper-Harvey-Kennedy over a local reverse postorder) without touching
// any Block field.
func dominatorsOf(f *Function) *domInfo {
	d := &domInfo{reach: map[*Block]bool{}, idom: map[*Block]*Block{}, rpo: map[*Block]int{}}
	if len(f.Blocks) == 0 {
		return d
	}
	entry := f.Blocks[0]
	var post []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		if d.reach[b] {
			return
		}
		d.reach[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(entry)
	order := make([]*Block, len(post))
	for i := range post {
		order[i] = post[len(post)-1-i]
	}
	for i, b := range order {
		d.rpo[b] = i
	}
	d.idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			var nd *Block
			for _, p := range b.Preds {
				if d.idom[p] == nil {
					continue
				}
				if nd == nil {
					nd = p
				} else {
					nd = d.intersect(p, nd)
				}
			}
			if nd != nil && d.idom[b] != nd {
				d.idom[b] = nd
				changed = true
			}
		}
	}
	d.idom[entry] = nil
	return d
}

func (d *domInfo) intersect(a, b *Block) *Block {
	for a != b {
		for d.rpo[a] > d.rpo[b] {
			if d.idom[a] == nil {
				return b
			}
			a = d.idom[a]
		}
		for d.rpo[b] > d.rpo[a] {
			if d.idom[b] == nil {
				return a
			}
			b = d.idom[b]
		}
	}
	return a
}

// dominates reports whether a dominates b (both must be reachable).
func (d *domInfo) dominates(a, b *Block) bool {
	for x := b; x != nil; x = d.idom[x] {
		if x == a {
			return true
		}
	}
	return false
}

// verifyDominance enforces def-before-use in dominance order: an instruction
// argument must be a phi of the same block, an earlier instruction of the
// same block, or a definition in a strictly dominating block; a phi argument
// must be available at the end of the corresponding predecessor. Unreachable
// blocks are exempt (Recompute deletes them wholesale), but a reachable use
// of an unreachably-defined value is a violation.
func verifyDominance(f *Function, defined map[*Value]*Block) error {
	d := dominatorsOf(f)
	pos := map[*Value]int{} // instruction index within its block
	for _, b := range f.Blocks {
		for i, v := range b.Insns {
			pos[v] = i
		}
	}
	available := func(a *Value, atEndOf *Block) bool {
		da := defined[a]
		if !d.reach[da] {
			return false
		}
		return da == atEndOf || d.dominates(da, atEndOf)
	}
	for _, b := range f.Blocks {
		if !d.reach[b] {
			continue
		}
		for _, p := range b.Phis {
			for i, a := range p.Args {
				pred := b.Preds[i]
				if !d.reach[pred] {
					continue
				}
				if !available(a, pred) {
					return fmt.Errorf("lir-verify: phi v%d in b%d: arg v%d (%s) does not dominate predecessor b%d",
						p.ID, b.ID, a.ID, a.Op, pred.ID)
				}
			}
		}
		for i, v := range b.Insns {
			for _, a := range v.Args {
				da := defined[a]
				switch {
				case da == b:
					if a.Op != OpPhi && pos[a] >= i {
						return fmt.Errorf("lir-verify: v%d (%s) in b%d uses v%d (%s) defined later in the block",
							v.ID, v.Op, b.ID, a.ID, a.Op)
					}
				case !d.reach[da]:
					return fmt.Errorf("lir-verify: v%d (%s) in b%d uses v%d defined in unreachable b%d",
						v.ID, v.Op, b.ID, a.ID, da.ID)
				case !d.dominates(da, b):
					return fmt.Errorf("lir-verify: v%d (%s) in b%d uses v%d defined in non-dominating b%d",
						v.ID, v.Op, b.ID, a.ID, da.ID)
				}
			}
		}
	}
	return nil
}
