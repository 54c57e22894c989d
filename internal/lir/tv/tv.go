// Package tv is a translation-validation layer over the lir pass pipeline
// (§2, Fig. 1). It snapshots each function before a pass runs and afterwards
// tries to prove the pass preserved behavior; a proof failure is recorded —
// and optionally turned into an early compile rejection — *before* the
// expensive interpreted-replay evaluation the paper uses as ground truth
// (§3.4). The validator is deliberately one-sided: Rejected is only returned
// for provable miscompiles (or strict SSA violations), never for
// transformations it merely cannot follow, which become Unverified.
package tv

import (
	"fmt"

	"replayopt/internal/lir"
)

// Verdict classifies one pass application.
type Verdict uint8

// Verdicts.
const (
	// Verified: the pass provably preserved behavior.
	Verified Verdict = iota
	// Unverified: the validator could not follow the transformation. Not a
	// defect claim — CFG-restructuring passes routinely land here.
	Unverified
	// Rejected: the pass provably changed observable behavior, or broke the
	// strict SSA invariants. The candidate is a miscompile.
	Rejected
)

func (v Verdict) String() string {
	switch v {
	case Verified:
		return "verified"
	case Unverified:
		return "unverified"
	case Rejected:
		return "rejected"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// RejectError aborts a compile whose pipeline provably miscompiled. The GA
// classifies it as the tv-reject outcome, distinct from compiler crashes.
type RejectError struct {
	Pass   string
	Fn     string
	Reason string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("tv: pass %s rejected on %s: %s", e.Pass, e.Fn, e.Reason)
}

// PassVerdict is one recorded pass application.
type PassVerdict struct {
	Fn      string
	Pass    string
	Verdict Verdict
	Reason  string
}

// Options configure a Checker.
type Options struct {
	// Reject makes a Rejected verdict abort the compile with a RejectError.
	// Off, the checker only records verdicts (`audit tv`).
	Reject bool
	// Strict additionally runs VerifyStrict after every pass; a violation is
	// a Rejected verdict attributed to that pass.
	Strict bool
}

// Checker implements lir.PipelineCheck: it snapshots the function before each
// pass and validates the result against the snapshot. One Checker serves one
// sequential compile; it is not safe for concurrent use.
type Checker struct {
	Opts     Options
	Verdicts []PassVerdict

	snap *lir.Function
}

// NewChecker returns a checker with the given options.
func NewChecker(opts Options) *Checker { return &Checker{Opts: opts} }

// BeforePass snapshots the function.
func (c *Checker) BeforePass(f *lir.Function, pass string, info *lir.PassInfo) {
	c.snap = Clone(f)
}

// AfterPass validates the pass result against the snapshot, records the
// verdict, and (with Opts.Reject) vetoes provable miscompiles.
func (c *Checker) AfterPass(f *lir.Function, pass string, info *lir.PassInfo) error {
	verdict, reason := Verified, ""
	if c.Opts.Strict {
		if err := VerifyStrict(f); err != nil {
			verdict, reason = Rejected, "strict: "+err.Error()
		}
	}
	if verdict != Rejected && c.snap != nil {
		var traits lir.Traits
		if info != nil {
			traits = info.Traits
		}
		verdict, reason = Validate(c.snap, f, traits)
	}
	c.Verdicts = append(c.Verdicts, PassVerdict{Fn: f.Name, Pass: pass, Verdict: verdict, Reason: reason})
	c.snap = nil
	if c.Opts.Reject && verdict == Rejected {
		return &RejectError{Pass: pass, Fn: f.Name, Reason: reason}
	}
	return nil
}

// Counts tallies verdicts by kind.
func (c *Checker) Counts() (verified, unverified, rejected int) {
	for _, pv := range c.Verdicts {
		switch pv.Verdict {
		case Verified:
			verified++
		case Unverified:
			unverified++
		case Rejected:
			rejected++
		}
	}
	return
}

// Clone deep-copies a function: fresh Blocks and Values with the same IDs,
// ops, types, and wiring, sharing only the immutable Prog. Analysis caches
// (IDom, LoopDepth) are not copied; the validator computes its own dominators.
func Clone(f *lir.Function) *lir.Function {
	bmap := make(map[*lir.Block]*lir.Block, len(f.Blocks))
	vmap := map[*lir.Value]*lir.Value{}
	out := &lir.Function{Prog: f.Prog, Method: f.Method, Name: f.Name}
	for _, b := range f.Blocks {
		bmap[b] = &lir.Block{ID: b.ID}
	}
	cloneVal := func(v *lir.Value, nb *lir.Block) *lir.Value {
		nv := &lir.Value{
			ID: v.ID, Op: v.Op, Type: v.Type, Block: nb,
			Imm: v.Imm, F: v.F, Sym: v.Sym, Slot: v.Slot, Cond: v.Cond, Hint: v.Hint,
			NoTrap: v.NoTrap,
		}
		vmap[v] = nv
		return nv
	}
	for _, b := range f.Blocks {
		nb := bmap[b]
		for _, p := range b.Phis {
			nb.Phis = append(nb.Phis, cloneVal(p, nb))
		}
		for _, v := range b.Insns {
			nb.Insns = append(nb.Insns, cloneVal(v, nb))
		}
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, bmap[s])
		}
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, bmap[p])
		}
		out.Blocks = append(out.Blocks, nb)
	}
	// Second pass: rewire arguments through the value map. An argument whose
	// definition is outside every block (malformed IR) keeps the original
	// pointer; VerifyIR reports that separately.
	fix := func(v *lir.Value) {
		if len(v.Args) == 0 {
			return
		}
		args := make([]*lir.Value, len(v.Args))
		for i, a := range v.Args {
			if na, ok := vmap[a]; ok {
				args[i] = na
			} else {
				args[i] = a
			}
		}
		vmap[v].Args = args
	}
	for _, b := range f.Blocks {
		for _, p := range b.Phis {
			fix(p)
		}
		for _, v := range b.Insns {
			fix(v)
		}
	}
	return out
}
