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
	c.snap = f.Clone()
}

// AfterPass strict-verifies the pass result (a violation is a Rejected
// verdict attributed to the pass), validates it against the snapshot, records
// the verdict, and (with Opts.Reject) vetoes provable miscompiles.
func (c *Checker) AfterPass(f *lir.Function, pass string, info *lir.PassInfo) error {
	verdict, reason := Verified, ""
	if err := VerifyStrict(f); err != nil {
		verdict, reason = Rejected, "strict: "+err.Error()
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
