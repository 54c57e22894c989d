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

// RejectError aborts a compile whose pipeline provably miscompiled or broke
// the strict SSA invariants. The GA classifies it as the tv-reject outcome,
// distinct from compiler crashes.
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
	// Reject makes a semantic Rejected verdict (a provable miscompile) abort
	// the compile with a RejectError. Off, the checker only records such
	// verdicts (`audit tv`). A strict SSA violation aborts either way: no
	// later pass, and no validation, can trust a broken function.
	Reject bool
}

// Checker is a lir.PassObserver: it snapshots the function before each pass
// and validates the result against the snapshot. One Checker serves one
// sequential compile; it is not safe for concurrent use.
type Checker struct {
	Opts     Options
	Verdicts []PassVerdict

	snap *lir.Function
}

// NewChecker returns a checker with the given options.
func NewChecker(opts Options) *Checker { return &Checker{Opts: opts} }

// BeforePass snapshots the function; the checker never vetoes.
func (c *Checker) BeforePass(a *lir.PassApplication) bool {
	c.snap = a.Fn.Clone()
	return true
}

// AfterPass strict-verifies the pass result, validates it against the
// snapshot and records the verdict. A strict violation is a Rejected verdict
// that always aborts the compile; a provable miscompile aborts it only under
// Opts.Reject. Applications that were vetoed or already failed are not
// checked.
func (c *Checker) AfterPass(a *lir.PassApplication) error {
	if !a.Ran || a.Err != nil {
		return nil
	}
	f, pass := a.Fn, a.Spec.Name
	verdict, reason := Rejected, ""
	strict := VerifyStrict(f)
	if strict != nil {
		reason = "strict: " + strict.Error()
	} else {
		verdict, reason = Validate(c.snap, f, a.Info.Traits)
	}
	c.Verdicts = append(c.Verdicts, PassVerdict{Fn: f.Name, Pass: pass, Verdict: verdict, Reason: reason})
	if verdict == Rejected && (strict != nil || c.Opts.Reject) {
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
