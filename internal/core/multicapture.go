// Multi-capture cross-validation: an extension along the paper's stated
// future-work axis (§3.2 captures "the state of the process" at one region
// entry; §6 discusses generalizing beyond the captured inputs). Interactive
// apps enter their hot region once per frame/move with evolving state, so
// one online run yields many candidate snapshots. Searching on one and
// cross-validating the winner on the others rejects binaries that merely
// memorized the searched input.

package core

import (
	"fmt"

	"replayopt/internal/capture"
	"replayopt/internal/dex"
	"replayopt/internal/machine"
	"replayopt/internal/obs"
	"replayopt/internal/replay"
	"replayopt/internal/verify"
)

// CaptureMulti captures up to n snapshots of the hot region at root, one per
// region entry, within a single online run of code. Entries postponed by an
// imminent GC are skipped (never forced — this is the low-priority online
// path), so fewer than n snapshots may come back; at least one is
// guaranteed or an error is returned.
func (o *Optimizer) CaptureMulti(app *App, code *machine.Program, root dex.MethodID, n int) ([]*capture.Snapshot, error) {
	if n < 1 {
		n = 1
	}
	snaps, _, err := o.captureRun(app, code, root, n, false)
	if err != nil {
		return nil, fmt.Errorf("core: multi-capture run: %w", err)
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("core: no capture succeeded for %s", app.Name)
	}
	return snaps, nil
}

// CrossValidation records how a candidate binary fared on snapshots it was
// not searched on.
type CrossValidation struct {
	// Checked counts the snapshots the binary was replayed against.
	Checked int
	// Passed counts verification successes.
	Passed int
	// Speedups holds the per-snapshot region speedup over the Android
	// baseline (only for passing snapshots).
	Speedups []float64
}

// AllPassed reports whether the binary verified on every snapshot.
func (cv *CrossValidation) AllPassed() bool { return cv.Checked > 0 && cv.Passed == cv.Checked }

// MinSpeedup is the worst observed cross-input speedup (0 if none passed).
func (cv *CrossValidation) MinSpeedup() float64 {
	if len(cv.Speedups) == 0 {
		return 0
	}
	min := cv.Speedups[0]
	for _, s := range cv.Speedups[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// CrossValidate replays a candidate image against extra snapshots: each
// snapshot gets its own interpreted-replay verification map, the candidate
// must verify on all of them, and its cycle counts are compared against the
// Android baseline's on the same snapshot.
func (o *Optimizer) CrossValidate(app *App, android, candidate *machine.Program,
	snaps []*capture.Snapshot) (*CrossValidation, error) {

	span := o.Opts.Obs.Start("crossvalidate", obs.A("app", app.Name), obs.A("snapshots", len(snaps)))
	cv := &CrossValidation{}
	defer func() { span.End(obs.A("checked", cv.Checked), obs.A("passed", cv.Passed)) }()
	for i, snap := range snaps {
		// Cross-validation is a belt-and-braces check on held-out inputs:
		// build the full conservative map (no effect-analysis shrink).
		vmap, _, err := verify.Build(o.Dev, o.Store, snap, app.Prog, nil)
		if err != nil {
			return nil, fmt.Errorf("core: cross-validate snapshot %d: %w", i, err)
		}
		base, err := replay.Run(o.Dev, o.Store, replay.Request{
			Snapshot: snap, Prog: app.Prog, Tier: replay.TierCompiled,
			Code: android, ASLRSeed: int64(1000 + i),
		})
		if err != nil {
			return nil, fmt.Errorf("core: cross-validate baseline replay %d: %w", i, err)
		}
		cv.Checked++
		res, err := replay.Run(o.Dev, o.Store, replay.Request{
			Snapshot: snap, Prog: app.Prog, Tier: replay.TierCompiled,
			Code: candidate, MaxCycles: base.Cycles * 12, ASLRSeed: int64(2000 + i),
		})
		if err != nil {
			continue // crash/timeout on this input: failed
		}
		if vmap.Check(res) != nil {
			continue // wrong output on this input: failed
		}
		cv.Passed++
		if res.Cycles > 0 {
			cv.Speedups = append(cv.Speedups, float64(base.Cycles)/float64(res.Cycles))
		}
	}
	return cv, nil
}

// OptimizeMulti runs the standard pipeline but captures extra snapshots and
// cross-validates the GA winner on the inputs it was not searched on. A
// winner that fails any held-out input is discarded and the baseline kept —
// the same "no negative impact" contract as Optimize, extended across
// inputs.
func (o *Optimizer) OptimizeMulti(app *App, extraCaptures int) (*Report, *CrossValidation, error) {
	rep, err := o.Optimize(app)
	if err != nil {
		return nil, nil, err
	}
	if rep.KeptBaseline {
		return rep, &CrossValidation{}, nil
	}
	snaps, err := o.CaptureMulti(app, rep.android, rep.Region.Root, extraCaptures)
	if err != nil {
		return nil, nil, err
	}
	cv, err := o.CrossValidate(app, rep.android, rep.installed, snaps)
	if err != nil {
		return nil, nil, err
	}
	if !cv.AllPassed() {
		// The winner memorized the searched input: keep the baseline.
		rep.KeptBaseline = true
		rep.GARegionMs = rep.AndroidRegionMs
		rep.RegionSpeedupGA = 1.0
		rep.SpeedupGA = 1.0
	}
	return rep, cv, nil
}
