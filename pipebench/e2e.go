package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"replayopt/internal/capture"
	"replayopt/internal/core"
	"replayopt/internal/replay"
	"replayopt/internal/stats"
)

// minPauseSamples is how many captures capture_pause_ms_mean averages at
// least: workloads with few apps take extra captures after the timed passes.
const minPauseSamples = 48

// minPasses is the fewest timed passes a run makes, so that the median
// outlasts one pass slowed by a burst of load on a shared machine.
const minPasses = 3

// runEndToEnd is the untraced run: set-up, then whole passes over the
// workload's operations, each checked against its references after its
// timed interval. The first pass calibrates how many passes fill the time
// budget, minPasses at least; wall and CPU time are the medians over passes.
func runEndToEnd(c config) (result, error) {
	as, opt, err := setup(c)
	if err != nil {
		return result{}, err
	}
	setupTimes, err := setupSamples(c, c.setupSamples)
	if err != nil {
		return result{}, err
	}
	var chk checks
	v := newVerifier(c, as)
	var walls, cpus []float64
	var last passOutput
	for pass, passes := 0, 1; pass < passes; pass++ {
		if pass > 0 {
			last = passOutput{} // let the previous pass's state be collected
			opt = c.optimizers(len(as))
		}
		runtime.GC() // every pass starts from the same heap
		u0, t0 := readUsage(), time.Now()
		out := runPass(c, as, opt, filepath.Join(c.outDir, "intake.castore"))
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (readUsage().cpu - u0.cpu).Seconds())
		v.check(&chk, out)
		last = out
		if pass == 0 {
			passes = max(minPasses, int(math.Round(c.seconds/walls[0])))
		}
		// Set-up is sampled between passes too, so its median spans the
		// run rather than one moment of a shared machine.
		more, err := setupSamples(c, max(c.setupSamples/2, 1))
		if err != nil {
			return result{}, err
		}
		setupTimes = append(setupTimes, more...)
	}
	// Read before the extra captures below, which hold every app's state.
	peakMB := float64(readUsage().maxRSSK) / 1024

	more, err := setupSamples(c, c.setupSamples)
	if err != nil {
		return result{}, err
	}
	m := metrics{}
	m.set("setup_s", stats.Median(append(setupTimes, more...)))
	m.set("wall_s", stats.Median(walls))
	m.set("cpu_s", stats.Median(cpus))
	m.set("peak_mem_mb", peakMB)
	speedup, region := last.speedups()
	m.set("speedup_ga_geomean", speedup)
	m.set("region_speedup_ga_geomean", region)
	storeMB, err := last.storeMB(c, filepath.Join(c.outDir, "search.castore"))
	if err != nil {
		chk.record(false, "persisting the search stores: %v", err)
	}
	m.set("store_mb", storeMB)
	m.set("capture_pause_ms_mean", last.capturePauseMs(v))
	m.set("correct_ratio", ratio(float64(chk.attempted-chk.failed), float64(chk.attempted)))
	return chk.result(m), nil
}

// passOutput is what one pass over the workload produced.
type passOutput struct {
	apps []*core.App
	opt  []*core.Optimizer
	// search workloads: one report (or error) per app.
	reports []*core.Report
	errs    []error
	// intake: the prepared apps, the store's save accounting and, per app,
	// the cycles of the cold replay from the reloaded store.
	prepared     []*core.Prepared
	save         capture.SaveStats
	loadedCycles []uint64
}

// runPass is one timed pass over the workload's operations.
func runPass(c config, as []*core.App, opt []*core.Optimizer, storePath string) passOutput {
	out := passOutput{apps: as, opt: opt, errs: make([]error, len(as))}
	switch c.w.kind {
	case kindSearch:
		out.reports = make([]*core.Report, len(as))
		for i, app := range as {
			out.reports[i], out.errs[i] = opt[i].Optimize(app)
		}
	case kindIntake:
		o := opt[0]
		out.prepared = make([]*core.Prepared, len(as))
		for i, app := range as {
			out.prepared[i], out.errs[i] = o.Prepare(app)
		}
		os.Remove(storePath)
		st, err := o.PersistStore(storePath)
		out.save = st
		loaded := c.newOptimizer()
		if err == nil {
			_, err = loaded.LoadStore(storePath)
		}
		out.loadedCycles = make([]uint64, len(as))
		for i, app := range as {
			if out.errs[i] != nil {
				continue
			}
			if err != nil {
				out.errs[i] = err
				continue
			}
			out.loadedCycles[i], out.errs[i] = loadedReplay(loaded, app, out.prepared[i])
		}
	}
	return out
}

// loadedReplay replays p's capture cold from the store o loaded, under the
// baseline image, and returns its cycle count.
func loadedReplay(o *core.Optimizer, app *core.App, p *core.Prepared) (uint64, error) {
	for _, snap := range o.Store.Snapshots {
		if snap.App != app.Name || snap.Root != p.Snapshot.Root {
			continue
		}
		res, err := replay.Run(o.Dev, o.Store, replay.Request{
			Snapshot: snap, Prog: app.Prog, Tier: replay.TierCompiled, Code: p.Android, ASLRSeed: 1,
		})
		if err != nil {
			return 0, fmt.Errorf("replay of %s from the loaded store: %w", app.Name, err)
		}
		return res.Cycles, nil
	}
	return 0, fmt.Errorf("loaded store has no capture of %s", app.Name)
}

func (p passOutput) speedups() (ga, region float64) {
	if p.reports == nil {
		// Intake installs nothing: the device keeps the baseline binary.
		return 1, 1
	}
	var gs, rs []float64
	for _, rep := range p.reports {
		if rep != nil && rep.SpeedupGA > 0 && rep.RegionSpeedupGA > 0 {
			gs = append(gs, rep.SpeedupGA)
			rs = append(rs, rep.RegionSpeedupGA)
		}
	}
	return geomean(gs), geomean(rs)
}

// capturePauseMs is the mean modelled online pause of the pass's captures.
// When the workload has fewer than minPauseSamples apps, each app's hot
// region is then captured at further entries, by the optimizer and on the
// device that captured it in the pass, under the baseline image. Those
// captures are discarded again.
func (p passOutput) capturePauseMs(v *verifier) float64 {
	var ms []float64
	for _, rep := range p.reports {
		if rep != nil {
			ms = append(ms, rep.Capture.TotalMs())
		}
	}
	for _, pr := range p.prepared {
		if pr != nil {
			ms = append(ms, pr.Snapshot.Stats.TotalMs())
		}
	}
	extra := minPauseSamples / len(p.apps)
	for i := 0; extra > 0 && i < len(p.apps); i++ {
		o, pr := p.opt[0], p.prepared
		if p.reports != nil {
			o, pr = p.opt[i], v.prepared
		}
		if pr[i] == nil {
			continue
		}
		snaps, err := o.CaptureMulti(p.apps[i], pr[i].Android, pr[i].Region.Root, extra)
		if err != nil {
			noteNoCapture(err)
			continue
		}
		for _, s := range snaps {
			ms = append(ms, s.Stats.TotalMs())
			o.Store.Discard(s)
		}
	}
	return stats.Mean(ms)
}

// noteNoCapture reports a CaptureMulti error. CaptureMulti is the low-priority
// capture path: it never forces a collection, so an app whose every region
// entry finds a collection imminent, Dhrystone for one, yields no capture.
// That is its documented outcome, not a failed check.
func noteNoCapture(err error) {
	fmt.Fprintf(os.Stderr, "pipebench: note: %v\n", err)
}

// storeMB is the persisted castore size in megabytes (10^6 bytes). Intake
// persisted its store inside the timed pass; a search pass's optimizers are
// persisted into one store here, after it.
func (p passOutput) storeMB(c config, path string) (float64, error) {
	if p.reports == nil {
		return float64(p.save.AppendedBytes) / 1e6, nil
	}
	os.Remove(path)
	var total int64
	for _, o := range p.opt {
		st, err := o.PersistStore(path)
		if err != nil {
			return 0, err
		}
		total += st.AppendedBytes
	}
	return float64(total) / 1e6, nil
}

// verifier holds one run's references: each app's interpreted output and,
// for searches, a Prepared to rebuild installed images from.
type verifier struct {
	c        config
	refs     []output
	prepared []*core.Prepared
	prepErrs []error
}

func newVerifier(c config, as []*core.App) *verifier {
	v := &verifier{c: c}
	if c.w.kind != kindSearch {
		return v
	}
	for _, app := range as {
		v.refs = append(v.refs, referenceOutput(app, c.wrongRef))
		p, err := c.newOptimizer().Prepare(app)
		v.prepared = append(v.prepared, p)
		v.prepErrs = append(v.prepErrs, err)
	}
	return v
}

// check records one check per app of the pass: for searches, the installed
// binary's whole-program output against the interpreter; for intake, each
// cold replay from the reloaded store against the cycles measured before
// the store was persisted.
func (v *verifier) check(chk *checks, out passOutput) {
	for i, app := range out.apps {
		if err := out.errs[i]; err != nil {
			chk.record(false, "%s: %v", app.Name, err)
			continue
		}
		switch v.c.w.kind {
		case kindSearch:
			ok, msg := v.installedMatches(i, app, out.reports[i])
			chk.record(ok, "%s", msg)
		case kindIntake:
			want := out.prepared[i].AndroidCycles
			if v.c.wrongRef {
				want++
			}
			got := out.loadedCycles[i]
			chk.record(got == want, "%s: loaded-store replay took %d cycles, %d before persisting",
				app.Name, got, want)
		}
	}
}

// installedMatches compares the installed binary's whole-program output
// with the interpreter's and describes a mismatch.
func (v *verifier) installedMatches(i int, app *core.App, rep *core.Report) (bool, string) {
	if v.prepErrs[i] != nil {
		return false, fmt.Sprintf("%s: preparing the reference: %v", app.Name, v.prepErrs[i])
	}
	code, err := installedImage(v.prepared[i], rep)
	if err != nil {
		return false, fmt.Sprintf("%s: rebuilding the installed image: %v", app.Name, err)
	}
	got, want := compiledOutput(app, code), v.refs[i]
	return got.equal(want), fmt.Sprintf("%s: installed binary gave %v, interpreter %v", app.Name, got, want)
}
