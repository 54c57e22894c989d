package main

import (
	"fmt"
	"slices"
	"time"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/device"
	"replayopt/internal/interp"
	"replayopt/internal/machine"
	"replayopt/internal/rt"
)

// gaParallelism pins the GA worker pool so runs on machines with different
// core counts do the same work.
const gaParallelism = 2

// maxProgramCycles bounds a whole-program run, as the pipeline's own online
// runs do.
const maxProgramCycles = 50_000_000_000

type kind int

const (
	// kindSearch: core.Optimize on each app — profile, capture, verify, the
	// GA search at the §4 budget, the winner's rewrite trace, install and
	// the whole-program online runs.
	kindSearch kind = iota
	// kindIntake: Prepare every app, persist all captures into one castore
	// file, load it into a fresh optimizer and replay each capture cold.
	kindIntake
)

type workload struct {
	name string
	kind kind
	apps []string
}

// workloads are the benchmark's workloads. README.md records why each was
// chosen, with the layer split measured when they were picked.
var workloads = []workload{
	{name: "search-compile", kind: kindSearch, apps: []string{"FFT", "Fibonacci.recv"}},
	{name: "search-exec", kind: kindSearch, apps: []string{"MaterialLife"}},
	{name: "capture-intake", kind: kindIntake, apps: tableOneApps()},
}

// tableOneApps names every evaluation app of the paper's Table 1.
func tableOneApps() []string {
	var names []string
	for _, s := range apps.All() {
		names = append(names, s.Name)
	}
	return names
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return workload{}, false
	}
	return workloads[i], true
}

// config is one benchmark run.
type config struct {
	w       workload
	seed    int64
	seconds float64
	// opts are the pipeline options: core.DefaultOptions (the §4 budget and
	// the pipeline's own seed) with the GA pool pinned.
	opts core.Options
	// setupSamples is how many set-up samples are taken before the passes
	// and again after them, with half as many after each pass; setup_s is
	// the median of all of them.
	setupSamples int
	// outDir receives castore files and span traces; root is the
	// repository root, for provenance.
	outDir, root string
	// wrongRef corrupts every reference before it is compared: the smoke
	// test's proof that a wrong output is counted as failed.
	wrongRef bool
}

func defaultConfig(w workload, seed int64, seconds float64) config {
	opts := core.DefaultOptions()
	opts.GA.Parallelism = gaParallelism
	return config{w: w, seed: seed, seconds: seconds, opts: opts, setupSamples: 5}
}

// newOptimizer builds an optimizer on a device seeded from the benchmark
// seed. The device's noise model drives the modelled capture pauses and
// replay clocks; the search's decisions depend on Options.Seed only.
func (c config) newOptimizer() *core.Optimizer {
	o := core.New(c.opts)
	o.Dev = device.New(c.seed)
	return o
}

// optimizers returns fresh optimizers for one pass over the workload: one
// per app for searches, one shared by every app for intake (its captures
// persist into one store).
func (c config) optimizers(n int) []*core.Optimizer {
	if c.w.kind == kindIntake {
		return []*core.Optimizer{c.newOptimizer()}
	}
	out := make([]*core.Optimizer, n)
	for i := range out {
		out[i] = c.newOptimizer()
	}
	return out
}

// setup builds the workload's apps (minic source to dex) and constructs its
// optimizers.
func setup(c config) ([]*core.App, []*core.Optimizer, error) {
	var as []*core.App
	for _, name := range c.w.apps {
		spec, ok := apps.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown app %q", name)
		}
		app, err := apps.Build(spec)
		if err != nil {
			return nil, nil, err
		}
		as = append(as, app)
	}
	return as, c.optimizers(len(as)), nil
}

// setupSampleMin is the least time one set-up sample spans. A sample repeats
// set-up back to back and reports the mean time of one, so that it blends
// the fast and slow phases, tens of milliseconds long, that a shared machine
// goes through.
const setupSampleMin = 100 * time.Millisecond

// setupSamples times set-up n times, one sample each.
func setupSamples(c config, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		reps, t0 := 0, time.Now()
		for reps == 0 || time.Since(t0) < setupSampleMin {
			if _, _, err := setup(c); err != nil {
				return nil, err
			}
			reps++
		}
		out = append(out, time.Since(t0).Seconds()/float64(reps))
	}
	return out, nil
}

// output is what a whole-program run shows its user: the entry point's
// return value and everything it printed.
type output struct {
	ret    uint64
	ints   []int64
	floats []float64
	err    error
}

func (a output) equal(b output) bool {
	return a.err == nil && b.err == nil && a.ret == b.ret &&
		slices.Equal(a.ints, b.ints) && slices.Equal(a.floats, b.floats)
}

func (a output) String() string {
	if a.err != nil {
		return "error: " + a.err.Error()
	}
	return fmt.Sprintf("ret=%d ints=%d floats=%d", a.ret, len(a.ints), len(a.floats))
}

// nativeState binds natives and scripted inputs as App.NewProcessAndExec
// does.
func nativeState(app *core.App) *interp.NativeState {
	ns := interp.NewNativeState(app.NativeSeed)
	ns.Inputs = append([]int64(nil), app.Inputs...)
	return ns
}

// referenceOutput runs app under the interpreter: the independent reference
// a compiled binary must match.
func referenceOutput(app *core.App, wrong bool) output {
	env := interp.NewEnv(rt.NewProcess(app.Prog, app.RTConfig))
	ns := nativeState(app)
	env.Natives = interp.BindNatives(app.Prog, ns)
	env.MaxCycles = maxProgramCycles
	ret, err := env.Run()
	if wrong {
		ret ^= 1
	}
	return output{ret: ret, ints: ns.PrintedInts, floats: ns.PrintedFloats, err: err}
}

// compiledOutput runs app as installed under code.
func compiledOutput(app *core.App, code *machine.Program) output {
	x := machine.NewExec(rt.NewProcess(app.Prog, app.RTConfig), code)
	ns := nativeState(app)
	x.Fallback.Natives = interp.BindNatives(app.Prog, ns)
	x.MaxCycles = maxProgramCycles
	ret, err := x.Call(app.Prog.Entry, nil)
	return output{ret: ret, ints: ns.PrintedInts, floats: ns.PrintedFloats, err: err}
}

// installedImage rebuilds the code image Optimize installed for rep: the
// winner compiled over the baseline, or the baseline itself when the search
// never beat it.
func installedImage(p *core.Prepared, rep *core.Report) (*machine.Program, error) {
	if rep.KeptBaseline {
		return p.Android, nil
	}
	return p.CompileRegion(rep.Best)
}
