package lir

import (
	"fmt"
	"time"

	"replayopt/internal/dex"
	"replayopt/internal/machine"
	"replayopt/internal/obs"
	"replayopt/internal/sa"
)

// PassSpec selects one pass application with explicit parameters (defaults
// fill unspecified ones).
type PassSpec struct {
	Name   string
	Params map[string]int
}

// PassObserver watches the pass pipeline one application at a time: the
// harness seam shared by translation validation (internal/lir/tv), rewrite
// tracing (internal/lir/rtrace) and PassMetrics. Observers run in list order.
// A BeforePass that returns false vetoes the application: neither the pass
// nor any later observer's BeforePass runs. AfterPass reaches every observer,
// vetoed applications included (Ran false), so sequence numbers stay aligned
// with a recorded trace. An AfterPass error aborts the compile, and the
// observers after it see it as Err: an observer that reads another's verdict
// goes after it.
type PassObserver interface {
	BeforePass(a *PassApplication) bool
	AfterPass(a *PassApplication) error
}

// PassApplication is one pass application as its observers see it. Its
// digests and notes are computed only when an observer asks, at most once,
// and shared by all of them. Observers must not retain it.
type PassApplication struct {
	Fn       *Function
	Spec     PassSpec
	Info     *PassInfo
	Resolved map[string]int
	// Ran, valid in AfterPass, is false when an observer vetoed the pass.
	Ran bool
	// Elapsed is the pass's own run time.
	Elapsed time.Duration
	// Err is the error about to abort the compile: the pass's own, the IR
	// growth cap's, or an earlier observer's.
	Err error
	// Notes are the pass's decision notes and Dropped their overflow count,
	// collected only if an observer called CollectNotes in BeforePass.
	Notes   []RewriteNote
	Dropped int

	ctx                 *PassContext
	before, after       uint64
	hasBefore, hasAfter bool
}

// Before returns the function's HashFunction digest before the pass. An
// observer that reads it in AfterPass must read it in BeforePass too: once
// the pass has run, the pre-pass function is gone.
func (a *PassApplication) Before() uint64 {
	if !a.hasBefore {
		if a.Ran {
			panic("lir: PassApplication.Before first read after the pass ran")
		}
		a.before, a.hasBefore = HashFunction(a.Fn), true
	}
	return a.before
}

// After returns the function's HashFunction digest after the pass; a vetoed
// application's After is its Before.
func (a *PassApplication) After() uint64 {
	if !a.Ran {
		return a.Before()
	}
	if !a.hasAfter {
		a.after, a.hasAfter = HashFunction(a.Fn), true
	}
	return a.after
}

// Fired reports whether the application ran and changed the function.
func (a *PassApplication) Fired() bool { return a.Ran && a.After() != a.Before() }

// CollectNotes asks the pass to record its decision notes (PassContext.Note)
// for this application; call it in BeforePass.
func (a *PassApplication) CollectNotes() { a.ctx.traceNotes = true }

// observe drives one application past its observers.
func (a *PassApplication) observe(observers []PassObserver) error {
	vetoed := false
	for _, o := range observers {
		if vetoed = !o.BeforePass(a); vetoed {
			break
		}
	}
	if a.Ran = !vetoed; a.Ran {
		start := time.Now()
		a.Err = a.Info.Run(a.Fn, a.ctx, a.Resolved)
		a.Elapsed = time.Since(start)
		if a.Err == nil {
			a.Err = a.ctx.checkGrowth(a.Fn, a.Spec.Name)
		}
	}
	a.Notes, a.Dropped = a.ctx.drainNotes() // also when vetoed: CollectNotes may precede the veto
	for _, o := range observers {
		if err := o.AfterPass(a); err != nil && a.Err == nil {
			a.Err = err
		}
	}
	return a.Err
}

// PassMetrics returns an observer that feeds sc's registry: each pass's run
// time into the lir.pass_ms.<pass> histogram, and each application that ran
// without error into the lir.pass_fired or lir.pass_noop tally. Place it
// ahead of any observer whose AfterPass can fail.
func PassMetrics(sc *obs.Scope) PassObserver { return passMetrics{sc} }

type passMetrics struct{ sc *obs.Scope }

func (m passMetrics) BeforePass(a *PassApplication) bool { a.Before(); return true }

func (m passMetrics) AfterPass(a *PassApplication) error {
	if !a.Ran {
		return nil
	}
	m.sc.Histogram("lir.pass_ms." + a.Spec.Name).Observe(float64(a.Elapsed.Microseconds()) / 1000)
	if a.Err == nil {
		tally := "lir.pass_noop"
		if a.Fired() {
			tally = "lir.pass_fired"
		}
		m.sc.Tally(tally).Inc(a.Spec.Name)
	}
	return nil
}

// Config is one point in the toolchain's optimization space: the opt-style
// pass sequence plus the llc-style lowering options. GA genomes decode to
// Configs. Observers is an evaluation-harness setting, deliberately excluded
// from Fingerprint: it must not change which configs the GA considers
// identical.
type Config struct {
	Passes []PassSpec
	Lower  LowerOpts
	// Observers watch (and may veto or abort) every pass application, in
	// order. Attaching one never changes what a successful compile produces.
	Observers []PassObserver
}

// Observe appends observers to c's list. Configs are copied by value and
// copies share the list's backing array, so it appends into a fresh one:
// the copy c was made from keeps its own list.
func (c *Config) Observe(o ...PassObserver) {
	c.Observers = append(c.Observers[:len(c.Observers):len(c.Observers)], o...)
}

// maxPipelineLength bounds genome-supplied pass sequences; longer pipelines
// are a compile timeout.
const maxPipelineLength = 128

// resolveParams merges defaults with explicit settings, clamping to spec
// ranges.
func resolveParams(info *PassInfo, explicit map[string]int) map[string]int {
	out := make(map[string]int, len(info.Params))
	for _, ps := range info.Params {
		v := ps.Default
		if e, ok := explicit[ps.Name]; ok {
			v = e
		}
		if v < ps.Min {
			v = ps.Min
		}
		if v > ps.Max {
			v = ps.Max
		}
		out[ps.Name] = v
	}
	return out
}

// CompileMethod builds, optimizes, and lowers one method under cfg. prof is
// the interpreted-replay type profile (§3.4) and static the interprocedural
// effect analysis (internal/sa); either may be nil, degrading the passes that
// consume them. Compiler crashes (pass panics and explicit CrashErrors) and
// timeouts are returned as their typed errors; the caller classifies
// outcomes (Fig. 1).
func CompileMethod(prog *dex.Program, id dex.MethodID, cfg Config, prof *Profile, static *sa.Result) (fn *machine.Fn, err error) {
	m := prog.Methods[id]
	if m.Uncompilable {
		return nil, &CrashError{Pass: "frontend", Msg: "method " + m.Name + " is not compilable"}
	}
	if len(cfg.Passes) > maxPipelineLength {
		return nil, &TimeoutError{Pass: "pipeline", Msg: fmt.Sprintf("%d passes exceed the step budget", len(cfg.Passes))}
	}
	defer func() {
		if r := recover(); r != nil {
			fn = nil
			err = &CrashError{Pass: "pipeline", Msg: fmt.Sprint(r)}
		}
	}()
	f, err := BuildSSA(prog, id)
	if err != nil {
		return nil, err
	}
	ctx := &PassContext{Profile: prof, Static: static}
	for _, spec := range cfg.Passes {
		info, ok := PassByName(spec.Name)
		if !ok {
			return nil, &CrashError{Pass: spec.Name, Msg: "unknown pass"}
		}
		resolved := resolveParams(info, spec.Params)
		if len(cfg.Observers) > 0 {
			a := &PassApplication{Fn: f, Spec: spec, Info: info, Resolved: resolved, ctx: ctx}
			err = a.observe(cfg.Observers)
		} else if err = info.Run(f, ctx, resolved); err == nil {
			err = ctx.checkGrowth(f, spec.Name)
		}
		if err != nil {
			return nil, err
		}
	}
	mfn, err := Lower(f, cfg.Lower)
	if err != nil {
		return nil, err
	}
	mfn.Method = id
	return mfn, nil
}

// Compile compiles the given methods under cfg into one code image. Methods
// is typically the hot region's method set (§3.1); pass nil to compile every
// compilable method.
func Compile(prog *dex.Program, methods []dex.MethodID, cfg Config, prof *Profile, static *sa.Result) (*machine.Program, error) {
	if methods == nil {
		for i := range prog.Methods {
			if !prog.Methods[i].Uncompilable {
				methods = append(methods, dex.MethodID(i))
			}
		}
	}
	out := machine.NewProgram()
	for _, id := range methods {
		fn, err := CompileMethod(prog, id, cfg, prof, static)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", prog.Methods[id].Name, err)
		}
		out.Fns[id] = fn
	}
	return out, nil
}

// Presets. O0 is a straight lowering; O1-O3 grow the pipeline the way the
// real toolchain's levels do. Note what O3 deliberately lacks: the custom
// GC-check deduplication (gccheckelim) and profile-guided devirtualization —
// the headroom the GA search exploits (§5.1).

// O0 disables optimization entirely.
func O0() Config {
	return Config{Lower: LowerOpts{Machine: machine.DefaultLowerOpts()}}
}

// O1 applies cheap canonicalization and local cleanups.
func O1() Config {
	return Config{
		Passes: []PassSpec{
			{Name: "phisimplify"},
			{Name: "constfold"},
			{Name: "instcombine"},
			{Name: "simplifycfg"},
			{Name: "gvn"},
			{Name: "dce"},
		},
		Lower: LowerOpts{
			FusedAddressing: true,
			Machine:         machine.LowerOpts{FuseLiterals: true, NumRegs: 26},
		},
	}
}

// O2 adds inlining, memory optimization, and loop-invariant code motion.
func O2() Config {
	c := O1()
	c.Passes = append(c.Passes,
		PassSpec{Name: "inline", Params: map[string]int{"threshold": 40}},
		PassSpec{Name: "intrinsics"},
		PassSpec{Name: "storeforward"},
		PassSpec{Name: "dse"},
		PassSpec{Name: "licm"},
		PassSpec{Name: "gvn"},
		PassSpec{Name: "bce"},
		PassSpec{Name: "sink"},
		PassSpec{Name: "simplifycfg"},
		PassSpec{Name: "dce"},
	)
	c.Lower.Machine.FuseMaddInt = true
	return c
}

// O3 adds aggressive inlining, reassociation, conservative unrolling (only
// constant trip counts, like the real heuristics), and scheduling.
func O3() Config {
	c := O2()
	c.Passes = append(c.Passes,
		PassSpec{Name: "inline", Params: map[string]int{"threshold": 120}},
		PassSpec{Name: "reassoc"},
		PassSpec{Name: "unroll", Params: map[string]int{"factor": 4, "const-trip-only": 1}},
		PassSpec{Name: "gvn"},
		PassSpec{Name: "simplifycfg"},
		PassSpec{Name: "dce"},
	)
	c.Lower.Machine.Schedule = true
	return c
}

// Preset returns the named preset config.
func Preset(name string) (Config, bool) {
	switch name {
	case "O0", "-O0":
		return O0(), true
	case "O1", "-O1":
		return O1(), true
	case "O2", "-O2":
		return O2(), true
	case "O3", "-O3":
		return O3(), true
	}
	return Config{}, false
}
