package replayopt

// The static analyses' claims as one golden. The effect, range and alias
// analyses back the §3.1 replayability verdicts and shrink the §3.4
// verification map; their evidence is counts that are a pure function of
// the code: deep-replayable methods, guards and bounds checks the backend no
// longer emits, access pairs proven apart, verification-map entries, and the
// exec cycles of whole-program runs. TestAnalysisClaims renders them as text
// and compares them byte for byte with testdata/analysis_claims.txt, so a
// change to any of them shows up as a reviewed golden diff:
//
//	go test -run TestAnalysisClaims -update-claims .
//
// regenerates the file. The floors and invariants the counts must meet are
// asserted whatever the golden says.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/dex"
	"replayopt/internal/exp"
	"replayopt/internal/ga"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/profile"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
	"replayopt/internal/verify"
)

var updateClaims = flag.Bool("update-claims", false, "rewrite testdata/analysis_claims.txt from the current analyses")

const analysisClaimsFile = "testdata/analysis_claims.txt"

// traceApp is the subject of the trace-parity arms: a restore-bound region
// whose quick-scale search is short.
const traceApp = "Fibonacci.recv"

// analysisClaim is one analysis's row of TestAnalysisClaims.
type analysisClaim struct {
	name string
	// apps are the per-app subjects; kernels, a subset, must reach floorPct
	// on the figure that count gates (floorWhat says which).
	apps      []string
	kernels   map[string]bool
	floorPct  float64
	floorWhat string
	// attach adds the analysis's summaries to an effect result; nil for the
	// effect analysis itself.
	attach func(*sa.Result)
	// passes are the analysis's consumer passes, appended to count's base
	// pipeline.
	passes []lir.PassSpec
	// count computes one subject's figures.
	count func(app *core.App, c *analysisClaim) (appFigures, error)
	// totals names the columns of appFigures.totals.
	totals []string
	// vmaps are the §3.4 verification-map subjects, each built with the
	// summary nulled and attached; vmapShrinks requires the attached maps to
	// be smaller in total.
	vmaps       []string
	vmapShrinks bool
	// null removes the analysis's summary from r, in place, and returns what
	// the blind arm compiles or verifies against.
	null func(r *sa.Result) *sa.Result
	// exclude, when set, adds the trace-parity arm: with these passes kept
	// out of the GA's pool, a search on traceApp must make byte-identical
	// decisions with the summary attached and nulled.
	exclude []string
}

// appFigures are one subject's counts under one analysis.
type appFigures struct {
	line       string  // the rendered counts
	pct        float64 // the figure the kernel floor gates
	totals     []int   // the subject's share of the analysis's totals
	tvRejected int
}

func analysisClaims() []*analysisClaim {
	return []*analysisClaim{
		{
			name: "effects",
			apps: []string{"FFT", "BubbleSort", "MaterialLife", "DroidFish", "WitnessFilter"},
			// The two guard-bearing custom passes the GA searches over: with
			// a nil static result both degrade to conservative behavior, so
			// the delta is exactly what the analysis eliminates.
			passes: []lir.PassSpec{{Name: "gccheckelim"}, {Name: "devirt"}},
			count:  countEffects,
			totals: []string{"deep_replayable_blocklist", "deep_replayable_effects", "gcchk_eliminated", "callv_devirtualized"},
			// A region the analysis proves write-free (the witness app's
			// pure kernel) and a representative escaping-write region.
			vmaps: []string{"WitnessFilter", "FFT"},
			null:  func(*sa.Result) *sa.Result { return nil },
		},
		{
			name: "ranges",
			apps: []string{"SOR", "SelectionSort", "FFT", "LU", "BubbleSort", "MaterialLife"},
			// Kernel subjects: hot regions whose index expressions the
			// analysis can relate to array lengths (direct len() loop
			// bounds). The others' loop bounds arrive through parameters the
			// range lattice cannot tie to a specific array.
			kernels:   map[string]bool{"SOR": true, "SelectionSort": true},
			floorPct:  50,
			floorWhat: "of hot-region bounds checks discharged",
			attach:    vra.Attach,
			passes: []lir.PassSpec{
				{Name: "rangecheckelim"}, {Name: "rangebranch"}, {Name: "rangestrength"},
				{Name: "simplifycfg"}, {Name: "dce"},
			},
			count:   countRanges,
			totals:  []string{"bounds_base", "bounds_discharged"},
			null:    func(r *sa.Result) *sa.Result { r.Ranges = nil; return r },
			exclude: []string{"rangecheckelim", "rangebranch", "rangestrength"},
		},
		{
			name: "alias",
			apps: []string{"Sparse matmult", "Linpack", "Dhrystone", "FFT", "SOR", "MaterialLife"},
			// Kernel subjects: hot regions over several distinct arrays or
			// fields, where base/slot separation is provable. FFT and SOR
			// index one shared array with loop-carried expressions no
			// flow-insensitive analysis can separate.
			kernels:   map[string]bool{"Sparse matmult": true, "Linpack": true, "Dhrystone": true},
			floorPct:  30,
			floorWhat: "of same-kind access pairs disambiguated",
			attach:    pts.Attach,
			passes: []lir.PassSpec{
				{Name: "storeforward"}, {Name: "dse"}, {Name: "licm", Params: map[string]int{"loads": 1}},
				{Name: "stackalloc"}, {Name: "simplifycfg"}, {Name: "dce"},
			},
			count:  countAlias,
			totals: []string{"pairs_total", "pairs_proven"},
			// Regions whose hot code allocates scratch objects the analysis
			// proves non-escaping.
			vmaps:       []string{"ScratchFilter", "MaterialLife"},
			vmapShrinks: true,
			null:        func(r *sa.Result) *sa.Result { r.Alias = nil; return r },
			exclude:     []string{"storeforward", "dse", "licm", "stackalloc"},
		},
	}
}

// TestAnalysisClaims pins every analysis's figures to the golden file and
// asserts their floors: kernel discharge and disambiguation, sound counts,
// nonzero cycles, verification maps that never grow, zero tv rejections on
// the consumer pipelines, and decision traces that attached but unselected
// summaries leave byte-identical.
func TestAnalysisClaims(t *testing.T) {
	var got strings.Builder
	for _, c := range analysisClaims() {
		if err := c.render(&got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if *updateClaims {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analysisClaimsFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(analysisClaimsFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-claims)", err)
	}
	if diff := lineDiff(string(want), got.String()); diff != "" {
		t.Errorf("analysis claims differ from %s (regenerate with -update-claims if the change is intended):\n%s",
			analysisClaimsFile, diff)
	}
}

// render computes c's figures, checks its floors and invariants, and writes
// its golden lines to w.
func (c *analysisClaim) render(w *strings.Builder) error {
	totals := make([]int, len(c.totals))
	tvRejected := 0
	for _, name := range c.apps {
		app, err := buildClaimApp(name)
		if err != nil {
			return err
		}
		f, err := c.count(app, c)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if c.kernels[name] && f.pct < c.floorPct {
			return fmt.Errorf("%s: %.0f%% %s, kernel floor is %.0f%%", name, f.pct, c.floorWhat, c.floorPct)
		}
		for i, n := range f.totals {
			totals[i] += n
		}
		tvRejected += f.tvRejected
		fmt.Fprintf(w, "%s\t%s\t%s\n", c.name, name, f.line)
	}
	if tvRejected > 0 {
		return fmt.Errorf("%d tv rejections on the consumer pipelines (the passes must never be Rejected)", tvRejected)
	}

	shrunk, elided := 0, 0
	for _, name := range c.vmaps {
		line, shrink, n, err := c.vmap(name)
		if err != nil {
			return fmt.Errorf("vmap %s: %w", name, err)
		}
		shrunk += shrink
		elided += n
		fmt.Fprintf(w, "%s\tvmap %s\t%s\n", c.name, name, line)
	}
	if c.vmapShrinks && shrunk <= 0 {
		return fmt.Errorf("summary-aware verification maps show no size win over the blind maps")
	}

	if c.exclude != nil {
		if err := c.traceParity(); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\ttrace %s\texclude=%s parity=true\n", c.name, traceApp, strings.Join(c.exclude, ","))
	}

	cols := make([]string, len(c.totals))
	for i, name := range c.totals {
		cols[i] = fmt.Sprintf("%s=%d", name, totals[i])
	}
	if c.vmaps != nil {
		cols = append(cols, fmt.Sprintf("vmap_shrink=%d stores_elided=%d", shrunk, elided))
	}
	fmt.Fprintf(w, "%s\ttotal\t%s\n", c.name, strings.Join(cols, " "))
	return nil
}

// vmap prepares app name as the optimizer does and builds its verification
// map with c's summary attached and nulled.
func (c *analysisClaim) vmap(name string) (line string, shrink, elided int, err error) {
	app, err := buildClaimApp(name)
	if err != nil {
		return "", 0, 0, err
	}
	opt := core.New(core.DefaultOptions())
	p, err := opt.Prepare(app)
	if err != nil {
		return "", 0, 0, err
	}
	eff, root := p.Analysis.Effects, p.Region.Root
	region, effect := app.Prog.Methods[root].Name, eff.Summary[root].String()
	aware, _, err := verify.Build(opt.Dev, opt.Store, p.Snapshot, app.Prog, eff)
	if err != nil {
		return "", 0, 0, err
	}
	blind, _, err := verify.Build(opt.Dev, opt.Store, p.Snapshot, app.Prog, c.null(eff))
	if err != nil {
		return "", 0, 0, err
	}
	if len(aware.Entries) > len(blind.Entries) {
		return "", 0, 0, fmt.Errorf("summary-aware map grew (%d -> %d entries)", len(blind.Entries), len(aware.Entries))
	}
	line = fmt.Sprintf("region=%s effect=%s entries=%d->%d stores_skipped=%v stores_elided=%d",
		region, effect, len(blind.Entries), len(aware.Entries), aware.StoresSkipped, aware.StoresElided)
	return line, len(blind.Entries) - len(aware.Entries), aware.StoresElided, nil
}

// traceParity runs the quick-scale search on traceApp with c's consumer
// passes excluded, once with the summary attached and once nulled.
func (c *analysisClaim) traceParity() error {
	p, _, err := exp.PrepareApp(traceApp, benchSeed)
	if err != nil {
		return err
	}
	opts := exp.Quick().GA
	opts.BaselineAndroidMs = p.AndroidEval.MeanMs
	opts.BaselineO3Ms = p.O3Eval.MeanMs
	opts.ExcludePasses = c.exclude
	attached := ga.Search(rand.New(rand.NewSource(benchSeed)), p, opts).DecisionTrace()
	p.Analysis.Effects = c.null(p.Analysis.Effects)
	nulled := ga.Search(rand.New(rand.NewSource(benchSeed)), p, opts).DecisionTrace()
	if attached != nulled {
		return fmt.Errorf("decision trace on %s changed when the summaries were attached but their passes unselected", traceApp)
	}
	return nil
}

// countEffects: deep-replayable methods under the §3.1 boolean blocklist
// and under effect summaries, and the GC checks and virtual calls O2 plus
// the guard passes emits over every compilable method without and with the
// summaries.
func countEffects(app *core.App, c *analysisClaim) (appFigures, error) {
	eff := profile.Analyze(app.Prog)
	block := profile.AnalyzeBlocklist(app.Prog)
	methods := len(app.Prog.Methods)
	var deepBlock, deepEff int
	var compilable []dex.MethodID
	for id := range app.Prog.Methods {
		if block.ReplayableDeep[id] {
			deepBlock++
		}
		if eff.ReplayableDeep[id] {
			deepEff++
		}
		if eff.Compilable[id] {
			compilable = append(compilable, dex.MethodID(id))
		}
	}
	if deepBlock > methods || deepEff > methods {
		return appFigures{}, fmt.Errorf("more deep-replayable methods than methods")
	}
	cfg := lir.O2()
	cfg.Passes = append(cfg.Passes, c.passes...)
	base, err := lir.Compile(app.Prog, compilable, cfg, nil, c.null(eff.Effects))
	if err != nil {
		return appFigures{}, err
	}
	opt, err := lir.Compile(app.Prog, compilable, cfg, nil, eff.Effects)
	if err != nil {
		return appFigures{}, err
	}
	gcBase, callvBase := countOps(base, machine.GCChk), countOps(base, machine.CallV)
	gcOpt, callvOpt := countOps(opt, machine.GCChk), countOps(opt, machine.CallV)
	return appFigures{
		line: fmt.Sprintf("methods=%d deep_replayable=%d->%d gcchk=%d->%d callv=%d->%d",
			methods, deepBlock, deepEff, gcBase, gcOpt, callvBase, callvOpt),
		totals: []int{deepBlock, deepEff, gcBase - gcOpt, callvBase - callvOpt},
	}, nil
}

// countRanges: the machine bounds checks the range passes discharge from the
// hot region, the unguarded divides they select, and the whole-program exec
// cycles.
func countRanges(app *core.App, c *analysisClaim) (appFigures, error) {
	h, err := compileHotRegion(app, c)
	if err != nil {
		return appFigures{}, err
	}
	boundsBase, boundsOpt := countOps(h.base, machine.Bound), countOps(h.opt, machine.Bound)
	divu := countOps(h.opt, machine.DivU, machine.RemU)
	if boundsOpt > boundsBase {
		return appFigures{}, fmt.Errorf("bounds_opt %d exceeds bounds_base %d (unsound count)", boundsOpt, boundsBase)
	}
	var pct float64
	if boundsBase > 0 {
		pct = 100 * float64(boundsBase-boundsOpt) / float64(boundsBase)
	}
	return appFigures{
		line: fmt.Sprintf("kernel=%v bounds=%d->%d discharge=%.2f%% unguarded_divs=%d %s tv_rejected=%d",
			c.kernels[app.Name], boundsBase, boundsOpt, pct, divu, h.cycles(), h.tvRejected),
		pct:        pct,
		totals:     []int{boundsBase, boundsBase - boundsOpt},
		tvRejected: h.tvRejected,
	}, nil
}

// countAlias: the same-kind access pairs of the hot region the points-to
// analysis proves apart, the allocation sites it proves local, and the
// whole-program exec cycles.
func countAlias(app *core.App, c *analysisClaim) (appFigures, error) {
	h, err := compileHotRegion(app, c)
	if err != nil {
		return appFigures{}, err
	}
	tot := pts.BuildReport(app.Name, h.static, h.methods).Totals
	if tot.Proven > tot.Pairs {
		return appFigures{}, fmt.Errorf("proven %d exceeds pairs %d (unsound count)", tot.Proven, tot.Pairs)
	}
	if tot.NonEscaping > tot.Sites {
		return appFigures{}, fmt.Errorf("non_escaping %d exceeds sites %d", tot.NonEscaping, tot.Sites)
	}
	var pct float64
	if tot.Pairs > 0 {
		pct = 100 * float64(tot.Proven) / float64(tot.Pairs)
	}
	return appFigures{
		line: fmt.Sprintf("kernel=%v pairs=%d proven=%d disambiguation=%.2f%% sites=%d non_escaping=%d %s tv_rejected=%d",
			c.kernels[app.Name], tot.Pairs, tot.Proven, pct, tot.Sites, tot.NonEscaping, h.cycles(), h.tvRejected),
		pct:        pct,
		totals:     []int{tot.Pairs, tot.Proven},
		tvRejected: h.tvRejected,
	}, nil
}

// hotRegion is one app's hot region compiled at O1 and at O1 plus an
// analysis's consumer passes, and the whole program's exec cycles under
// both pipelines.
type hotRegion struct {
	static                *sa.Result
	methods               []dex.MethodID
	base, opt             *machine.Program
	tvRejected            int
	cyclesBase, cyclesOpt uint64
}

// compileHotRegion locates app's hot region exactly as the optimizer's
// prepare stage does, attaches c's summaries, compiles the region at O1 and
// at O1 plus c's passes under a tv.Checker, and runs the whole program
// compiled under both pipelines.
func compileHotRegion(app *core.App, c *analysisClaim) (*hotRegion, error) {
	located, ok, err := new(core.Optimizer).LocateHotRegion(app)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("no replayable hot region")
	}
	h := &hotRegion{static: located.Analysis.Effects, methods: located.Region.Methods}
	c.attach(h.static)

	base := lir.O1()
	opt := lir.O1()
	opt.Passes = append(opt.Passes, c.passes...)
	if h.base, err = lir.Compile(app.Prog, h.methods, base, nil, h.static); err != nil {
		return nil, err
	}
	chk := tv.NewChecker(tv.Options{})
	checked := opt
	checked.Observe(chk)
	if h.opt, err = lir.Compile(app.Prog, h.methods, checked, nil, h.static); err != nil {
		return nil, err
	}
	_, _, h.tvRejected = chk.Counts()

	if h.cyclesBase, err = wholeCycles(app, base, h.static); err != nil {
		return nil, err
	}
	if h.cyclesOpt, err = wholeCycles(app, opt, h.static); err != nil {
		return nil, err
	}
	return h, nil
}

// wholeCycles compiles app's whole program under cfg and returns the exec
// cycles of one online run.
func wholeCycles(app *core.App, cfg lir.Config, static *sa.Result) (uint64, error) {
	code, err := lir.Compile(app.Prog, nil, cfg, nil, static)
	if err != nil {
		return 0, err
	}
	_, cycles, err := runWhole(app, code)
	if err == nil && cycles == 0 {
		err = fmt.Errorf("zero exec cycles")
	}
	return cycles, err
}

// cycles renders the whole-program exec cycles and their relative change.
func (h *hotRegion) cycles() string {
	return fmt.Sprintf("cycles=%d->%d (%+.2f%%)",
		h.cyclesBase, h.cyclesOpt, (float64(h.cyclesOpt)/float64(h.cyclesBase)-1)*100)
}

// countOps counts the instructions of code whose opcode is one of ops.
func countOps(code *machine.Program, ops ...machine.Op) int {
	n := 0
	for _, fn := range code.Fns {
		for _, in := range fn.Code {
			for _, op := range ops {
				if in.Op == op {
					n++
				}
			}
		}
	}
	return n
}

// buildClaimApp builds a Table 1 app or one of the two diagnostic apps
// (WitnessFilter, ScratchFilter) by name.
func buildClaimApp(name string) (*core.App, error) {
	var spec apps.Spec
	switch name {
	case "WitnessFilter":
		spec = apps.WitnessSpec()
	case "ScratchFilter":
		spec = apps.ScratchSpec()
	default:
		var ok bool
		if spec, ok = apps.ByName(name); !ok {
			return nil, fmt.Errorf("unknown app %s", name)
		}
	}
	return apps.Build(spec)
}

// runWhole runs app's whole program online under code and returns its result
// and the cycles it took.
func runWhole(app *core.App, code *machine.Program) (ret, cycles uint64, err error) {
	_, x := app.NewProcessAndExec(code)
	ret, err = x.Call(app.Prog.Entry, nil)
	return ret, x.Cycles, err
}

// lineDiff reports the lines of got that differ from want, each golden line
// next to the one that replaced it; "" when they are equal.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	wl := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	gl := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	var b strings.Builder
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "line %d:\n  golden %s\n  got    %s\n", i+1, w, g)
		}
	}
	return b.String()
}
