package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"replayopt/internal/ga"
	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/mem"
	"replayopt/internal/minic"
	"replayopt/internal/profile"
	"replayopt/internal/rt"
)

// A miniature interactive app with a clear hot kernel, I/O scaffolding, and
// a virtual call in the hot path.
const appSrc = `
global float[] board;
global int ticks;

class Rule { func weight(int i) int { return i % 7; } }
class Fancy extends Rule { func weight(int i) int { return (i * 3) % 11; } }

func setup(int n) {
	board = new float[n];
	for (int i = 0; i < n; i = i + 1) { board[i] = itof(i % 13) * 0.5; }
}

func simulate(int rounds) int {
	Rule r = new Fancy();
	float acc = 0.0;
	for (int k = 0; k < rounds; k = k + 1) {
		for (int i = 0; i < len(board); i = i + 1) {
			acc = acc + board[i] * itof(r.weight(i));
		}
	}
	ticks = ticks + 1;
	return ftoi(acc);
}

func main() int {
	setup(400);
	int total = 0;
	for (int f = 0; f < 5; f = f + 1) {
		total = total + simulate(3);
		draw_frame(f);
	}
	print_int(total);
	return total;
}
`

func smallOptions() Options {
	opts := DefaultOptions()
	opts.GA.Population = 8
	opts.GA.Generations = 3
	opts.GA.HillClimbBudget = 6
	opts.OnlineRuns = 3
	return opts
}

func runPipeline(t *testing.T, seed int64) *Report {
	t.Helper()
	return runPipelineAt(t, seed, 0)
}

func runPipelineAt(t *testing.T, seed int64, parallelism int) *Report {
	t.Helper()
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOptions()
	opts.Seed = seed
	opts.GA.Parallelism = parallelism
	opt := New(opts)
	rep, err := opt.Optimize(&App{Name: "miniapp", Prog: prog})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return rep
}

func TestPipelineEndToEnd(t *testing.T) {
	rep := runPipeline(t, 1)

	// The hot region must be the simulate kernel.
	if got := rep.Region.Root; rep.App != "miniapp" || got < 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.Breakdown[profile.CatCompiled] <= 0 {
		t.Error("no compiled fraction in the breakdown")
	}
	if rep.Capture.TotalMs() <= 0 || rep.Capture.PagesStored == 0 {
		t.Error("capture stats empty")
	}
	if rep.VerifyMapSize == 0 {
		t.Error("empty verification map")
	}
	if rep.AndroidRegionMs <= 0 || rep.O3RegionMs <= 0 || rep.GARegionMs <= 0 {
		t.Fatalf("missing region timings: %+v", rep)
	}
	// The GA must never lose to the baselines it was seeded against.
	if rep.GARegionMs > rep.AndroidRegionMs*1.001 {
		t.Errorf("GA (%.4f ms) worse than Android (%.4f ms) on the region",
			rep.GARegionMs, rep.AndroidRegionMs)
	}
	// Whole-program speedup must be positive and >= 1 within noise.
	if rep.SpeedupGA < 0.99 {
		t.Errorf("whole-program GA speedup %.3f < 1", rep.SpeedupGA)
	}
	if rep.Search == nil || len(rep.Search.Trace) == 0 {
		t.Error("no search trace")
	}
}

func TestPipelineGAFindsRegionSpeedup(t *testing.T) {
	rep := runPipeline(t, 2)
	if rep.RegionSpeedupGA < 1.05 {
		t.Errorf("region speedup only %.3fx — search found nothing", rep.RegionSpeedupGA)
	}
}

func TestPipelineRejectsBrokenGenomes(t *testing.T) {
	rep := runPipeline(t, 3)
	if rep.Search.BestEval.Outcome.Failed() {
		t.Fatal("a failed genome won the search")
	}
	// With the catalog's unsafe share, some evaluations must have failed
	// and been discarded rather than selected.
	failed := 0
	for _, r := range rep.Search.Trace {
		if r.Eval.Outcome.Failed() {
			failed++
		}
	}
	if failed == 0 {
		t.Log("note: no failed genomes in this small search (acceptable at this scale)")
	}
}

func TestPipelineDeterministicWithSeed(t *testing.T) {
	a := runPipeline(t, 9)
	b := runPipeline(t, 9)
	if a.Search.Best.String() != b.Search.Best.String() {
		t.Errorf("same seed, different winners:\n%s\n%s", a.Search.Best, b.Search.Best)
	}
	if a.AndroidOnlineCycles != b.AndroidOnlineCycles {
		t.Errorf("online cycles differ: %v vs %v", a.AndroidOnlineCycles, b.AndroidOnlineCycles)
	}
}

// The replay evaluator must satisfy ga.Evaluator's purity contract: the same
// seed run through the real pipeline yields the same search — trace record
// for record — whether candidates are evaluated serially or by four workers.
func TestPipelineParallelMatchesSerial(t *testing.T) {
	serial := runPipelineAt(t, 4, 1)
	par := runPipelineAt(t, 4, 4)
	if serial.Search.Best.String() != par.Search.Best.String() {
		t.Errorf("parallelism changed the winner:\n%s\n%s", serial.Search.Best, par.Search.Best)
	}
	if serial.GARegionMs != par.GARegionMs {
		t.Errorf("region time differs: %v vs %v", serial.GARegionMs, par.GARegionMs)
	}
	if serial.SearchStats != par.SearchStats {
		t.Errorf("search stats differ: %+v vs %+v", serial.SearchStats, par.SearchStats)
	}
	if len(serial.Search.Trace) != len(par.Search.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(serial.Search.Trace), len(par.Search.Trace))
	}
	for i := range serial.Search.Trace {
		a, b := serial.Search.Trace[i], par.Search.Trace[i]
		if a.Genome.String() != b.Genome.String() || a.Eval.MeanMs != b.Eval.MeanMs ||
			a.Eval.Outcome != b.Eval.Outcome || a.Eval.BinaryHash != b.Eval.BinaryHash {
			t.Fatalf("trace[%d] differs:\n%+v\n%+v", i, a, b)
		}
	}
	// The stats must reconcile with the trace regardless of worker count.
	st := par.SearchStats
	if st.Evaluations != len(par.Search.Trace) {
		t.Errorf("stats count %d evaluations, trace has %d", st.Evaluations, len(par.Search.Trace))
	}
	if st.Considered != st.Evaluations+st.CacheHits {
		t.Errorf("considered %d != evaluations %d + hits %d", st.Considered, st.Evaluations, st.CacheHits)
	}
}

// Warm replay workers are a pure throughput change. A search over the
// Prepared evaluator binds warm workers; the same search over a wrapper that
// hides ga.WorkerBinder replays cold through Prepared.Evaluate. Both must
// produce the same decision trace, winner, winning evaluation and stats at
// every tested worker count, and full pipeline reports must not depend on
// the worker count either.
func TestPipelineWarmMatchesColdAcrossParallelism(t *testing.T) {
	const seed = 4
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOptions()
	opts.Seed = seed
	app := &App{Name: "miniapp", Prog: prog}
	p, err := New(opts).Prepare(app)
	if err != nil {
		t.Fatal(err)
	}
	search := func(ev ga.Evaluator, parallelism int) *ga.Result {
		o := opts.GA
		o.BaselineAndroidMs = p.AndroidEval.MeanMs
		o.BaselineO3Ms = p.O3Eval.MeanMs
		o.Parallelism = parallelism
		return ga.Search(rand.New(rand.NewSource(seed*7919+int64(len(app.Name)))), ev, o)
	}
	ref := search(struct{ ga.Evaluator }{p}, 1)
	refTrace := ref.DecisionTrace()
	for _, par := range []int{1, 4, 8} {
		for _, warm := range []bool{false, true} {
			if par == 1 && !warm {
				continue // that is ref itself
			}
			var ev ga.Evaluator = struct{ ga.Evaluator }{p}
			if warm {
				ev = p
			}
			got := search(ev, par)
			label := fmt.Sprintf("parallelism=%d warm=%v", par, warm)
			if tr := got.DecisionTrace(); tr != refTrace {
				t.Errorf("%s: decision trace differs from cold serial search:\n--- got\n%s\n--- want\n%s",
					label, tr, refTrace)
			}
			if got.Best.String() != ref.Best.String() {
				t.Errorf("%s: best genome differs:\n%s\n%s", label, got.Best, ref.Best)
			}
			if !reflect.DeepEqual(got.BestEval, ref.BestEval) {
				t.Errorf("%s: best evaluation differs: %+v vs %+v", label, got.BestEval, ref.BestEval)
			}
			if got.Stats != ref.Stats {
				t.Errorf("%s: search stats differ: %+v vs %+v", label, got.Stats, ref.Stats)
			}
		}
	}

	serial := runPipelineAt(t, seed, 1)
	if tr := serial.Search.DecisionTrace(); tr != refTrace {
		t.Errorf("Optimize's search differs from the cold serial search on the same preparation:\n--- got\n%s\n--- want\n%s",
			tr, refTrace)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{4, 8} {
		got, err := json.Marshal(runPipelineAt(t, seed, par))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("parallelism=%d: report differs from the serial run:\n got %s\nwant %s", par, got, want)
		}
	}
}

// TestHashImageDistinguishesBinaries: the identical-binary halt rests on
// machine.HashProgram fingerprinting code exactly — identical code hashes equal,
// any field change hashes different.
func TestHashImageDistinguishesBinaries(t *testing.T) {
	mk := func() *machine.Program {
		p := machine.NewProgram()
		p.Fns[1] = &machine.Fn{Code: []machine.Insn{
			{Op: machine.Add, A: 1, B: 2, C: -1, Imm: 40},
			{Op: machine.Ret, A: 1},
		}}
		return p
	}
	a, b := mk(), mk()
	if machine.HashProgram(a) != machine.HashProgram(b) {
		t.Fatal("identical programs hash differently")
	}
	b.Fns[1].Code[0].Imm = 41
	if machine.HashProgram(a) == machine.HashProgram(b) {
		t.Fatal("changed immediate not reflected in hash")
	}
	c := mk()
	c.Fns[2] = c.Fns[1] // extra function
	if machine.HashProgram(a) == machine.HashProgram(c) {
		t.Fatal("extra function not reflected in hash")
	}
}

// TestOverlayPrefersReplacement: region functions must shadow the base
// binary's, everything else passing through.
func TestOverlayPrefersReplacement(t *testing.T) {
	base := machine.NewProgram()
	base.Fns[1] = &machine.Fn{Code: []machine.Insn{{Op: machine.Ret}}}
	base.Fns[2] = &machine.Fn{Code: []machine.Insn{{Op: machine.Ret}}}
	repl := machine.NewProgram()
	repl.Fns[2] = &machine.Fn{Code: []machine.Insn{{Op: machine.Nop}, {Op: machine.Ret}}}
	out := overlay(base, repl)
	if out.Fns[1] != base.Fns[1] {
		t.Error("untouched function not passed through")
	}
	if out.Fns[2] != repl.Fns[2] {
		t.Error("region function not replaced")
	}
	if len(out.Fns) != 2 {
		t.Errorf("overlay has %d functions, want 2", len(out.Fns))
	}
	// The inputs must not be mutated.
	if base.Fns[2].Code[0].Op != machine.Ret {
		t.Error("overlay mutated the base program")
	}
}

// TestClassifyErrors maps each substrate failure, bare and wrapped the way
// lir.Compile and replay wrap it, to the Fig. 1 outcome the paper's taxonomy
// assigns it and to its stable core.discard_causes label. Only an
// unrecognized error depends on the phase.
func TestClassifyErrors(t *testing.T) {
	compiling := func(err error) error { return fmt.Errorf("compiling %s: %w", "Main.kernel", err) }
	replaying := func(err error) error { return fmt.Errorf("replay: %w", err) }
	const atCompile, atReplay = ga.OutcomeCompilerError, ga.OutcomeRuntimeCrash
	for _, c := range []struct {
		name    string
		err     error
		phase   ga.Outcome // the fallback: compiler-error at compile, runtime-crash at replay
		outcome ga.Outcome
		cause   string
	}{
		{"tv reject", compiling(&tv.RejectError{Pass: "gvn", Fn: "f"}), atCompile, ga.OutcomeTVReject, "tv-reject"},
		{"compile timeout", &lir.TimeoutError{}, atCompile, ga.OutcomeCompilerTimeout, "compile-timeout"},
		{"wrapped compile timeout", compiling(&lir.TimeoutError{Pass: "pipeline"}), atCompile, ga.OutcomeCompilerTimeout, "compile-timeout"},
		{"compiler crash", &lir.CrashError{}, atCompile, ga.OutcomeCompilerError, "compile-crash"},
		{"wrapped compiler crash", compiling(&lir.CrashError{Pass: "licm"}), atCompile, ga.OutcomeCompilerError, "compile-crash"},
		{"lowering failure", compiling(&machine.CompileError{Msg: "ran out of registers"}), atCompile, ga.OutcomeCompilerError, "lower-error"},
		{"unknown compile error", errors.New("x"), atCompile, ga.OutcomeCompilerError, "other"},
		{"machine timeout", machine.ErrTimeout, atReplay, ga.OutcomeRuntimeTimeout, "runtime-timeout"},
		{"interpreter timeout", replaying(interp.ErrTimeout), atReplay, ga.OutcomeRuntimeTimeout, "runtime-timeout"},
		{"machine stack overflow", machine.ErrStackOverflow, atReplay, ga.OutcomeRuntimeCrash, "runtime-stack-overflow"},
		{"interpreter stack overflow", replaying(interp.ErrStackOverflow), atReplay, ga.OutcomeRuntimeCrash, "runtime-stack-overflow"},
		{"bounds trap", &rt.Trap{Kind: rt.TrapBounds}, atReplay, ga.OutcomeRuntimeCrash, "runtime-crash"},
		{"access fault", replaying(&mem.AccessError{Addr: 0x10}), atReplay, ga.OutcomeRuntimeCrash, "runtime-crash"},
		{"uncaught exception", replaying(&interp.ThrownError{Method: "Main.run"}), atReplay, ga.OutcomeRuntimeCrash, "runtime-crash"},
		{"unknown runtime error", errors.New("x"), atReplay, ga.OutcomeRuntimeCrash, "other"},
	} {
		outcome, cause := classify(c.err, c.phase)
		if outcome != c.outcome || cause != c.cause {
			t.Errorf("%s: classify = (%v, %q), want (%v, %q)", c.name, outcome, cause, c.outcome, c.cause)
		}
	}
}
