package replayopt

// The §3.4 early-discard claim of translation validation (Fig. 1): a
// candidate the validator rejects is thrown away at compile time, before the
// costly replay that the verification map would otherwise need to catch it.

import (
	"testing"

	"replayopt/internal/core"
	"replayopt/internal/ga"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/minic"
	"replayopt/internal/obs"
)

// tvBenchSrc is the miniature app of the early-discard test and the
// validated search of BenchmarkTranslationValidation (a hot kernel with
// array traffic, a virtual call, and global stores — enough surface for
// tvbreak to corrupt).
const tvBenchSrc = `
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

// tvMiniApp registers the deliberately miscompiling tvbreak pass in the
// catalog and builds tvBenchSrc with the options its search runs under. The
// caller runs cleanup to unregister the pass.
func tvMiniApp() (app *core.App, opts core.Options, cleanup func(), err error) {
	cleanup = lir.RegisterForTesting(tv.MiscompilePass())
	prog, err := minic.CompileSource("miniapp", tvBenchSrc)
	if err != nil {
		cleanup()
		return nil, opts, nil, err
	}
	opts = core.DefaultOptions()
	opts.GA.Population = 8
	opts.GA.Generations = 3
	opts.GA.HillClimbBudget = 6
	opts.OnlineRuns = 3
	opts.Seed = 10
	return &core.App{Name: "miniapp", Prog: prog}, opts, cleanup, nil
}

// TestEarlyDiscard proves the early-discard claim on one candidate whose
// pipeline contains tvbreak: with TVCheck on, the app's Prepared discards it
// as tv-reject at compile time, without a replay; with TVCheck off, the same
// candidate is replayed and the verification map discards it.
func TestEarlyDiscard(t *testing.T) {
	app, opts, cleanup, err := tvMiniApp()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	bad := lir.O1()
	bad.Passes = append(bad.Passes, lir.PassSpec{Name: tv.MiscompilePassName})
	for _, tvcheck := range []bool{true, false} {
		sc := obs.New()
		opts.TVCheck, opts.Obs = tvcheck, sc
		p, err := core.New(opts).Prepare(app)
		if err != nil {
			t.Fatal(err)
		}
		replays := sc.Counter("replay.runs").Value()
		ev := p.Evaluate(bad)
		replays = sc.Counter("replay.runs").Value() - replays
		causes := sc.Tally("core.discard_causes")
		switch {
		case tvcheck && (ev.Outcome != ga.OutcomeTVReject || causes.Get("tv-reject") != 1 || replays != 0):
			t.Errorf("tvcheck on: tvbreak candidate got %s after %d replays (causes %v), want tv-reject at compile time",
				ev.Outcome, replays, causes.Counts())
		case !tvcheck && (ev.Outcome != ga.OutcomeWrongOutput || causes.Get("verify-mismatch") != 1 || replays == 0):
			t.Errorf("tvcheck off: tvbreak candidate got %s after %d replays (causes %v), want a verification-map discard",
				ev.Outcome, replays, causes.Counts())
		}
	}
}
