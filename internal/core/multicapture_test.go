package core

import (
	"math/rand"
	"testing"

	"replayopt/internal/lir"
	"replayopt/internal/minic"
)

func prepareMulti(t *testing.T) (*Optimizer, *App, *Prepared) {
	t.Helper()
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	app := &App{Name: "miniapp", Prog: prog}
	opt := New(smallOptions())
	p, err := opt.Prepare(app)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return opt, app, p
}

// TestCaptureMultiCollectsDistinctEntries: the mini app calls its kernel 5
// times per run, so one online run must yield several snapshots with
// evolving state (ticks advances between entries).
func TestCaptureMultiCollectsDistinctEntries(t *testing.T) {
	opt, app, p := prepareMulti(t)
	snaps, err := opt.CaptureMulti(app, p.Android, p.Region.Root, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots from a 5-entry run, want >= 2", len(snaps))
	}
	for i, s := range snaps {
		if s.Root != p.Region.Root {
			t.Errorf("snapshot %d captured method %d, want region root %d", i, s.Root, p.Region.Root)
		}
		if len(s.Pages) == 0 {
			t.Errorf("snapshot %d is empty", i)
		}
	}
	// Snapshots must reflect different entries: the ticks global advances,
	// so at least one page's captured contents must differ between the
	// first and last snapshot.
	a, b := snaps[0], snaps[len(snaps)-1]
	differ := false
	for pa, pg := range a.Pages {
		if other, ok := b.Pages[pa]; ok {
			for j := range pg {
				if pg[j] != other[j] {
					differ = true
					break
				}
			}
		}
		if differ {
			break
		}
	}
	if !differ {
		t.Error("all common pages identical across entries; captures did not see evolving state")
	}
}

// TestCrossValidateAcceptsCorrectBinary: a safely optimized binary must pass
// verification on every held-out snapshot and report plausible speedups.
func TestCrossValidateAcceptsCorrectBinary(t *testing.T) {
	opt, app, p := prepareMulti(t)
	snaps, err := opt.CaptureMulti(app, p.Android, p.Region.Root, 3)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := p.CompileRegion(lir.O2())
	if err != nil {
		t.Fatal(err)
	}
	cv, err := opt.CrossValidate(app, p.Android, o2, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if !cv.AllPassed() {
		t.Fatalf("-O2 failed cross-validation: %d/%d", cv.Passed, cv.Checked)
	}
	if cv.MinSpeedup() <= 0 {
		t.Errorf("MinSpeedup = %v", cv.MinSpeedup())
	}
}

// TestCrossValidateRejectsInputSpecificMiscompile: a binary compiled with a
// genuinely unsafe transform must be caught by a held-out input whose trip
// count exposes it. The kernel's trip count changes per frame: 7 divides
// some entries' counts but not others, so the remainder-dropping unroll is
// correct on a subset of snapshots only.
func TestCrossValidateRejectsInputSpecificMiscompile(t *testing.T) {
	prog, err := minic.CompileSource("varapp", `
global int[] acc;
global int frame;

func kernel(int n) int {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) { s = s + i * 3 + 1; s = s % 999983; }
	acc[frame % 8] = s;
	frame = frame + 1;
	return s;
}

func main() int {
	acc = new int[8];
	int total = 0;
	for (int f = 0; f < 6; f = f + 1) {
		total = total + kernel(686 + f);
		draw_frame(f);
	}
	return total;
}`)
	if err != nil {
		t.Fatal(err)
	}
	app := &App{Name: "varapp", Prog: prog}
	opt := New(smallOptions())
	p, err := opt.Prepare(app)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// Capture several entries: n = 686 (divisible by 7), 687, 688, ...
	snaps, err := opt.CaptureMulti(app, p.Android, p.Region.Root, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Skipf("only %d snapshots captured", len(snaps))
	}
	cfg := lir.O1()
	cfg.Passes = append(cfg.Passes, lir.PassSpec{Name: "unroll",
		Params: map[string]int{"factor": 7, "no-remainder": 1}})
	bad, err := p.CompileRegion(cfg)
	if err != nil {
		t.Skipf("unsafe unroll did not compile: %v", err)
	}
	cv, err := opt.CrossValidate(app, p.Android, bad, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if cv.AllPassed() {
		t.Error("remainder-dropping unroll passed every held-out input despite varying trip counts")
	}
	if cv.Passed == 0 {
		t.Log("note: even the divisible-trip snapshot failed (stricter than required, still safe)")
	}
}

// TestOptimizeMultiEndToEnd: the extended pipeline must produce a verified
// winner (or explicitly keep the baseline) and a cross-validation verdict
// consistent with the report.
func TestOptimizeMultiEndToEnd(t *testing.T) {
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := New(smallOptions())
	rep, cv, err := opt.OptimizeMulti(&App{Name: "miniapp", Prog: prog}, 3)
	if err != nil {
		t.Fatalf("OptimizeMulti: %v", err)
	}
	if rep.Region.Root == 0 && len(rep.Region.Methods) == 0 {
		t.Fatal("empty region in report")
	}
	if !rep.KeptBaseline {
		if !cv.AllPassed() {
			t.Errorf("winner installed but cross-validation failed: %d/%d", cv.Passed, cv.Checked)
		}
		if rep.RegionSpeedupGA < 1.0 {
			t.Errorf("installed a slower binary: region speedup %.3f", rep.RegionSpeedupGA)
		}
	} else if rep.RegionSpeedupGA != 1.0 {
		t.Errorf("kept baseline but region speedup is %.3f", rep.RegionSpeedupGA)
	}
}

// TestScheduleSearchUnderPolicy: the §3.7 policy must fit the mini app's
// full search comfortably inside one idle-charging night, and the gate must
// actually consult the device state.
func TestScheduleSearchUnderPolicy(t *testing.T) {
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := New(smallOptions())
	rep, err := opt.Optimize(&App{Name: "miniapp", Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	sched := ScheduleSearch(opt.Dev, rep.Search, DefaultScheduleOptions())
	if sched.Evaluations != len(rep.Search.Trace) {
		t.Errorf("evaluations %d != trace %d", sched.Evaluations, len(rep.Search.Trace))
	}
	if sched.TotalMinutes <= 0 || sched.ReplayMinutes <= 0 {
		t.Fatalf("no offline work accounted: %+v", sched)
	}
	if sched.TotalMinutes < sched.ReplayMinutes {
		t.Error("total < replay component")
	}
	if sched.Nights != 1 {
		t.Errorf("mini search needed %d nights; must fit in one", sched.Nights)
	}
	if sched.FirstNightFraction <= 0 || sched.FirstNightFraction >= 1 {
		t.Errorf("first-night fraction %v not in (0,1)", sched.FirstNightFraction)
	}
}

// TestScheduleSpansNightsWhenWindowsAreShort: with 1-minute windows a real
// workload must take several nights — the loop must terminate and count.
func TestScheduleSpansNightsWhenWindowsAreShort(t *testing.T) {
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := New(smallOptions())
	rep, err := opt.Optimize(&App{Name: "miniapp", Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultScheduleOptions()
	opts.NightlyWindowMinutes = func(*rand.Rand) float64 { return 0.05 }
	sched := ScheduleSearch(opt.Dev, rep.Search, opts)
	if sched.Nights < 2 {
		t.Errorf("0.05-minute windows but only %d night(s) for %.2f minutes of work",
			sched.Nights, sched.TotalMinutes)
	}
}
