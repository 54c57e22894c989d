package replayopt

// Differential safety net for the value-range passes (§3.5): appending each
// range pass — alone and all together — to every preset pipeline must leave
// every evaluation app's observable result identical, with the strict
// translation validator attached and earning zero Rejected verdicts. This is
// the whole-program complement of the per-pass progen fuzzing `audit tv -fuzz`
// runs (tv.Differential drills lir.PassNames(), which the registration
// assertion below ties to the new passes).

import (
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/sa"
	"replayopt/internal/sa/vra"
)

var rangePassNames = []string{"rangecheckelim", "rangebranch", "rangestrength"}

// TestRangePassesInFuzzerPool: tv.Differential (the `audit tv -fuzz` fuzzer) drills
// lir.PassNames() by default, so registration is what opts the range passes
// into that coverage. A rename that silently drops one from the registry
// would otherwise drop it from the fuzzer too.
func TestRangePassesInFuzzerPool(t *testing.T) {
	registered := map[string]bool{}
	for _, n := range lir.PassNames() {
		registered[n] = true
	}
	for _, n := range rangePassNames {
		if !registered[n] {
			t.Errorf("pass %s not in lir.PassNames(); the tv fuzzer would skip it", n)
		}
	}
}

func TestRangePassDifferential(t *testing.T) {
	presets := []struct {
		name string
		cfg  func() lir.Config
	}{
		{"O1", lir.O1}, {"O2", lir.O2}, {"O3", lir.O3},
	}
	// Each pass alone, then all three (the catalog's cleanup padding can
	// select them together).
	variants := [][]string{
		{"rangecheckelim"}, {"rangebranch"}, {"rangestrength"}, rangePassNames,
	}
	specs := append(apps.All(), apps.WitnessSpec())
	if testing.Short() {
		// Kernel, interactive, and diagnostic representatives.
		short := map[string]bool{"SOR": true, "MaterialLife": true, "WitnessFilter": true}
		var keep []apps.Spec
		for _, s := range specs {
			if short[s.Name] {
				keep = append(keep, s)
			}
		}
		specs = keep
		presets = presets[:1]
	}

	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			app, err := apps.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			static := sa.Analyze(app.Prog)
			vra.Attach(static)
			for _, pre := range presets {
				base, err := lir.Compile(app.Prog, nil, pre.cfg(), nil, static)
				if err != nil {
					t.Fatalf("%s baseline compile: %v", pre.name, err)
				}
				want, _, werr := runWhole(app, base)
				for _, names := range variants {
					cfg := pre.cfg()
					for _, n := range names {
						cfg.Passes = append(cfg.Passes, lir.PassSpec{Name: n})
					}
					chk := tv.NewChecker(tv.Options{Reject: true})
					cfg.Observe(chk)
					code, err := lir.Compile(app.Prog, nil, cfg, nil, static)
					if err != nil {
						t.Fatalf("%s+%v compile: %v", pre.name, names, err)
					}
					if _, _, rejected := chk.Counts(); rejected != 0 {
						t.Errorf("%s+%v: %d tv rejections", pre.name, names, rejected)
					}
					got, _, gerr := runWhole(app, code)
					if (gerr != nil) != (werr != nil) {
						t.Fatalf("%s+%v: trap behaviour diverged: base err %v, opt err %v",
							pre.name, names, werr, gerr)
					}
					if got != want {
						t.Errorf("%s+%v: result %d, baseline %d",
							pre.name, names, int64(got), int64(want))
					}
				}
			}
		})
	}
}
