package main

import (
	"fmt"
	"io"
	"strings"

	"replayopt/internal/apps"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
)

// runTV compiles the selected apps under the optimization presets with the
// per-pass translation validator attached and reports every verdict, or
// fuzzes passes differentially against the interpreter. Unverified verdicts
// are informational; a Rejected pass or a fuzz defect exits 1.
func runTV(e *env, args []string) int {
	var sel selection
	fs := sel.register(e)
	presets := fs.String("presets", "O1,O2,O3", "comma-separated optimization presets to audit")
	fuzz := fs.Int("fuzz", 0, "differentially fuzz each pass on N generated programs instead")
	passes := fs.String("passes", "", "comma-separated pass subset for -fuzz (default: all registered)")
	if fs.Parse(args) != nil {
		return 2
	}
	if sel.list {
		printList(e.stdout, apps.All())
		return 0
	}

	rep := tv.Report{SchemaVersion: tv.ReportSchemaVersion, Presets: []tv.PresetReport{}, Fuzz: []tv.DiffFailure{}}
	bad := false
	if *fuzz > 0 {
		var names []string
		if *passes != "" {
			names = strings.Split(*passes, ",")
		}
		rep.Fuzz = append(rep.Fuzz, tv.Differential(tv.DiffOptions{Seeds: *fuzz, Passes: names})...)
		bad = len(rep.Fuzz) > 0
		if !sel.json && !bad {
			fmt.Fprintf(e.stdout, "fuzz clean: %d seeds per pass, no defects\n", *fuzz)
		}
	} else {
		specs, err := sel.specs(apps.All())
		if err != nil {
			return e.fail(2, "%v", err)
		}
		for _, spec := range specs {
			app, err := apps.Build(spec)
			if err != nil {
				return e.fail(1, "building %s: %v", spec.Name, err)
			}
			for _, preset := range strings.Split(*presets, ",") {
				cfg, ok := lir.Preset(preset)
				if !ok {
					return e.fail(2, "unknown preset %q", preset)
				}
				chk := tv.NewChecker(tv.Options{})
				cfg.Check = chk
				cfg.CheckEach = true
				if _, err := lir.Compile(app.Prog, nil, cfg, nil, nil); err != nil {
					return e.fail(1, "%s at %s: %v", spec.Name, preset, err)
				}
				pr := tv.PresetFromChecker(spec.Name, preset, chk)
				rep.Presets = append(rep.Presets, pr)
				bad = bad || pr.Rejected > 0
			}
		}
	}

	if sel.json {
		if err := e.emit(&rep); err != nil {
			return e.fail(1, "%v", err)
		}
	} else {
		printTV(e.stdout, &rep)
	}
	if bad {
		return 1
	}
	return 0
}

func printTV(w io.Writer, rep *tv.Report) {
	if len(rep.Presets) > 0 {
		fmt.Fprintf(w, "%-22s %-7s %9s %11s %9s\n", "app", "preset", "verified", "unverified", "rejected")
		for _, pr := range rep.Presets {
			fmt.Fprintf(w, "%-22s %-7s %9d %11d %9d\n", pr.App, pr.Preset, pr.Verified, pr.Unverified, pr.Rejected)
			for _, row := range pr.Verdicts {
				if row.Verdict == "rejected" {
					fmt.Fprintf(w, "  REJECTED %s on %s: %s\n", row.Pass, row.Fn, row.Reason)
				}
			}
		}
	}
	for _, f := range rep.Fuzz {
		fmt.Fprintf(w, "FUZZ %s seed=%d kind=%s: %s\n", f.Pass, f.Seed, f.Kind, f.Detail)
		fmt.Fprintln(w, "  reproducer:")
		for _, line := range strings.Split(f.Source, "\n") {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
}
