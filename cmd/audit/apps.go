package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/dex"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
	"replayopt/internal/schema"
)

// selection is the application choice every per-app audit shares.
type selection struct {
	app       string
	all, list bool
	json      bool
}

func (s *selection) register(e *env) *flag.FlagSet {
	fs := e.flags()
	fs.StringVar(&s.app, "app", "", "comma-separated applications to audit (see -list)")
	fs.BoolVar(&s.all, "all", false, "audit every known application")
	fs.BoolVar(&s.list, "list", false, "list the known applications")
	fs.BoolVar(&s.json, "json", false, "emit machine-readable JSON, checked before it is printed")
	return fs
}

// specs resolves the selection against the known applications.
func (s *selection) specs(known []apps.Spec) ([]apps.Spec, error) {
	if s.all {
		return known, nil
	}
	if s.app == "" {
		return nil, fmt.Errorf("need -app NAME[,NAME] or -all (use -list to see apps)")
	}
	var specs []apps.Spec
	for _, name := range strings.Split(s.app, ",") {
		i := 0
		for i < len(known) && known[i].Name != name {
			i++
		}
		if i == len(known) {
			return nil, fmt.Errorf("unknown app %q (use -list)", name)
		}
		specs = append(specs, known[i])
	}
	return specs, nil
}

// printList prints the known applications, one per line.
func printList(w io.Writer, known []apps.Spec) {
	for _, s := range known {
		fmt.Fprintf(w, "%-14s %-22s %s\n", s.Type, s.Name, s.Desc)
	}
}

// runAppAudit drives a per-method audit: one report per selected app, printed
// as a table (a one-line summary per app under -all) or as JSON.
func runAppAudit[R schema.Checker](e *env, args []string, known []apps.Spec,
	build func(apps.Spec) (R, error), print func(w io.Writer, rep R, method string, summaryOnly bool)) int {
	var sel selection
	fs := sel.register(e)
	method := fs.String("method", "", "only report methods whose name contains this substring")
	if fs.Parse(args) != nil {
		return 2
	}
	if sel.list {
		printList(e.stdout, known)
		return 0
	}
	specs, err := sel.specs(known)
	if err != nil {
		return e.fail(2, "%v", err)
	}
	for _, spec := range specs {
		rep, err := build(spec)
		if err != nil {
			return e.fail(1, "%v", err)
		}
		if !sel.json {
			print(e.stdout, rep, *method, sel.all)
		} else if err := e.emit(rep); err != nil {
			return e.fail(1, "%s: %v", spec.Name, err)
		}
	}
	return 0
}

func runEffects(e *env, args []string) int {
	known := append(apps.All(), apps.WitnessSpec())
	return runAppAudit(e, args, known, func(spec apps.Spec) (*sa.Report, error) {
		app, err := apps.Build(spec)
		if err != nil {
			return nil, err
		}
		return sa.Analyze(app.Prog).Report(spec.Name), nil
	}, printEffects)
}

func runRanges(e *env, args []string) int {
	known := append(apps.All(), apps.WitnessSpec())
	return runAppAudit(e, args, known, func(spec apps.Spec) (*vra.Report, error) {
		static, hot, err := profiledStatic(spec)
		if err != nil {
			return nil, err
		}
		vra.Attach(static)
		return vra.BuildReport(spec.Name, static, hot), nil
	}, printRanges)
}

func runAlias(e *env, args []string) int {
	known := append(apps.All(), apps.WitnessSpec(), apps.ScratchSpec())
	return runAppAudit(e, args, known, func(spec apps.Spec) (*pts.Report, error) {
		static, hot, err := profiledStatic(spec)
		if err != nil {
			return nil, err
		}
		pts.Attach(static)
		return pts.BuildReport(spec.Name, static, hot), nil
	}, printAlias)
}

// profiledStatic builds the app, locates its hot region exactly as the
// optimizer's prepare stage does, and returns the static analysis with the
// hot region's methods (nil when it has none).
func profiledStatic(spec apps.Spec) (*sa.Result, []dex.MethodID, error) {
	app, err := apps.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	p, ok, err := new(core.Optimizer).LocateHotRegion(app)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	var hot []dex.MethodID
	if ok {
		hot = p.Region.Methods
	}
	return p.Analysis.Effects, hot, nil
}

func printEffects(w io.Writer, rep *sa.Report, methodFilter string, summaryOnly bool) {
	c := rep.Coverage
	fmt.Fprintf(w, "%s: %d methods, %d replayable (%.1f%%); reachable %d, of those %d replayable\n",
		rep.App, c.Methods, c.Replayable, c.ReplayablePct, c.Reachable, c.ReachableReplayable)
	if summaryOnly {
		return
	}
	// Witness chains by method, for the verdict column.
	witness := map[string][]sa.WitnessReport{}
	for _, wr := range rep.Witnesses {
		witness[wr.Method] = append(witness[wr.Method], wr)
	}
	fmt.Fprintf(w, "  %-28s %-30s %s\n", "METHOD", "EFFECT", "VERDICT")
	for _, m := range rep.Methods {
		if methodFilter != "" && !strings.Contains(m.Name, methodFilter) {
			continue
		}
		verdict := "replayable"
		switch {
		case !m.Reachable && m.Replayable:
			verdict = "replayable (unreachable)"
		case !m.Reachable:
			verdict = "not replayable (unreachable)"
		case !m.Replayable:
			verdict = "not replayable: " + strings.Join(m.Hazards, ",")
		}
		fmt.Fprintf(w, "  %-28s %-30s %s\n", m.Name, m.Effect, verdict)
		for _, wr := range witness[m.Name] {
			fmt.Fprintf(w, "      %s via %s", wr.Hazard, strings.Join(wr.Chain, " -> "))
			if wr.Cause != "" {
				fmt.Fprintf(w, " (%s)", wr.Cause)
			}
			fmt.Fprintln(w)
		}
	}
}

func printRanges(w io.Writer, rep *vra.Report, methodFilter string, summaryOnly bool) {
	t := rep.Totals
	fmt.Fprintf(w, "%s: %d/%d bounds checks proven (%.1f%%), %d/%d divide guards; %d params, %d returns narrowed\n",
		rep.App, t.Proven, t.Checks, pct(t.Proven, t.Checks), t.DivProven, t.DivSites, t.ParamsNarrowed, t.RetsNarrowed)
	if summaryOnly {
		return
	}
	fmt.Fprintf(w, "  %-28s %-5s %-14s %s\n", "METHOD", "HOT", "CHECKS", "DIVS")
	for _, m := range rep.Methods {
		if methodFilter != "" && !strings.Contains(m.Method, methodFilter) {
			continue
		}
		fmt.Fprintf(w, "  %-28s %-5s %3d/%-3d proven %3d/%-3d proven\n",
			m.Method, hotLabel(m.Hot), m.Proven, m.Checks, m.DivProven, m.DivSites)
		for _, wit := range m.Witnesses {
			fmt.Fprintf(w, "      unproven at %s: %s\n", wit.Block, wit.Expr)
		}
	}
}

func printAlias(w io.Writer, rep *pts.Report, methodFilter string, summaryOnly bool) {
	t := rep.Totals
	fmt.Fprintf(w, "%s: %d/%d alias pairs proven apart (%.1f%%), %d/%d sites non-escaping; %d methods mod/ref-bounded\n",
		rep.App, t.Proven, t.Pairs, pct(t.Proven, t.Pairs), t.NonEscaping, t.Sites, t.BoundedMethods)
	if summaryOnly {
		return
	}
	fmt.Fprintf(w, "  %-28s %-5s %-14s %s\n", "METHOD", "HOT", "PAIRS", "SITES")
	for _, m := range rep.Methods {
		if methodFilter != "" && !strings.Contains(m.Method, methodFilter) {
			continue
		}
		fmt.Fprintf(w, "  %-28s %-5s %3d/%-3d proven %3d/%-3d local\n",
			m.Method, hotLabel(m.Hot), m.Proven, m.Pairs, m.NonEscaping, m.Sites)
		for _, wit := range m.Witnesses {
			fmt.Fprintf(w, "      unproven at %s: %s\n", wit.Block, wit.Expr)
		}
	}
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

func hotLabel(hot bool) string {
	if hot {
		return "hot"
	}
	return ""
}
