package pts_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/minic"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
)

func analyzeSource(t *testing.T, src string) *sa.Result {
	t.Helper()
	prog, err := minic.CompileSource("ptstest", src)
	if err != nil {
		t.Fatal(err)
	}
	static := sa.Analyze(prog)
	pts.Attach(static)
	return static
}

func methodID(t *testing.T, static *sa.Result, name string) dex.MethodID {
	t.Helper()
	id, ok := static.Prog.MethodByName(name)
	if !ok {
		t.Fatalf("method %s not found", name)
	}
	return id
}

// TestModRefJoinsCallees checks the core contract: a caller's mod summary
// includes the locations its callees write, so a call to a static-writing
// helper is visible through the caller's own summary.
func TestModRefJoinsCallees(t *testing.T) {
	static := analyzeSource(t, `
global int counter;
func bump() { counter = counter + 1; }
func twice() { bump(); bump(); }
func pure(int x) int { return x * 2; }
func main() int { twice(); return pure(counter); }`)
	al := static.Alias
	if al == nil {
		t.Fatal("Attach left static.Alias nil")
	}
	mr := al.ModRef[methodID(t, static, "twice")]
	if mr.Mod.Top {
		t.Fatal("twice has top mod set; expected the precise static slot")
	}
	if mr.Mod.Len() == 0 {
		t.Error("twice's mod set is empty; bump's static store did not join up")
	}
	pureMr := al.ModRef[methodID(t, static, "pure")]
	if pureMr.Mod.Top || pureMr.Mod.Len() != 0 {
		t.Errorf("pure's mod set = %s, want empty", pureMr.Mod)
	}
	if pureMr.Ref.Top || pureMr.Ref.Len() != 0 {
		t.Errorf("pure's ref set = %s, want empty (reads only params)", pureMr.Ref)
	}
}

// TestEscapeThroughCallee: passing an allocation to a callee that publishes
// it must mark the site escaping; passing it to one that only reads must not.
func TestEscapeThroughCallee(t *testing.T) {
	static := analyzeSource(t, `
global int[] published;
func publish(int[] a) { published = a; }
func consume(int[] a) int { return a[0]; }
func maker() int {
	int[] x = new int[4];
	int[] y = new int[4];
	publish(x);
	return consume(y);
}
func main() int { return maker(); }`)
	al := static.Alias
	id := methodID(t, static, "maker")
	var verdicts []bool
	for _, s := range al.Sites {
		if s.Method == id {
			verdicts = append(verdicts, al.SiteEscapes(s))
		}
	}
	if len(verdicts) != 2 {
		t.Fatalf("maker has %d recorded sites, want 2", len(verdicts))
	}
	// Sites are ordered by pc: x's allocation precedes y's.
	if !verdicts[0] {
		t.Error("x is stored to a global by publish() but reported non-escaping")
	}
	if verdicts[1] {
		t.Error("y is only read by consume() but reported escaping")
	}
}

// TestUncompilableCalleeForcesTop: calling a method the analysis cannot build
// SSA for must push the caller's mod/ref to top.
func TestUncompilableCalleeForcesTop(t *testing.T) {
	static := analyzeSource(t, `
global int g;
@uncompilable
func weird() int { g = 5; return g; }
func caller() int { return weird(); }
func main() int { return caller(); }`)
	mr := static.Alias.ModRef[methodID(t, static, "caller")]
	if !mr.Mod.Top || !mr.Ref.Top {
		t.Errorf("caller mod/ref = %s/%s, want top (uncompilable callee)", mr.Mod, mr.Ref)
	}
}

// TestRecursionConverges: a self-recursive heap writer must reach a fixpoint
// (the SCC driver's round cap guards divergence) and still expose a sound,
// non-panicking summary.
func TestRecursionConverges(t *testing.T) {
	static := analyzeSource(t, `
global int depth;
func walk(int n) int {
	depth = depth + 1;
	if (n <= 0) { return 0; }
	return walk(n - 1) + 1;
}
func main() int { return walk(10) + depth; }`)
	mr := static.Alias.ModRef[methodID(t, static, "walk")]
	if !mr.Mod.Top && mr.Mod.Len() == 0 {
		t.Error("recursive walk writes a static but its mod set is empty")
	}
}

// TestVirtualFanOut: a virtual call joins the mod sets of every CHA/RTA
// implementation of the declared target.
func TestVirtualFanOut(t *testing.T) {
	static := analyzeSource(t, `
global int a;
global int b;
class Base { func poke() { a = 1; } }
class Sub extends Base { func poke() { b = 2; } }
func caller(Base o) { o.poke(); }
func main() int {
	Base o = new Base();
	if (itof(3) > 1.0) { o = new Sub(); }
	caller(o);
	return a + b;
}`)
	mr := static.Alias.ModRef[methodID(t, static, "caller")]
	if mr.Mod.Top {
		t.Fatal("caller mod is top; virtual fan-out should stay precise")
	}
	if mr.Mod.Len() < 2 {
		t.Errorf("caller mod set has %d locations, want both implementations' statics", mr.Mod.Len())
	}
}

// TestAttachDeterministic: two attachments over the same program must produce
// byte-identical summaries, verdicts, and reports — the property that keeps
// GA search traces reproducible with alias analysis on.
func TestAttachDeterministic(t *testing.T) {
	app, err := apps.Build(apps.ScratchSpec())
	if err != nil {
		t.Fatal(err)
	}
	encode := func() ([]byte, []byte) {
		static := sa.Analyze(app.Prog)
		pts.Attach(static)
		type verdict struct {
			Site sa.AllocSite
			Esc  bool
		}
		var verdicts []verdict
		for _, s := range static.Alias.Sites {
			verdicts = append(verdicts, verdict{s, static.Alias.SiteEscapes(s)})
		}
		sums, err := json.Marshal(struct {
			ModRef      []sa.ModRefSummary
			ParamEscape []uint64
			Verdicts    []verdict
		}{static.Alias.ModRef, static.Alias.ParamEscape, verdicts})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := json.Marshal(pts.BuildReport("ScratchFilter", static, nil))
		if err != nil {
			t.Fatal(err)
		}
		return sums, rep
	}
	s1, r1 := encode()
	s2, r2 := encode()
	if !bytes.Equal(s1, s2) {
		t.Error("summaries differ between two Attach runs")
	}
	if !bytes.Equal(r1, r2) {
		t.Error("reports differ between two BuildReport runs")
	}
}

// TestScratchAppVerdicts pins the diagnostic app's designed facts: the
// kernel's per-round histogram is non-escaping, the img/out arrays escape.
func TestScratchAppVerdicts(t *testing.T) {
	app, err := apps.Build(apps.ScratchSpec())
	if err != nil {
		t.Fatal(err)
	}
	static := sa.Analyze(app.Prog)
	pts.Attach(static)
	sites, nonEscaping, bounded := pts.Stats(static.Alias)
	if sites == 0 || bounded == 0 {
		t.Fatalf("stats: %d sites, %d bounded methods", sites, bounded)
	}
	if nonEscaping == 0 {
		t.Error("the scratch histogram should be proven non-escaping")
	}
	if nonEscaping >= sites {
		t.Error("img/out escape to globals; not every site can be local")
	}
}

// TestReportSchema round-trips a report through JSON and the structural
// validator (the `audit alias -json` path), then corrupts it in each
// way the schema forbids.
func TestReportSchema(t *testing.T) {
	app, err := apps.Build(apps.ScratchSpec())
	if err != nil {
		t.Fatal(err)
	}
	static := sa.Analyze(app.Prog)
	pts.Attach(static)
	var hot []dex.MethodID
	for i := range app.Prog.Methods {
		hot = append(hot, dex.MethodID(i))
	}
	rep := pts.BuildReport("ScratchFilter", static, hot)
	if rep.Totals.Pairs == 0 {
		t.Fatal("scratch app has no candidate pairs; schema cases below assume some")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := pts.ValidateReportJSON(data); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	corrupt := func(name string, mutate func(doc map[string]any), wantErr string) {
		t.Helper()
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		mutate(doc)
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		err = pts.ValidateReportJSON(bad)
		if err == nil {
			t.Errorf("%s: corrupted report accepted", name)
			return
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantErr)
		}
	}
	firstMethod := func(doc map[string]any) map[string]any {
		return doc["methods"].([]any)[0].(map[string]any)
	}
	corrupt("wrong schema version", func(doc map[string]any) {
		doc["schema_version"] = 99
	}, "schema_version")
	corrupt("missing app", func(doc map[string]any) {
		delete(doc, "app")
	}, "app")
	corrupt("proven exceeds pairs", func(doc map[string]any) {
		m := firstMethod(doc)
		m["proven"] = m["pairs"].(float64) + 1
	}, "proves more")
	corrupt("totals drift", func(doc map[string]any) {
		doc["totals"].(map[string]any)["pairs"] = 9999.0
	}, "totals.pairs")
	corrupt("negative count", func(doc map[string]any) {
		firstMethod(doc)["sites"] = -1.0
	}, "nonnegative")
	corrupt("fractional schema version", func(doc map[string]any) {
		doc["schema_version"] = 1.5
	}, "schema_version")
	corrupt("fractional count", func(doc map[string]any) {
		doc["totals"].(map[string]any)["sites"] = 0.5
	}, "totals.sites")
	corrupt("unknown key", func(doc map[string]any) {
		doc["aliases"] = []any{}
	}, "aliases")
}
