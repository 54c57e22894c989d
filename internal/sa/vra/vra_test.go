package vra_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/minic"
	"replayopt/internal/sa"
	"replayopt/internal/sa/vra"
)

func analyzeSource(t *testing.T, src string) *sa.Result {
	t.Helper()
	prog, err := minic.CompileSource("vratest", src)
	if err != nil {
		t.Fatal(err)
	}
	static := sa.Analyze(prog)
	vra.Attach(static)
	return static
}

func summaryOf(t *testing.T, static *sa.Result, name string) sa.RangeSummary {
	t.Helper()
	id, ok := static.Prog.MethodByName(name)
	if !ok {
		t.Fatalf("method %s not found", name)
	}
	return static.Ranges[id]
}

// TestInterproceduralNarrowing checks the core contract: a callee's parameter
// summary is the join of the argument ranges its callers pass, and return
// summaries flow back to call sites.
func TestInterproceduralNarrowing(t *testing.T) {
	static := analyzeSource(t, `
func helper(int x) int { return x + 1; }
func clamp(int d) int { return 100 / d; }
func main() int {
	int a = helper(3);
	int b = helper(7);
	int c = clamp(a) + clamp(b);
	print_int(c);
	return c;
}`)
	h := summaryOf(t, static, "helper")
	if h.Params[0].Lo != 3 || h.Params[0].Hi != 7 {
		t.Errorf("helper param = %s, want [3, 7]", h.Params[0])
	}
	if h.Ret.Lo != 4 || h.Ret.Hi != 8 {
		t.Errorf("helper ret = %s, want [4, 8]", h.Ret)
	}
	// clamp's argument is helper's return value: the summary chain must
	// propagate callee returns into caller argument ranges, proving the
	// divisor nonzero.
	c := summaryOf(t, static, "clamp")
	if c.Params[0].Lo != 4 || c.Params[0].Hi != 8 || !c.Params[0].NonZero {
		t.Errorf("clamp param = %s, want nonzero [4, 8]", c.Params[0])
	}
}

// TestUnknownCallerForcesTop: a method with any caller the analysis cannot
// build SSA for (here an @uncompilable one) must keep top parameter
// summaries — that caller's argument ranges were never accumulated.
func TestUnknownCallerForcesTop(t *testing.T) {
	static := analyzeSource(t, `
func shared(int x) int { return x * 2; }
@uncompilable
func weird() int { return shared(1000000); }
func main() int {
	int r = shared(1) + weird();
	print_int(r);
	return r;
}`)
	s := summaryOf(t, static, "shared")
	if !s.Params[0].IsTop() {
		t.Errorf("shared param = %s, want top (uncompilable caller)", s.Params[0])
	}
}

// TestEntryParamsStayTop: the entry point is invoked from outside any managed
// body, so nothing may constrain its parameters (none here) or be derived
// from absent call sites; its return summary may still narrow.
func TestEntryParamsStayTop(t *testing.T) {
	static := analyzeSource(t, `
func main() int { print_int(1); return 1; }`)
	s := summaryOf(t, static, "main")
	if s.Ret.Lo != 1 || s.Ret.Hi != 1 {
		t.Errorf("main ret = %s, want [1, 1]", s.Ret)
	}
}

// TestVirtualFanOut: a virtual call contributes its argument ranges to every
// CHA/RTA implementation of the declared target.
func TestVirtualFanOut(t *testing.T) {
	static := analyzeSource(t, `
class A { func f(int v) int { return v + 1; } }
class B extends A { func f(int v) int { return v + 2; } }
func main() int {
	A a = new A();
	if (itof(3) > 1.0) { a = new B(); }
	int r = a.f(9);
	print_int(r);
	return r;
}`)
	for _, name := range []string{"A.f", "B.f"} {
		p := summaryOf(t, static, name).ParamRange(1) // slot 0 is the receiver
		if p.Lo != 9 || p.Hi != 9 {
			t.Errorf("%s param = %s, want [9, 9]", name, p)
		}
	}
}

// TestAttachDeterministic: two attachments over the same program must produce
// byte-identical summaries and reports — the property that keeps GA search
// traces reproducible with range analysis on.
func TestAttachDeterministic(t *testing.T) {
	app, err := apps.Build(apps.WitnessSpec())
	if err != nil {
		t.Fatal(err)
	}
	encode := func() ([]byte, []byte) {
		static := sa.Analyze(app.Prog)
		vra.Attach(static)
		sums, err := json.Marshal(static.Ranges)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := json.Marshal(vra.BuildReport("WitnessFilter", static, nil))
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

// TestReportSchema round-trips a report through JSON and the structural
// validator (the `audit ranges -json` path), then corrupts it in each
// way the schema forbids.
func TestReportSchema(t *testing.T) {
	app, err := apps.Build(apps.WitnessSpec())
	if err != nil {
		t.Fatal(err)
	}
	static := sa.Analyze(app.Prog)
	vra.Attach(static)
	// Mark every method hot so unproven checks produce witnesses.
	var hot []dex.MethodID
	for i := range app.Prog.Methods {
		hot = append(hot, dex.MethodID(i))
	}
	rep := vra.BuildReport("WitnessFilter", static, hot)
	if rep.Totals.Checks == 0 {
		t.Fatal("witness app has no bounds checks; schema cases below assume some")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := vra.ValidateReportJSON(data); err != nil {
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
		err = vra.ValidateReportJSON(bad)
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
		doc["schema_version"] = vra.ReportSchemaVersion + 1
	}, "schema_version")
	corrupt("missing app", func(doc map[string]any) {
		delete(doc, "app")
	}, "app")
	corrupt("totals mismatch", func(doc map[string]any) {
		doc["totals"].(map[string]any)["checks"] = 9999
	}, "totals.checks")
	corrupt("proven exceeds checks", func(doc map[string]any) {
		m := firstMethod(doc)
		m["proven"] = m["checks"].(float64) + 1
		// Keep totals consistent so the over-proof check is what fires.
		doc["totals"].(map[string]any)["proven"] = rep.Totals.Proven + 1
	}, "proves more")
	corrupt("missing hot flag", func(doc map[string]any) {
		delete(firstMethod(doc), "hot")
	}, "hot")
	corrupt("negative count", func(doc map[string]any) {
		doc["totals"].(map[string]any)["div_sites"] = -1
	}, "div_sites")
	corrupt("fractional schema version", func(doc map[string]any) {
		doc["schema_version"] = 1.5
	}, "schema_version")
	corrupt("fractional count", func(doc map[string]any) {
		firstMethod(doc)["checks"] = 2.5
	}, "methods[0].checks")
	corrupt("unknown key", func(doc map[string]any) {
		doc["totals"].(map[string]any)["discharged"] = 1
	}, "totals.discharged")
}
