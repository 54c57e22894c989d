package main

import (
	"encoding/json"
	"os"
	"testing"

	"replayopt/internal/obs"
)

// smokeConfig shrinks a workload to its first app and a GA budget of a few
// genomes, so every code path of a run finishes in about a second.
func smokeConfig(t *testing.T, w workload) config {
	t.Helper()
	c := defaultConfig(w, 1, 0.001)
	c.w.apps = w.apps[:1]
	c.opts.GA.Population = 6
	c.opts.GA.Generations = 2
	c.opts.GA.HillClimbBudget = 2
	c.opts.OnlineRuns = 2
	c.setupSamples = 1
	c.outDir = t.TempDir()
	c.root = ".."
	return c
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, c config, traced bool) result {
	t.Helper()
	var res result
	var err error
	if traced {
		res, err = runTraced(c, collectProvenance(c, true))
	} else {
		res, err = runEndToEnd(c)
	}
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", c.w.name, traced, err)
	}
	return res
}

func TestSmokeEmitsEveryMetricWithItsUnit(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			res := run(t, smokeConfig(t, w), traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d",
					w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics emitted, BENCHMARK.json names %d",
					w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced=%v): metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestWrongReferenceCountsAsFailed(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := smokeConfig(t, w)
			c.wrongRef = true
			res := run(t, c, traced)
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s (traced=%v): a wrong reference passed: correct=%v failed=%d/%d",
					w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if r, ok := res.Metrics["correct_ratio"]; ok && r.Value >= 1 {
				t.Errorf("%s: correct_ratio %v with a wrong reference", w.name, r.Value)
			}
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ix := indexSpans([]obs.SpanData{
		{ID: 1, Name: "ga.search", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "ga.eval", StartUS: 10, DurUS: 30},
		{ID: 3, Parent: 1, Name: "ga.eval", StartUS: 20, DurUS: 30}, // overlaps 2
		{ID: 4, Parent: 1, Name: "ga.eval", StartUS: 80, DurUS: 10},
	})
	if got, want := ix.selfS("ga.search"), 50e-6; got != want {
		t.Fatalf("self time %v s, want %v s", got, want)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
}
