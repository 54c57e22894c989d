package sa_test

import (
	"encoding/json"
	"strings"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/sa"
)

// TestReportSchema round-trips the witness app's report through JSON and the
// structural validator — the same check `audit effects -json` performs —
// then corrupts the document in each way the schema forbids and asserts the
// validator rejects it.
func TestReportSchema(t *testing.T) {
	app, err := apps.Build(apps.WitnessSpec())
	if err != nil {
		t.Fatal(err)
	}
	rep := sa.Analyze(app.Prog).Report("WitnessFilter")
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.ValidateReportJSON(data); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	if len(rep.Witnesses) == 0 {
		t.Fatal("witness app produced no witnesses; corruption cases below assume some")
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
		err = sa.ValidateReportJSON(bad)
		if err == nil {
			t.Errorf("%s: corrupted report accepted", name)
			return
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantErr)
		}
	}

	corrupt("wrong schema version", func(doc map[string]any) {
		doc["schema_version"] = sa.ReportSchemaVersion + 1
	}, "schema_version")
	corrupt("missing app", func(doc map[string]any) {
		delete(doc, "app")
	}, "app")
	corrupt("methods not array", func(doc map[string]any) {
		doc["methods"] = "nope"
	}, "methods")
	corrupt("method missing effect", func(doc map[string]any) {
		m := doc["methods"].([]any)[0].(map[string]any)
		delete(m, "effect")
	}, "effect")
	corrupt("replayable with hazards", func(doc map[string]any) {
		m := doc["methods"].([]any)[0].(map[string]any)
		m["replayable"] = true
		m["hazards"] = []any{"IO"}
	}, "hazards")
	corrupt("coverage out of sync", func(doc map[string]any) {
		cov := doc["coverage"].(map[string]any)
		cov["replayable"] = cov["replayable"].(float64) + 1
	}, "coverage.replayable")
	corrupt("empty witness chain", func(doc map[string]any) {
		w := doc["witnesses"].([]any)[0].(map[string]any)
		w["chain"] = []any{}
	}, "chain")
	corrupt("chain not rooted at method", func(doc map[string]any) {
		w := doc["witnesses"].([]any)[0].(map[string]any)
		w["chain"] = []any{"someoneElse"}
	}, "chain")

	corrupt("fractional schema version", func(doc map[string]any) {
		doc["schema_version"] = 1.5
	}, "schema_version")
	corrupt("fractional count", func(doc map[string]any) {
		cov := doc["coverage"].(map[string]any)
		cov["methods"] = cov["methods"].(float64) + 0.5
	}, "coverage.methods")
	corrupt("negative count", func(doc map[string]any) {
		doc["coverage"].(map[string]any)["reachable"] = -1
	}, "coverage.reachable")
	corrupt("unknown key", func(doc map[string]any) {
		doc["methods"].([]any)[0].(map[string]any)["verdict"] = "ok"
	}, "methods[0].verdict")

	if sa.ValidateReportJSON([]byte("{not json")) == nil {
		t.Error("non-JSON accepted")
	}
}
