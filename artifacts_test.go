package replayopt

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"replayopt/internal/capture/castore"
	"replayopt/internal/fleet"
	"replayopt/internal/ga"
	"replayopt/internal/lir/tv"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
	"replayopt/internal/schema"
)

// TestCommittedArtifacts decodes every committed BENCH_*.json baseline, byte
// for byte as it stands, through its one declared type and the strict
// decoder.
func TestCommittedArtifacts(t *testing.T) {
	for _, tc := range []struct {
		path string
		doc  schema.Checker
	}{
		{"BENCH_sa.json", new(sa.Bench)},
		{"BENCH_range.json", new(vra.Bench)},
		{"BENCH_alias.json", new(pts.Bench)},
		{"BENCH_tv.json", new(tv.Bench)},
		{"BENCH_parallel.json", new(ga.Bench)},
		{"BENCH_store.json", new(castore.Bench)},
		{"BENCH_fleet.json", new(fleet.Bench)},
	} {
		data, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := schema.Decode(data, tc.doc); err != nil {
			t.Errorf("%s: %v", tc.path, err)
		}
	}
}

// TestAliasArtifactRejectsMissingGate pins the defect of decoding into a
// zero-filled mirror: an alias artifact whose disambiguation floor or
// rejection count was deleted, with its kernel rows pushed to 1%, must fail
// instead of reading the missing keys as zero.
func TestAliasArtifactRejectsMissingGate(t *testing.T) {
	data, err := os.ReadFile("BENCH_alias.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, wantErr string
		mutate        func(doc map[string]any)
	}{
		{"floor deleted, kernels at 1%", "kernel_min_disambiguation_pct: missing", func(doc map[string]any) {
			delete(doc, "kernel_min_disambiguation_pct")
			for _, r := range doc["apps"].([]any) {
				if row := r.(map[string]any); row["kernel"] == true {
					row["disambiguation_pct"] = 1
				}
			}
		}},
		{"rejections deleted", "tv_rejected: missing", func(doc map[string]any) {
			delete(doc, "tv_rejected")
		}},
	} {
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		c.mutate(doc)
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := schema.Decode(bad, new(pts.Bench)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.wantErr)
		}
	}
}
