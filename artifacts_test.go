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

// TestArtifactRejectsMissingGate pins the defect of decoding into a
// zero-filled mirror: a fleet artifact whose dropped-job count or cache hit
// ratio was deleted must fail instead of reading the missing key as zero. A
// zero read for dropped_jobs would pass the artifact's own no-lost-work gate.
func TestArtifactRejectsMissingGate(t *testing.T) {
	data, err := os.ReadFile("BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"dropped_jobs", "cache_hit_ratio"} {
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		delete(doc, key)
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		want := key + ": missing"
		if err := schema.Decode(bad, new(fleet.Bench)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s deleted: error %v does not mention %q", key, err, want)
		}
	}
}
