package tv

import "fmt"

// BenchSchemaVersion versions BENCH_tv.json.
const BenchSchemaVersion = 1

// BenchPreset is one (app, preset) row of BENCH_tv.json: compile time plain
// and with the checker attached, and the verdict composition.
type BenchPreset struct {
	App        string  `json:"app" schema:"nonempty"`
	Preset     string  `json:"preset" schema:"nonempty"`
	PlainMs    float64 `json:"compile_ms"`
	CheckedMs  float64 `json:"compile_checked_ms"`
	PerPassUs  float64 `json:"validate_per_pass_us"`
	Verified   int     `json:"verified"`
	Unverified int     `json:"unverified"`
	Rejected   int     `json:"rejected"`
}

// Bench is the BENCH_tv.json document written by
// BenchmarkTranslationValidation.
type Bench struct {
	SchemaVersion    int           `json:"schema_version"`
	Benchmark        string        `json:"benchmark"`
	Presets          []BenchPreset `json:"presets"`
	CompileMs        float64       `json:"compile_ms"`
	CompileCheckedMs float64       `json:"compile_checked_ms"`
	Verified         int           `json:"verified"`
	Unverified       int           `json:"unverified"`
	TVRejects        int           `json:"tv_rejects"`
	ReplayEvalsSaved int           `json:"replay_evals_saved"`
}

// Check holds the artifact's invariants: no stock preset earns a Rejected
// verdict and the verdict totals reconcile with the rows. The search's
// tv_rejects and replay_evals_saved are reported, not gated: whether a seeded
// search samples tvbreak depends on the catalog, so the benchmark proves the
// early discard on a fixed tvbreak candidate instead.
func (b *Bench) Check() error {
	if b.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", b.SchemaVersion, BenchSchemaVersion)
	}
	if b.Benchmark != "TranslationValidation" {
		return fmt.Errorf("benchmark %q, want TranslationValidation", b.Benchmark)
	}
	if len(b.Presets) == 0 {
		return fmt.Errorf("presets: no rows")
	}
	verified, unverified := 0, 0
	for i, r := range b.Presets {
		if r.Rejected != 0 {
			return fmt.Errorf("presets[%d] (%s %s): %d passes rejected on the stock pipeline", i, r.App, r.Preset, r.Rejected)
		}
		verified += r.Verified
		unverified += r.Unverified
	}
	if verified != b.Verified || unverified != b.Unverified {
		return fmt.Errorf("verified/unverified %d/%d but rows sum to %d/%d", b.Verified, b.Unverified, verified, unverified)
	}
	return nil
}
