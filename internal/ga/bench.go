package ga

import "fmt"

// BenchSchemaVersion versions BENCH_parallel.json.
const BenchSchemaVersion = 3

// BenchRow is one cell of the worker-count × warm sweep: the same seeded
// search, timed.
type BenchRow struct {
	Workers     int     `json:"workers"`
	Warm        bool    `json:"warm"`
	Ms          float64 `json:"ms"`
	Evaluations int     `json:"evaluations"`
	EvalsPerSec float64 `json:"evals_per_sec"`
}

// BenchGen is one generation of the instrumented (warm, all-workers) run.
type BenchGen struct {
	Gen       int     `json:"gen"`
	Evals     int     `json:"evals"`
	CacheHits int     `json:"cache_hits"`
	P50Ms     float64 `json:"eval_p50_ms"`
	P99Ms     float64 `json:"eval_p99_ms"`
	BestSpeed float64 `json:"best_speedup"`
}

// Bench is the BENCH_parallel.json document written by
// BenchmarkSearchParallel.
type Bench struct {
	SchemaVersion  int        `json:"schema_version"`
	Benchmark      string     `json:"benchmark"`
	App            string     `json:"app" schema:"nonempty"`
	Scale          string     `json:"scale"`
	MaxWorkers     int        `json:"max_workers"`
	Rows           []BenchRow `json:"rows"`
	WarmSpeedup    float64    `json:"warm_speedup"`
	Evaluations    int        `json:"evaluations"`
	CacheHits      int        `json:"cache_hits"`
	Considered     int        `json:"considered"`
	SavedReplayMs  float64    `json:"saved_replay_ms"`
	EvalP50Ms      float64    `json:"eval_p50_ms"`
	EvalP99Ms      float64    `json:"eval_p99_ms"`
	RestoreP50Ms   float64    `json:"restore_p50_ms"`
	CloneP50Ms     float64    `json:"clone_p50_ms"`
	ResetP50Ms     float64    `json:"reset_p50_ms"`
	TemplateBuilds int64      `json:"template_builds"`
	WarmRuns       int64      `json:"warm_runs"`
	Generations    []BenchGen `json:"generations"`
}

// Check holds the artifact's invariants: positive timings in every cell, no
// duplicate cell, the serial and max_workers cells present both cold and
// warm, and a warm run that actually replayed warm.
func (b *Bench) Check() error {
	if b.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", b.SchemaVersion, BenchSchemaVersion)
	}
	if b.Benchmark != "SearchParallel" {
		return fmt.Errorf("benchmark %q, want SearchParallel", b.Benchmark)
	}
	if b.MaxWorkers < 1 {
		return fmt.Errorf("max_workers %d", b.MaxWorkers)
	}
	if len(b.Rows) == 0 {
		return fmt.Errorf("no sweep rows")
	}
	type cell struct {
		workers int
		warm    bool
	}
	seen := map[cell]bool{}
	for i, r := range b.Rows {
		if r.Workers < 1 || r.Ms <= 0 || r.Evaluations <= 0 || r.EvalsPerSec <= 0 {
			return fmt.Errorf("row %d (workers=%d warm=%v): non-positive field", i, r.Workers, r.Warm)
		}
		c := cell{r.Workers, r.Warm}
		if seen[c] {
			return fmt.Errorf("duplicate cell workers=%d warm=%v", r.Workers, r.Warm)
		}
		seen[c] = true
	}
	for _, warm := range []bool{false, true} {
		if !seen[cell{1, warm}] {
			return fmt.Errorf("missing serial cell warm=%v", warm)
		}
		if !seen[cell{b.MaxWorkers, warm}] {
			return fmt.Errorf("missing max_workers=%d cell warm=%v", b.MaxWorkers, warm)
		}
	}
	if b.WarmSpeedup <= 0 {
		return fmt.Errorf("warm_speedup %.3f", b.WarmSpeedup)
	}
	if b.WarmRuns < 1 {
		return fmt.Errorf("warm_runs %d: warm cells ran but no warm replay was recorded", b.WarmRuns)
	}
	if b.TemplateBuilds < 1 {
		return fmt.Errorf("template_builds %d", b.TemplateBuilds)
	}
	return nil
}
