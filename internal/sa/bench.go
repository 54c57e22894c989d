package sa

import "fmt"

// BenchSchemaVersion versions BENCH_sa.json.
const BenchSchemaVersion = 2

// BenchApp is one app of BENCH_sa.json: deep-replayable methods under the
// §3.1 boolean blocklist and under effect summaries, and the GC checks and
// virtual calls the backend emits without and with the summaries.
type BenchApp struct {
	App           string `json:"app" schema:"nonempty"`
	Methods       int    `json:"methods"`
	DeepBlocklist int    `json:"deep_replayable_blocklist"`
	DeepEffects   int    `json:"deep_replayable_effects"`
	GCChkBaseline int    `json:"gcchk_baseline"`
	GCChkEffects  int    `json:"gcchk_effects"`
	CallVBaseline int    `json:"callv_baseline"`
	CallVEffects  int    `json:"callv_effects"`
}

// BenchVmap is one §3.4 verification-map subject of BENCH_sa.json, built
// conservatively and effect-aware.
type BenchVmap struct {
	App                 string `json:"app" schema:"nonempty"`
	Region              string `json:"region_root"`
	RegionEffect        string `json:"region_effect"`
	EntriesConservative int    `json:"entries_conservative"`
	EntriesEffects      int    `json:"entries_effects"`
	StoresSkipped       bool   `json:"stores_skipped"`
}

// Bench is the BENCH_sa.json document written by BenchmarkEffectAnalysis.
type Bench struct {
	SchemaVersion      int         `json:"schema_version"`
	Benchmark          string      `json:"benchmark"`
	Apps               []BenchApp  `json:"apps"`
	Vmap               []BenchVmap `json:"vmap"`
	DeepBlocklist      int         `json:"deep_replayable_blocklist"`
	DeepEffects        int         `json:"deep_replayable_effects"`
	GCChkEliminated    int         `json:"gcchk_eliminated"`
	CallVDevirtualized int         `json:"callv_devirtualized"`
}

// Check holds the artifact's invariants: no app has more deep-replayable
// methods than methods, the effect-aware verification maps never grow, and
// the totals reconcile with the rows.
func (b *Bench) Check() error {
	if b.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", b.SchemaVersion, BenchSchemaVersion)
	}
	if b.Benchmark != "EffectAnalysis" {
		return fmt.Errorf("benchmark %q, want EffectAnalysis", b.Benchmark)
	}
	if len(b.Apps) == 0 {
		return fmt.Errorf("apps: no rows")
	}
	var deepBlock, deepEff, gcElim, callvElim int
	for i, r := range b.Apps {
		if r.DeepBlocklist > r.Methods || r.DeepEffects > r.Methods {
			return fmt.Errorf("apps[%d] (%s): more deep-replayable methods than methods", i, r.App)
		}
		deepBlock += r.DeepBlocklist
		deepEff += r.DeepEffects
		gcElim += r.GCChkBaseline - r.GCChkEffects
		callvElim += r.CallVBaseline - r.CallVEffects
	}
	for _, c := range []struct {
		key       string
		got, want int
	}{
		{"deep_replayable_blocklist", b.DeepBlocklist, deepBlock},
		{"deep_replayable_effects", b.DeepEffects, deepEff},
		{"gcchk_eliminated", b.GCChkEliminated, gcElim},
		{"callv_devirtualized", b.CallVDevirtualized, callvElim},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s = %d but rows sum to %d", c.key, c.got, c.want)
		}
	}
	for i, v := range b.Vmap {
		if v.EntriesEffects > v.EntriesConservative {
			return fmt.Errorf("vmap[%d] (%s): effect-aware map grew (%d -> %d entries)",
				i, v.App, v.EntriesConservative, v.EntriesEffects)
		}
	}
	return nil
}
