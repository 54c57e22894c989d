package pts

import "fmt"

// BenchSchemaVersion versions BENCH_alias.json.
const BenchSchemaVersion = 1

// BenchApp is one app of BENCH_alias.json: same-kind access pairs the
// analysis disambiguates, allocation sites proven local, and the
// whole-program exec-cycle delta of the alias-aware memory pipeline.
type BenchApp struct {
	App               string  `json:"app" schema:"nonempty"`
	Kernel            bool    `json:"kernel"`
	Pairs             int     `json:"pairs"`
	Proven            int     `json:"proven"`
	DisambiguationPct float64 `json:"disambiguation_pct"`
	Sites             int     `json:"sites"`
	NonEscaping       int     `json:"non_escaping"`
	CyclesBase        uint64  `json:"cycles_base"`
	CyclesOpt         uint64  `json:"cycles_opt"`
	CycleDeltaPct     float64 `json:"cycle_delta_pct"`
	AnalysisMs        float64 `json:"analysis_ms"`
}

// BenchVmap is one §3.4 verification-map subject of BENCH_alias.json, built
// with alias summaries nulled (blind) and attached.
type BenchVmap struct {
	App          string `json:"app" schema:"nonempty"`
	Region       string `json:"region"`
	EntriesBlind int    `json:"entries_blind"`
	EntriesAlias int    `json:"entries_alias"`
	StoresElided int    `json:"stores_elided"`
}

// Bench is the BENCH_alias.json document written by BenchmarkAliasAnalysis.
type Bench struct {
	SchemaVersion int         `json:"schema_version"`
	Benchmark     string      `json:"benchmark"`
	Apps          []BenchApp  `json:"apps"`
	Vmap          []BenchVmap `json:"vmap"`
	KernelMinPct  float64     `json:"kernel_min_disambiguation_pct"`
	PairsProven   int         `json:"pairs_proven"`
	PairsTotal    int         `json:"pairs_total"`
	StoresElided  int         `json:"stores_elided"`
	TVRejected    int         `json:"tv_rejected"`
	TraceParity   bool        `json:"trace_parity"`
	TraceApp      string      `json:"trace_app" schema:"nonempty"`
}

// Check holds the artifact's invariants: sound per-app counts, every kernel
// subject at or above the disambiguation floor, totals that reconcile with
// the rows, a verification-map size win, no tv rejection, and
// decision-trace parity.
func (b *Bench) Check() error {
	if b.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", b.SchemaVersion, BenchSchemaVersion)
	}
	if b.Benchmark != "AliasAnalysis" {
		return fmt.Errorf("benchmark %q, want AliasAnalysis", b.Benchmark)
	}
	if len(b.Apps) == 0 {
		return fmt.Errorf("no app rows")
	}
	kernels, proven, pairs := 0, 0, 0
	for _, r := range b.Apps {
		if r.Proven > r.Pairs {
			return fmt.Errorf("%s: proven %d exceeds pairs %d (unsound count)", r.App, r.Proven, r.Pairs)
		}
		if r.NonEscaping > r.Sites {
			return fmt.Errorf("%s: non_escaping %d exceeds sites %d", r.App, r.NonEscaping, r.Sites)
		}
		if r.CyclesBase == 0 || r.CyclesOpt == 0 {
			return fmt.Errorf("%s: zero exec cycles", r.App)
		}
		if r.Kernel {
			kernels++
			if r.DisambiguationPct < b.KernelMinPct {
				return fmt.Errorf("%s: kernel subject disambiguated %.0f%%, floor is %.0f%%", r.App, r.DisambiguationPct, b.KernelMinPct)
			}
		}
		proven += r.Proven
		pairs += r.Pairs
	}
	if kernels == 0 {
		return fmt.Errorf("no kernel subjects gated")
	}
	if proven != b.PairsProven || pairs != b.PairsTotal {
		return fmt.Errorf("pairs_proven/pairs_total %d/%d but rows sum to %d/%d", b.PairsProven, b.PairsTotal, proven, pairs)
	}
	elided, shrunk := 0, 0
	for _, v := range b.Vmap {
		if v.EntriesAlias > v.EntriesBlind {
			return fmt.Errorf("%s: alias-aware vmap grew (%d -> %d entries)", v.App, v.EntriesBlind, v.EntriesAlias)
		}
		elided += v.StoresElided
		shrunk += v.EntriesBlind - v.EntriesAlias
	}
	if elided != b.StoresElided {
		return fmt.Errorf("stores_elided %d but vmap rows sum to %d", b.StoresElided, elided)
	}
	if shrunk <= 0 {
		return fmt.Errorf("no vmap size win over the blind maps")
	}
	if b.TVRejected != 0 {
		return fmt.Errorf("tv_rejected %d: alias passes must never be Rejected", b.TVRejected)
	}
	if !b.TraceParity {
		return fmt.Errorf("trace_parity false: attached summaries perturbed an excluded-pass search")
	}
	return nil
}
