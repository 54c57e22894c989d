package vra

import "fmt"

// BenchSchemaVersion versions BENCH_range.json.
const BenchSchemaVersion = 1

// BenchApp is one app of BENCH_range.json: hot-region machine bounds checks
// before and after the range passes, the unguarded divides they select, and
// the whole-program exec-cycle delta.
type BenchApp struct {
	App           string  `json:"app" schema:"nonempty"`
	Kernel        bool    `json:"kernel"`
	BoundsBase    int     `json:"bounds_base"`
	BoundsOpt     int     `json:"bounds_opt"`
	DischargePct  float64 `json:"discharge_pct"`
	UnguardedDivs int     `json:"unguarded_divs"`
	CyclesBase    uint64  `json:"cycles_base"`
	CyclesOpt     uint64  `json:"cycles_opt"`
	CycleDeltaPct float64 `json:"cycle_delta_pct"`
	AnalysisMs    float64 `json:"analysis_ms"`
}

// Bench is the BENCH_range.json document written by BenchmarkRangeAnalysis.
type Bench struct {
	SchemaVersion int        `json:"schema_version"`
	Benchmark     string     `json:"benchmark"`
	Apps          []BenchApp `json:"apps"`
	KernelMinPct  float64    `json:"kernel_min_discharge_pct"`
	Discharged    int        `json:"bounds_discharged"`
	TVRejected    int        `json:"tv_rejected"`
	TraceParity   bool       `json:"trace_parity"`
	TraceApp      string     `json:"trace_app" schema:"nonempty"`
}

// Check holds the artifact's invariants: sound per-app counts, every kernel
// subject at or above the discharge floor, totals that reconcile with the
// rows, no tv rejection, and decision-trace parity.
func (b *Bench) Check() error {
	if b.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", b.SchemaVersion, BenchSchemaVersion)
	}
	if b.Benchmark != "RangeAnalysis" {
		return fmt.Errorf("benchmark %q, want RangeAnalysis", b.Benchmark)
	}
	if len(b.Apps) == 0 {
		return fmt.Errorf("no app rows")
	}
	kernels, discharged := 0, 0
	for _, r := range b.Apps {
		if r.BoundsOpt > r.BoundsBase {
			return fmt.Errorf("%s: bounds_opt %d exceeds bounds_base %d (unsound count)", r.App, r.BoundsOpt, r.BoundsBase)
		}
		if r.CyclesBase == 0 || r.CyclesOpt == 0 {
			return fmt.Errorf("%s: zero exec cycles", r.App)
		}
		if r.Kernel {
			kernels++
			if r.DischargePct < b.KernelMinPct {
				return fmt.Errorf("%s: kernel subject discharged %.0f%%, floor is %.0f%%", r.App, r.DischargePct, b.KernelMinPct)
			}
		}
		discharged += r.BoundsBase - r.BoundsOpt
	}
	if kernels == 0 {
		return fmt.Errorf("no kernel subjects gated")
	}
	if discharged != b.Discharged {
		return fmt.Errorf("bounds_discharged %d but rows sum to %d", b.Discharged, discharged)
	}
	if b.TVRejected != 0 {
		return fmt.Errorf("tv_rejected %d: range passes must never be Rejected", b.TVRejected)
	}
	if !b.TraceParity {
		return fmt.Errorf("trace_parity false: attached summaries perturbed an excluded-pass search")
	}
	return nil
}
