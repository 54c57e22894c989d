package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"replayopt/internal/obs"
)

// endToEndUnits are the metrics of an untraced run (-trace 0), with their
// units. BENCHMARK.json lists the same names; the smoke test holds the two
// in step.
var endToEndUnits = map[string]string{
	"setup_s":                   "s",
	"wall_s":                    "s",
	"cpu_s":                     "s",
	"peak_mem_mb":               "MB",
	"correct_ratio":             "ratio",
	"speedup_ga_geomean":        "x",
	"region_speedup_ga_geomean": "x",
	"store_mb":                  "MB",
	"capture_pause_ms_mean":     "ms",
}

// perLayerUnits are the metrics of a traced run (-trace 1). Totals and counts
// sum over the workload's apps; percentiles pool every sample of the layer.
var perLayerUnits = map[string]string{
	"ga.search_s":       "s",
	"ga.search_self_s":  "s",
	"ga.evals":          "count",
	"ga.memo_hit_ratio": "ratio",
	"ga.eval_ms.p50":    "ms",
	"ga.eval_ms.p99":    "ms",
	"ga.worker_util":    "ratio",
	"ga.discard_ratio":  "ratio",

	"lir.compile_s":               "s",
	"lir.compile_ms.p50":          "ms",
	"lir.compile_ms.p99":          "ms",
	"lir.candidate_compiles":      "count",
	"machine.hash_ms.p50":         "ms",
	"replay.template_ms":          "ms",
	"replay.warm_ms.p50":          "ms",
	"replay.warm_ms.p99":          "ms",
	"replay.warm_s":               "s",
	"replay.cold_ms.p50":          "ms",
	"replay.distinct_image_ratio": "ratio",
	"verify.check_ms.p50":         "ms",
	"verify.build_ms":             "ms",
	"verify.vmap_entries":         "count",

	"core.prepare_s":          "s",
	"core.eval_image_ms.p50":  "ms",
	"core.online_run_ms.mean": "ms",
	"core.online_s":           "s",
	"rtrace.trace_region_ms":  "ms",

	"aot.compile_ms":     "ms",
	"profile.run_ms":     "ms",
	"profile.analyze_ms": "ms",
	"sa.vra_ms":          "ms",
	"sa.pts_ms":          "ms",
	"capture.capture_ms": "ms",
	"capture.pages":      "count",

	"castore.persist_ms":    "ms",
	"castore.load_ms":       "ms",
	"replay.loaded_cold_ms": "ms",
	"castore.dedup_ratio":   "ratio",

	"trace.untraced_s": "s",
	"trace.traced_s":   "s",
	"trace.overhead_s": "s",
}

// units is every metric name the benchmark can emit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, tab := range []map[string]string{endToEndUnits, perLayerUnits} {
		for k, v := range tab {
			u[k] = v
		}
	}
	return u
}()

// usage is the process's CPU time and peak resident memory so far.
type usage struct {
	cpu     time.Duration
	maxRSSK int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSK: int64(ru.Maxrss)}
}

// geomean of positive values; 0 when there are none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// percentile is the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spanIndex groups a traced run's spans by name and by parent.
type spanIndex struct {
	byName   map[string][]obs.SpanData
	children map[uint64][]obs.SpanData
}

func indexSpans(spans []obs.SpanData) spanIndex {
	ix := spanIndex{byName: map[string][]obs.SpanData{}, children: map[uint64][]obs.SpanData{}}
	for _, sd := range spans {
		ix.byName[sd.Name] = append(ix.byName[sd.Name], sd)
		if sd.Parent != 0 {
			ix.children[sd.Parent] = append(ix.children[sd.Parent], sd)
		}
	}
	return ix
}

// ms returns the durations of every span called name, in milliseconds.
func (ix spanIndex) ms(name string) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, sd := range ix.byName[name] {
		out = append(out, float64(sd.DurUS)/1000)
	}
	return out
}

// totalS sums the durations of every span called name, in seconds.
func (ix spanIndex) totalS(name string) float64 { return sum(ix.ms(name)) / 1000 }

// selfS is the self time, in seconds, of every span called name: its
// duration minus the part of its interval that its child spans cover.
// Children may overlap (parallel GA workers), so covered time is the union
// of their intervals.
func (ix spanIndex) selfS(name string) float64 {
	var self int64
	for _, sd := range ix.byName[name] {
		kids := ix.children[sd.ID]
		iv := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			iv = append(iv, [2]int64{k.StartUS, k.StartUS + k.DurUS})
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64 = 0, math.MinInt64
		for _, v := range iv {
			lo := max(v[0], end)
			if v[1] > lo {
				covered += v[1] - lo
			}
			end = max(end, v[1])
		}
		self += sd.DurUS - covered
	}
	return float64(self) / 1e6
}
