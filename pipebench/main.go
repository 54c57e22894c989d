// Command pipebench is the repository's pipeline benchmark. It runs the
// paper's Fig. 6 loop — core.Optimize at the §4 budget — and the
// capture/castore intake path through public entry points only, and reports
// end-to-end metrics from an untraced run (-trace 0) or per-layer metrics
// from a separate traced run (-trace 1) that records its own obs spans around
// each call into a layer.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash pipebench/run.sh --workload search-compile --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. README.md in this directory describes the
// workloads, the metrics and which layer each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the simulated device the pipeline runs on")
	seconds := flag.Float64("seconds", 10, "how long to keep repeating the workload's operations")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/runs", "directory for castore files and span traces")
	flag.Parse()

	w, ok := workloadByName(*workload)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "pipebench: need -workload (%s), -trace 0|1 and -seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := defaultConfig(w, *seed, *seconds)
	cfg.outDir, cfg.root = *out, "." // run from the repository root
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}

	prov := collectProvenance(cfg, *trace == 1)
	if b, err := json.Marshal(prov); err == nil {
		fmt.Printf("provenance %s\n", b)
	}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(cfg, prov)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics accumulates named values; the unit comes from the metric tables in
// metrics.go, so a name without a declared unit is a bug caught by the tests.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("pipebench: metric without a declared unit: " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// checks counts the workload's checked operations and the ones that failed.
// A failure is reported on standard error and never aborts the run.
type checks struct{ attempted, failed int }

func (c *checks) record(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "pipebench: check failed: "+format+"\n", args...)
	}
}

func (c *checks) result(m metrics) result {
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}
