package main

import (
	"fmt"
	"io"
	"os"
	"reflect"

	"replayopt/internal/fleet"
	"replayopt/internal/ga"
	"replayopt/internal/schema"
)

// runBench checks a BENCH_*.json artifact and prints its table, or with
// -compare gates it on a baseline of the same benchmark. SearchParallel is
// gated on each baseline cell's evals/sec (cells new to the artifact are
// allowed; -compare-normalized divides every cell by the run's cold serial
// cell so machine speed cancels), and Fleet on cache hit ratio and
// uploads/sec.
func runBench(e *env, args []string) int {
	fs := e.flags()
	baseline := fs.String("compare", "", "baseline artifact to regression-check the argument against")
	tolerance := fs.Float64("tolerance", 0.2, "allowed fractional regression in -compare")
	normalized := fs.Bool("compare-normalized", false, "SearchParallel: compare cells relative to each run's cold serial cell")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return e.fail(2, "usage: audit bench [-compare base.json [-tolerance 0.2] [-compare-normalized]] BENCH_file.json")
	}
	path := fs.Arg(0)
	doc, err := loadBench(path)
	if err != nil {
		return e.fail(1, "%v", err)
	}
	if *baseline == "" {
		printBench(e.stdout, path, doc)
		return 0
	}
	base, err := loadBench(*baseline)
	if err != nil {
		return e.fail(1, "%v", err)
	}
	if reflect.TypeOf(base) != reflect.TypeOf(doc) {
		return e.fail(2, "-compare needs two artifacts of the same benchmark")
	}
	switch b := base.(type) {
	case *ga.Bench:
		err = compareParallel(e.stdout, b, doc.(*ga.Bench), *tolerance, *normalized)
	case *fleet.Bench:
		err = compareFleet(e.stdout, b, doc.(*fleet.Bench), *tolerance)
	default:
		return e.fail(2, "-compare gates SearchParallel and Fleet artifacts only")
	}
	if err != nil {
		return e.fail(1, "%v", err)
	}
	fmt.Fprintf(e.stdout, "no regression beyond %.0f%% tolerance\n", *tolerance*100)
	return 0
}

func loadBench(path string) (schema.Checker, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := decode("bench", data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func printBench(w io.Writer, path string, doc schema.Checker) {
	switch d := doc.(type) {
	case *fleet.Bench:
		fmt.Fprintf(w, "%s: %s, %d devices over %d apps × %d classes: %d uploads (%.1f/sec, dedup %.1fx), %d searches (%.1f/hour, %d resumed evals), cache hit ratio %.3f\n",
			path, d.Benchmark, d.Devices, d.Apps, d.DeviceClasses,
			d.Uploads, d.UploadsPerSec, d.DedupFactor,
			d.SearchesRun, d.SearchesPerHr, d.ResumedEvals, d.CacheHitRatio)
		for _, r := range d.Sweep {
			fmt.Fprintf(w, "  concurrency=%-3d uploads=%-5d %8.1f uploads/sec\n", r.Concurrency, r.Uploads, r.UploadsPerSec)
		}
	case *ga.Bench:
		fmt.Fprintf(w, "%s: %s on %s (%s scale), warm speedup %.2fx at %d workers\n",
			path, d.Benchmark, d.App, d.Scale, d.WarmSpeedup, d.MaxWorkers)
		fmt.Fprintf(w, "restore p50 %.3f ms, clone p50 %.3f ms, reset p50 %.3f ms; %d template builds, %d warm runs\n",
			d.RestoreP50Ms, d.CloneP50Ms, d.ResetP50Ms, d.TemplateBuilds, d.WarmRuns)
		for _, r := range d.Rows {
			fmt.Fprintf(w, "  workers=%-2d warm=%-5v %8.0f ms  %8.1f evals/sec\n", r.Workers, r.Warm, r.Ms, r.EvalsPerSec)
		}
	default:
		fmt.Fprintf(w, "%s: artifact ok\n", path)
	}
}

// compareParallel gates the new artifact on the baseline: every baseline
// cell must still exist and hold at least (1 - tolerance) of its evals/sec.
// With normalize set, both sides are divided by their own cold serial cell
// first.
func compareParallel(w io.Writer, base, next *ga.Bench, tolerance float64, normalize bool) error {
	type cell struct {
		workers int
		warm    bool
	}
	cells := func(b *ga.Bench) map[cell]ga.BenchRow {
		m := map[cell]ga.BenchRow{}
		for _, r := range b.Rows {
			m[cell{r.Workers, r.Warm}] = r
		}
		return m
	}
	bc, nc := cells(base), cells(next)
	baseUnit, nextUnit := 1.0, 1.0
	if normalize {
		baseUnit = bc[cell{1, false}].EvalsPerSec
		nextUnit = nc[cell{1, false}].EvalsPerSec
	}
	var failed bool
	for _, br := range base.Rows {
		nr, ok := nc[cell{br.Workers, br.Warm}]
		if !ok {
			fmt.Fprintf(w, "MISSING workers=%-2d warm=%-5v (baseline %.1f evals/sec)\n",
				br.Workers, br.Warm, br.EvalsPerSec)
			failed = true
			continue
		}
		got, want := nr.EvalsPerSec/nextUnit, br.EvalsPerSec/baseUnit
		status := "ok"
		if got < want*(1-tolerance) {
			status = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(w, "%-9s workers=%-2d warm=%-5v %8.1f -> %8.1f evals/sec (%+.1f%%)\n",
			status, br.Workers, br.Warm, br.EvalsPerSec, nr.EvalsPerSec, (got/want-1)*100)
	}
	if failed {
		return fmt.Errorf("evals/sec regressed beyond %.0f%% tolerance", tolerance*100)
	}
	return nil
}

// compareFleet gates a new Fleet artifact on a baseline: the cache hit ratio
// and overall uploads/sec must each hold at least (1 - tolerance) of the
// baseline. Hit ratio is machine-independent; uploads/sec is a same-machine
// gate like the SearchParallel cells.
func compareFleet(w io.Writer, base, next *fleet.Bench, tolerance float64) error {
	var failed bool
	check := func(name string, b, n float64) {
		status := "ok"
		if n < b*(1-tolerance) {
			status = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(w, "%-9s %-16s %10.3f -> %10.3f\n", status, name, b, n)
	}
	check("cache_hit_ratio", base.CacheHitRatio, next.CacheHitRatio)
	check("uploads_per_sec", base.UploadsPerSec, next.UploadsPerSec)
	if failed {
		return fmt.Errorf("fleet artifact regressed beyond %.0f%% tolerance", tolerance*100)
	}
	return nil
}
