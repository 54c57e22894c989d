package replayopt

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus the DESIGN.md §6 ablations. Each benchmark runs the
// corresponding experiment and prints the regenerated table, so
//
//	go test -bench=. -benchtime=1x .
//
// reproduces the whole evaluation. Benchmarks default to the quick scale
// (same pipeline, smaller GA population and sample counts; shapes hold);
// set REPLAYOPT_FULL=1 for the paper's exact §4 budgets, or run
// cmd/experiments -scale full.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"replayopt/internal/apps"
	"replayopt/internal/capture"
	"replayopt/internal/capture/castore"
	"replayopt/internal/core"
	"replayopt/internal/device"
	"replayopt/internal/exp"
	"replayopt/internal/ga"
	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/mem"
	"replayopt/internal/minic"
	"replayopt/internal/obs"
	"replayopt/internal/rt"
	"replayopt/internal/schema"
)

func benchScale(b *testing.B) exp.Scale {
	b.Helper()
	if os.Getenv("REPLAYOPT_FULL") == "1" {
		return exp.Full()
	}
	return exp.Quick()
}

const benchSeed = 1

// writeArtifact checks doc through the strict decoder, as `audit check bench`
// will, and writes it to path as indented JSON.
func writeArtifact(b *testing.B, path string, doc schema.Checker) {
	b.Helper()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := schema.Decode(data, doc); err != nil {
		b.Fatalf("%s fails its own schema: %v", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table1()
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, t, err := exp.Figure1(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
		b.ReportMetric(res.CorrectFraction()*100, "%correct")
		b.ReportMetric(res.RuntimeFailFraction()*100, "%runtime-fail")
	}
}

func BenchmarkFigure2(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, t, err := exp.Figure2(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
		slower := 0
		for _, s := range res.Speedups {
			if s < 1 {
				slower++
			}
		}
		b.ReportMetric(float64(slower)/float64(len(res.Speedups))*100, "%slower-than-Android")
	}
}

func BenchmarkFigure3(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, t, err := exp.Figure3(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
		b.ReportMetric(float64(res.OnlineStableEvals), "online-evals-to-10%")
		b.ReportMetric(float64(res.OfflineDecideEvals), "offline-evals-to-decide")
	}
}

// figure7 runs the full pipeline over all 21 apps and caches the result for
// Figure 9's derivation within the same benchmark run.
func BenchmarkFigure7(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, t, err := exp.Figure7(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
		b.ReportMetric(res.AvgGA, "avg-GA-speedup")
		b.ReportMetric(res.AvgO3, "avg-O3-speedup")
	}
}

func BenchmarkFigure9(b *testing.B) {
	scale := benchScale(b)
	// Figure 9 is derived from Figure 7's search traces; a smaller app
	// subset keeps the standalone benchmark affordable.
	scale.Apps = []string{"FFT", "BubbleSort", "MaterialLife", "DroidFish"}
	for i := 0; i < b.N; i++ {
		res, _, err := exp.Figure7(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		_, t9 := exp.Figure9(res)
		if i == 0 {
			fmt.Println(t9.String())
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Figure8(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		rows, t, err := exp.Figure10(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
		var sum float64
		for _, r := range rows {
			sum += r.Stats.TotalMs()
		}
		b.ReportMetric(sum/float64(len(rows)), "avg-capture-ms")
	}
}

func BenchmarkFigure11(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		rows, t, err := exp.Figure11(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
		var sum float64
		for _, r := range rows {
			sum += r.ProgramMB
		}
		b.ReportMetric(sum/float64(len(rows)), "avg-program-MB")
	}
}

func BenchmarkAblationCoW(b *testing.B) {
	scale := benchScale(b)
	scale.Apps = []string{"FFT", "BubbleSort", "MaterialLife"}
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationCoW(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkAblationFullSnapshot(b *testing.B) {
	scale := benchScale(b)
	scale.Apps = []string{"FFT", "Poker Odds (Vitosha)", "4inaRow"}
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationFullSnapshot(scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkAblationRandomSearch(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationRandomSearch(scale, benchSeed, "FFT")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkAblationNoVerify(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationNoVerify(scale, benchSeed, "FFT")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkAblationGCCheckElim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationGCCheckElim(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkAblationDevirt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationDevirt(benchSeed, "DroidFish")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkAblationCrossValidate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationCrossValidate(benchScale(b), benchSeed, "MaterialLife")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkAblationTTestFitness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationTTestFitness(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

func BenchmarkScheduleTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ScheduleTable(nil, benchScale(b), benchSeed, "FFT")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

// BenchmarkTranslationValidation measures the per-pass validator: compile
// overhead with the checker attached, verdict composition at each preset,
// and — with the deliberately miscompiling tvbreak pass dropped into the
// catalog — how many candidates a validated search discards statically and
// how many replay evaluations that saves. Results land in BENCH_tv.json.
func BenchmarkTranslationValidation(b *testing.B) {
	appNames := []string{"FFT", "BubbleSort", "MaterialLife", "DroidFish"}

	var rows []tv.BenchPreset
	var tvRejects, savedReplays int
	for i := 0; i < b.N; i++ {
		rows = nil
		for _, name := range appNames {
			spec, ok := apps.ByName(name)
			if !ok {
				b.Fatalf("unknown app %s", name)
			}
			app, err := apps.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			for _, preset := range []string{"O1", "O2", "O3"} {
				cfg, _ := lir.Preset(preset)
				start := time.Now()
				if _, err := lir.Compile(app.Prog, nil, cfg, nil, nil); err != nil {
					b.Fatal(err)
				}
				plainMs := time.Since(start).Seconds() * 1000
				chk := tv.NewChecker(tv.Options{})
				cfg.Observe(chk)
				start = time.Now()
				if _, err := lir.Compile(app.Prog, nil, cfg, nil, nil); err != nil {
					b.Fatal(err)
				}
				checkedMs := time.Since(start).Seconds() * 1000
				row := tv.BenchPreset{App: name, Preset: preset, PlainMs: plainMs, CheckedMs: checkedMs}
				row.Verified, row.Unverified, row.Rejected = chk.Counts()
				if n := len(chk.Verdicts); n > 0 {
					row.PerPassUs = (checkedMs - plainMs) * 1000 / float64(n)
				}
				if row.Rejected > 0 {
					b.Fatalf("%s %s: %d passes rejected on the stock pipeline", name, preset, row.Rejected)
				}
				rows = append(rows, row)
			}
		}

		// With tvbreak in the catalog, a validated search reports how many
		// candidates it stopped at compile time and the replays that saved.
		// Whether the search samples tvbreak at all is up to its seed, so
		// these figures are reported, not gated; TestEarlyDiscard proves the
		// claim itself on one fixed candidate.
		app, opts, cleanup, err := tvMiniApp()
		if err != nil {
			b.Fatal(err)
		}
		opts.TVCheck = true
		rep, err := core.New(opts).Optimize(app)
		cleanup()
		if err != nil {
			b.Fatal(err)
		}
		tvRejects = rep.SearchStats.TVRejects
		savedReplays = rep.SearchStats.TVSavedReplayEvals
	}

	var plain, checked float64
	var verified, unverified int
	for _, r := range rows {
		plain += r.PlainMs
		checked += r.CheckedMs
		verified += r.Verified
		unverified += r.Unverified
	}
	b.ReportMetric((checked-plain)/plain*100, "%compile-overhead")
	b.ReportMetric(float64(tvRejects), "tv-rejects")
	b.ReportMetric(float64(savedReplays), "replay-evals-saved")

	writeArtifact(b, "BENCH_tv.json", &tv.Bench{
		SchemaVersion:    tv.BenchSchemaVersion,
		Benchmark:        "TranslationValidation",
		Presets:          rows,
		CompileMs:        plain,
		CompileCheckedMs: checked,
		Verified:         verified,
		Unverified:       unverified,
		TVRejects:        tvRejects,
		ReplayEvalsSaved: savedReplays,
	})
	fmt.Printf("translation validation: %.0f%% compile overhead; %d/%d passes verified; %d candidates rejected statically, %d replays saved\n",
		(checked-plain)/plain*100, verified, verified+unverified, tvRejects, savedReplays)
}

// BenchmarkSearchParallel measures the replay throughput engine: the same
// seeded GA search swept across worker counts with warm replay workers on
// and off. Every cell of the sweep must produce a byte-identical decision
// trace (the determinism guarantee); only the wall clock may differ. Rows
// with evals/sec per cell land in BENCH_parallel.json (schema v3, validated
// and regression-checked by `audit bench`), alongside the restore/clone/
// reset histograms that show the warm path's amortization.
//
// The subject is Fibonacci.recv — a restore-bound region (short replay over
// a small heap), the shape the warm path targets. Exec-dominated apps
// (MonteCarlo, 4inaRow) spend their eval budget inside the region itself,
// so amortizing restore moves them far less; see README "Replay throughput".
const searchParallelApp = "Fibonacci.recv"

func BenchmarkSearchParallel(b *testing.B) {
	scale := benchScale(b)
	p, opt, err := exp.PrepareApp(searchParallelApp, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := scale.GA
	opts.BaselineAndroidMs = p.AndroidEval.MeanMs
	opts.BaselineO3Ms = p.O3Eval.MeanMs

	run := func(parallelism int, warm bool, parent *obs.Span) (*ga.Result, float64) {
		// A cold cell hides Prepared's ga.WorkerBinder, so the search falls
		// back to p.Evaluate, which restores the snapshot for every replay.
		var ev ga.Evaluator = struct{ ga.Evaluator }{p}
		if warm {
			ev = p
		}
		o := opts
		o.Parallelism = parallelism
		o.Obs = parent
		start := time.Now()
		res := ga.Search(rand.New(rand.NewSource(benchSeed)), ev, o)
		return res, time.Since(start).Seconds() * 1000
	}

	cpus := runtime.NumCPU()
	sweep := []int{1, 2, 4}
	if cpus > 4 {
		sweep = append(sweep, cpus)
	}

	var rows []ga.BenchRow
	var res *ga.Result
	var col *obs.Collect
	var reg *obs.Registry
	for i := 0; i < b.N; i++ {
		col = &obs.Collect{}
		sc := obs.New(col)
		reg = sc.Registry()
		// The replay scope records restore/clone/reset histograms for the
		// whole sweep; the last (warm, all-cores) run also carries the span
		// scope so the artifact keeps its per-generation latency rows.
		opt.Store.Obs = sc
		rows = rows[:0]
		refTrace := ""
		for _, warm := range []bool{false, true} {
			for _, w := range sweep {
				var parent *obs.Span
				instrumented := warm && w == sweep[len(sweep)-1]
				if instrumented {
					parent = sc.Start("search")
				}
				r, ms := run(w, warm, parent)
				if parent != nil {
					parent.End()
				}
				trace := r.DecisionTrace()
				if refTrace == "" {
					refTrace = trace
				} else if trace != refTrace {
					b.Fatalf("search diverged at workers=%d warm=%v", w, warm)
				}
				rows = append(rows, ga.BenchRow{
					Workers:     w,
					Warm:        warm,
					Ms:          ms,
					Evaluations: r.Stats.Evaluations,
					EvalsPerSec: float64(r.Stats.Evaluations) / (ms / 1000),
				})
				if instrumented {
					res = r
				}
			}
		}
		opt.Store.Obs = nil
	}
	cell := func(workers int, warm bool) ga.BenchRow {
		for _, r := range rows {
			if r.Workers == workers && r.Warm == warm {
				return r
			}
		}
		b.Fatalf("missing sweep cell workers=%d warm=%v", workers, warm)
		return ga.BenchRow{}
	}
	maxW := sweep[len(sweep)-1]
	coldPar, warmPar := cell(maxW, false), cell(maxW, true)
	warmSpeedup := coldPar.Ms / warmPar.Ms
	b.ReportMetric(cell(1, false).Ms, "cold-serial-ms")
	b.ReportMetric(coldPar.Ms, "cold-parallel-ms")
	b.ReportMetric(warmPar.Ms, "warm-parallel-ms")
	b.ReportMetric(warmSpeedup, "warm-speedup")
	b.ReportMetric(warmPar.EvalsPerSec, "evals/sec")

	var gens []ga.BenchGen
	for _, sd := range col.ByName("ga.generation") {
		gens = append(gens, ga.BenchGen{
			Gen:       int(obs.Num(sd.Attrs, "gen")),
			Evals:     int(obs.Num(sd.Attrs, "evals")),
			CacheHits: int(obs.Num(sd.Attrs, "cache_hits")),
			P50Ms:     obs.Num(sd.Attrs, "eval_p50_ms"),
			P99Ms:     obs.Num(sd.Attrs, "eval_p99_ms"),
			BestSpeed: obs.Num(sd.Attrs, "best_speedup"),
		})
	}
	evalHist := reg.Histogram("ga.eval_ms")
	restoreHist := reg.Histogram("replay.restore_ms")
	cloneHist := reg.Histogram("replay.clone_ms")
	resetHist := reg.Histogram("replay.reset_ms")

	writeArtifact(b, "BENCH_parallel.json", &ga.Bench{
		SchemaVersion:  ga.BenchSchemaVersion,
		Benchmark:      "SearchParallel",
		App:            searchParallelApp,
		Scale:          scale.Name,
		MaxWorkers:     maxW,
		Rows:           rows,
		WarmSpeedup:    warmSpeedup,
		Evaluations:    res.Stats.Evaluations,
		CacheHits:      res.Stats.CacheHits,
		Considered:     res.Stats.Considered,
		SavedReplayMs:  res.Stats.SavedReplayMs,
		EvalP50Ms:      evalHist.Quantile(0.50),
		EvalP99Ms:      evalHist.Quantile(0.99),
		RestoreP50Ms:   restoreHist.Quantile(0.50),
		CloneP50Ms:     cloneHist.Quantile(0.50),
		ResetP50Ms:     resetHist.Quantile(0.50),
		TemplateBuilds: reg.Counter("replay.template_builds").Value(),
		WarmRuns:       reg.Counter("replay.warm_runs").Value(),
		Generations:    gens,
	})
	fmt.Printf("search sweep (workers × warm):\n")
	for _, r := range rows {
		fmt.Printf("  workers=%-2d warm=%-5v %8.0f ms  %6.1f evals/sec\n", r.Workers, r.Warm, r.Ms, r.EvalsPerSec)
	}
	fmt.Printf("warm speedup at %d workers: %.2fx; restore p50 %.3f ms vs clone p50 %.3f ms, reset p50 %.3f ms\n",
		maxW, warmSpeedup, restoreHist.Quantile(0.5), cloneHist.Quantile(0.5), resetHist.Quantile(0.5))
}

// BenchmarkSnapshotStore measures the content-addressed snapshot store
// (DESIGN.md §10) against one gzip stream of the same raw pages on a
// multi-capture store — the §3.2 storage budget next to Fig. 11 — plus
// save/load/materialize latency and the corruption-recovery rate of the
// record format. Results land in BENCH_store.json (schema checked by
// `audit check bench`).
func BenchmarkSnapshotStore(b *testing.B) {
	const captures = 4
	store, err := benchCaptureStore(captures)
	if err != nil {
		b.Fatal(err)
	}
	var rawBytes int64
	for _, sn := range store.Snapshots {
		rawBytes += int64(len(sn.Pages)) * 4096
	}
	rawBytes += int64(len(store.BootPages)) * 4096
	gzipBytes := gzipPages(store)

	dir := b.TempDir()
	casPath := dir + "/store.cas"

	var saveMs, loadMs, matMs float64
	var casBytes int64
	var st capture.SaveStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		os.Remove(casPath)
		t0 := time.Now()
		st, err = store.Persist(casPath)
		if err != nil {
			b.Fatal(err)
		}
		saveMs = time.Since(t0).Seconds() * 1000
		casBytes, _ = capture.DiskSize(casPath)

		t0 = time.Now()
		loaded, err := capture.Load(casPath, nil)
		if err != nil {
			b.Fatal(err)
		}
		loadMs = time.Since(t0).Seconds() * 1000
		t0 = time.Now()
		for _, sn := range loaded.Snapshots {
			if err := sn.EnsurePages(); err != nil {
				b.Fatal(err)
			}
		}
		if err := loaded.EnsureBoot(); err != nil {
			b.Fatal(err)
		}
		matMs = time.Since(t0).Seconds() * 1000
		if len(loaded.Snapshots) != captures {
			b.Fatalf("%d snapshots after load", len(loaded.Snapshots))
		}
	}
	b.StopTimer()

	if casBytes >= gzipBytes {
		b.Fatalf("castore (%d B) did not beat gzip of the raw pages (%d B)", casBytes, gzipBytes)
	}

	// Corruption trials: flip one bit past the header at a seeded offset and
	// reload. Recovered means the load returns (no crash), at least one
	// snapshot survives, and every surviving snapshot materializes with its
	// checksums intact.
	const trials = 20
	pristine, err := os.ReadFile(casPath)
	if err != nil {
		b.Fatal(err)
	}
	trialPath := dir + "/trial.cas"
	rng := rand.New(rand.NewSource(benchSeed))
	recovered := 0
	for i := 0; i < trials; i++ {
		data := append([]byte(nil), pristine...)
		off := 5 + rng.Intn(len(data)-5)
		data[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(trialPath, data, 0o644); err != nil {
			b.Fatal(err)
		}
		loaded, err := capture.Load(trialPath, nil)
		if err != nil {
			continue
		}
		ok := len(loaded.Snapshots) > 0
		for _, sn := range loaded.Snapshots {
			if sn.EnsurePages() != nil {
				ok = false
			}
		}
		if ok {
			recovered++
		}
	}
	recoveryRate := float64(recovered) / float64(trials)

	// Torn-tail trial: cut the file mid-record; the load must roll back to a
	// consistent committed state (here: the index fallback still presents
	// every intact manifest).
	torn := append([]byte(nil), pristine[:len(pristine)-7]...)
	if err := os.WriteFile(trialPath, torn, 0o644); err != nil {
		b.Fatal(err)
	}
	tornRecovered := false
	if loaded, err := capture.Load(trialPath, nil); err == nil && len(loaded.Snapshots) == captures {
		tornRecovered = true
		for _, sn := range loaded.Snapshots {
			if sn.EnsurePages() != nil {
				tornRecovered = false
			}
		}
	}

	b.ReportMetric(float64(gzipBytes)/float64(captures), "gzip-B/capture")
	b.ReportMetric(float64(casBytes)/float64(captures), "castore-B/capture")
	b.ReportMetric(st.DedupRatio(), "dedup-x")
	b.ReportMetric(recoveryRate, "recovery-rate")

	writeArtifact(b, "BENCH_store.json", &castore.Bench{
		SchemaVersion:     castore.BenchSchemaVersion,
		Benchmark:         "SnapshotStore",
		Captures:          captures,
		RawPageBytes:      rawBytes,
		GzipBytes:         gzipBytes,
		CastoreBytes:      casBytes,
		DedupRatio:        st.DedupRatio(),
		ChunksUnique:      st.ChunksWritten,
		ChunksReused:      st.ChunksReused,
		SaveMs:            saveMs,
		LoadMs:            loadMs,
		MaterializeMs:     matMs,
		CorruptionTrials:  trials,
		RecoveryRate:      recoveryRate,
		TornTailRecovered: tornRecovered,
	})
	fmt.Printf("snapshot store: %d captures, raw %.2f MB; gzip %.2f MB -> castore %.2f MB (%.2fx dedup); save %.1f ms, load %.1f ms, materialize %.1f ms; corruption recovery %d/%d, torn tail recovered: %v\n",
		captures, float64(rawBytes)/(1<<20), float64(gzipBytes)/(1<<20), float64(casBytes)/(1<<20),
		st.DedupRatio(), saveMs, loadMs, matMs, recovered, trials, tornRecovered)
}

// gzipPages is the store benchmark's size baseline: the length of one gzip
// stream (default level) of every raw page the store holds, boot pages
// first and then each snapshot's, each set in address order, with no dedup.
func gzipPages(store *capture.Store) int64 {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	sets := []map[mem.Addr][]byte{store.BootPages}
	for _, sn := range store.Snapshots {
		sets = append(sets, sn.Pages)
	}
	for _, pages := range sets {
		addrs := make([]mem.Addr, 0, len(pages))
		for a := range pages {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			zw.Write(pages[a]) // a bytes.Buffer never fails
		}
	}
	zw.Close()
	return int64(buf.Len())
}

// benchCaptureStore captures n snapshots of one app's hot region with
// different arguments into a single store — the multi-capture shape where
// cross-snapshot dedup matters (the region touches mostly the same pages
// every entry).
func benchCaptureStore(n int) (*capture.Store, error) {
	prog, err := minic.CompileSource("bench", `
global int[] data;
func setup() { data = new int[65536]; for (int i = 0; i < len(data); i = i + 1) { data[i] = i * 2654435761; } }
func hot(int n) int {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) { s = s + data[i % len(data)]; }
	data[0] = s;
	return s;
}
func main() int { setup(); return hot(100); }`)
	if err != nil {
		return nil, err
	}
	proc := rt.NewProcess(prog, rt.Config{})
	env := interp.NewEnv(proc)
	env.MaxCycles = 10_000_000_000
	setupID, _ := prog.MethodByName("setup")
	hotID, _ := prog.MethodByName("hot")
	if _, err := env.Call(setupID, nil); err != nil {
		return nil, err
	}
	store := capture.NewStore()
	dev := device.New(benchSeed)
	for i := 0; i < n; i++ {
		arg := uint64(5000 + 100*i)
		if _, err := capture.Capture(proc, dev, store, hotID, []uint64{arg}, 0, func() error {
			_, err := env.Call(hotID, []uint64{arg})
			return err
		}); err != nil {
			return nil, err
		}
	}
	return store, nil
}
