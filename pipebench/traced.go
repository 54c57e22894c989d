package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"replayopt/internal/aot"
	"replayopt/internal/core"
	"replayopt/internal/ga"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/obs"
	"replayopt/internal/profile"
	"replayopt/internal/replay"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
	"replayopt/internal/stats"
	"replayopt/internal/verify"
)

// runTraced is the traced run. It first runs one untraced pass, then the
// same pipeline again as separate public calls, each wrapped in a span of
// the benchmark's own, and finally re-times every searched configuration
// and every prepare step layer by layer. The spans stay in memory until the
// end, when they are written to the output directory as JSONL.
func runTraced(c config, prov provenance) (result, error) {
	as, opt, err := setup(c)
	if err != nil {
		return result{}, err
	}
	col := &obs.Collect{}
	run := obs.New(col).Start("run", prov.attrs()...)
	var chk checks
	var tally searchTally

	// The untraced reference pass: its wall time is the base of the
	// tracing overhead, and its decisions are what the traced pipeline must
	// reproduce.
	t0 := time.Now()
	ref := runPass(c, as, opt, filepath.Join(c.outDir, "intake.castore"))
	untracedS := time.Since(t0).Seconds()
	v := newVerifier(c, as)
	v.check(&chk, ref)

	var tracedS float64
	traced := c.optimizers(len(as))
	prepared := make([]*core.Prepared, len(as))
	appSpans := make([]*obs.Span, len(as))
	for i, app := range as {
		appSpans[i] = run.Start("app", obs.A("app", app.Name))
	}
	storePath := filepath.Join(c.outDir, "traced.castore")
	switch c.w.kind {
	case kindSearch:
		for i, app := range as {
			t1 := time.Now()
			sr, err := tracedSearch(traced[i], app, appSpans[i])
			tracedS += time.Since(t1).Seconds()
			if err != nil {
				chk.record(false, "%s: traced pipeline: %v", app.Name, err)
				continue
			}
			prepared[i] = sr.p
			tally.add(sr.res.Stats)
			chk.record(sr.matches(ref.reports[i]), "%s: traced search decided differently from Optimize", app.Name)
			want, got := v.refs[i], compiledOutput(app, sr.installed)
			chk.record(got.equal(want), "%s: installed binary gave %v, interpreter %v", app.Name, got, want)
			if err := retime(appSpans[i], traced[i], app, sr.p, sr.res.Trace); err != nil {
				chk.record(false, "%s: re-timing the search trace: %v", app.Name, err)
			}
		}
		storeLayers(c, run, &chk, traced, as, prepared, storePath)
	case kindIntake:
		t1 := time.Now()
		for i, app := range as {
			sp := appSpans[i].Start("core.prepare")
			prepared[i], err = traced[0].Prepare(app)
			sp.End()
			if err != nil {
				chk.record(false, "%s: traced prepare: %v", app.Name, err)
				continue
			}
			r := ref.prepared[i]
			same := r != nil && r.Region.Root == prepared[i].Region.Root &&
				r.AndroidCycles == prepared[i].AndroidCycles && r.O3Cycles == prepared[i].O3Cycles
			chk.record(same, "%s: traced prepare measured different baselines", app.Name)
		}
		storeLayers(c, run, &chk, traced, as, prepared, storePath)
		tracedS = time.Since(t1).Seconds()
	}
	for i, app := range as {
		if prepared[i] != nil {
			o := traced[0] // intake's one optimizer
			if c.w.kind == kindSearch {
				o = traced[i]
			}
			if err := prepareLayers(appSpans[i], o, app, prepared[i]); err != nil {
				chk.record(false, "%s: re-timing the prepare layers: %v", app.Name, err)
			}
		}
		appSpans[i].End()
	}
	run.End()

	spans := col.Spans()
	if err := writeSpans(filepath.Join(c.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", c.w.name, c.seed)), spans); err != nil {
		return result{}, err
	}
	m := layerMetrics(indexSpans(spans), tally)
	m.set("trace.untraced_s", untracedS)
	m.set("trace.traced_s", tracedS)
	m.set("trace.overhead_s", tracedS-untracedS)
	return chk.result(m), nil
}

// searchTally sums the GA's own accounting over a workload's searches.
type searchTally struct{ considered, hits int }

func (t *searchTally) add(s ga.SearchStats) {
	t.considered += s.Considered
	t.hits += s.CacheHits
}

// searchRun is the traced pipeline's outcome for one app.
type searchRun struct {
	p         *core.Prepared
	res       *ga.Result
	installed *machine.Program
	// Whole-program and region speedups, computed as Optimize computes them.
	speedup, regionSpeedup float64
}

// matches reports whether the traced pipeline reproduced rep: the same
// decision trace byte for byte and the same speedups.
func (s *searchRun) matches(rep *core.Report) bool {
	return rep != nil && s.res.DecisionTrace() == rep.Search.DecisionTrace() &&
		s.speedup == rep.SpeedupGA && s.regionSpeedup == rep.RegionSpeedupGA
}

// tracedSearch runs core.Optimize's steps as separate public calls in its
// order — Prepare, ga.Search, TraceRegion, install and the whole-program
// online runs — each in a span under parent.
func tracedSearch(o *core.Optimizer, app *core.App, parent *obs.Span) (*searchRun, error) {
	sp := parent.Start("core.prepare")
	p, err := o.Prepare(app)
	sp.End()
	if err != nil {
		return nil, err
	}
	gaOpts := o.Opts.GA
	gaOpts.BaselineAndroidMs = p.AndroidEval.MeanMs
	gaOpts.BaselineO3Ms = p.O3Eval.MeanMs
	// core.Optimize seeds its search the same way.
	rng := rand.New(rand.NewSource(o.Opts.Seed*7919 + int64(len(app.Name))))
	sp = parent.Start("ga.search")
	res := ga.Search(rng, &timedEvaluator{p: p, parent: sp}, gaOpts)
	sp.End()
	best := res.Best.Decode()

	sp = parent.Start("rtrace.trace_region")
	_, err = p.TraceRegion(o.Opts.Seed, best, nil)
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = parent.Start("core.install")
	installed, err := p.CompileRegion(best)
	var o3 *machine.Program
	if err == nil {
		o3, err = p.CompileRegion(lir.O3())
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	sr := &searchRun{p: p, res: res, installed: installed}
	if gaMs := res.BestEval.MeanMs; gaMs > p.AndroidEval.MeanMs {
		sr.installed, sr.regionSpeedup = p.Android, 1
	} else if gaMs > 0 {
		sr.regionSpeedup = p.AndroidEval.MeanMs / gaMs
	}
	android := onlineCycles(parent, app, p.Android, o.Opts.OnlineRuns)
	onlineCycles(parent, app, o3, o.Opts.OnlineRuns)
	if gaCycles := onlineCycles(parent, app, sr.installed, o.Opts.OnlineRuns); gaCycles > 0 {
		sr.speedup = android / gaCycles
	}
	return sr, nil
}

// onlineCycles is the pipeline's whole-program measurement: runs online runs
// of app under code, each in a span, and their mean cycle count (0 if a run
// fails, as in core).
func onlineCycles(parent *obs.Span, app *core.App, code *machine.Program, runs int) float64 {
	var xs []float64
	for i := 0; i < runs; i++ {
		sp := parent.Start("core.online_run")
		_, x := app.NewProcessAndExec(code)
		x.MaxCycles = maxProgramCycles
		_, err := x.Call(app.Prog.Entry, nil)
		sp.End()
		if err != nil {
			return 0
		}
		xs = append(xs, float64(x.Cycles))
	}
	return stats.Mean(xs)
}

// timedEvaluator wraps *core.Prepared for ga.Search, timing every Evaluate
// call in a ga.eval span. It keeps the BindWorker/ReleaseWorker pair, so the
// search takes the production warm-replay path.
type timedEvaluator struct {
	p      *core.Prepared
	parent *obs.Span
}

func (t *timedEvaluator) Evaluate(cfg lir.Config) ga.Evaluation { return t.timed(t.p, cfg) }

func (t *timedEvaluator) BindWorker() ga.Evaluator {
	return &timedWorker{t: t, ev: t.p.BindWorker()}
}

func (t *timedEvaluator) ReleaseWorker(e ga.Evaluator) { t.p.ReleaseWorker(e.(*timedWorker).ev) }

func (t *timedEvaluator) timed(ev ga.Evaluator, cfg lir.Config) ga.Evaluation {
	sp := t.parent.Start("ga.eval")
	e := ev.Evaluate(cfg)
	sp.End(obs.A("outcome", e.Outcome.String()))
	return e
}

type timedWorker struct {
	t  *timedEvaluator
	ev ga.Evaluator
}

func (w *timedWorker) Evaluate(cfg lir.Config) ga.Evaluation { return w.t.timed(w.ev, cfg) }

// sampleEvery thins the two costliest re-timed layers: a cold replay and a
// whole EvaluateImage run on every sampleEvery-th distinct image only. Their
// metrics are medians, which a sample keeps, and a traced run stays well
// inside its time budget.
const sampleEvery = 4

// retime re-runs every configuration of a search trace, one at a time,
// through each layer's public call: compile and image hash for every
// configuration, then — once per distinct image, since replay is a pure
// function of the image — a warm replay on a template worker and the
// verification-map check, and on a sample of those images a cold replay and
// the whole EvaluateImage measurement. Replay spans carry "uses", the number
// of trace entries that produced the image.
func retime(parent *obs.Span, o *core.Optimizer, app *core.App, p *core.Prepared, trace []ga.EvalRecord) error {
	sp := parent.Start("retime")
	defer sp.End()
	var order []uint64
	images := map[uint64]*machine.Program{}
	uses := map[uint64]int{}
	for _, rec := range trace {
		csp := sp.Start("lir.compile")
		code, err := p.CompileRegion(rec.Genome.Decode())
		csp.End()
		if err != nil {
			continue
		}
		hsp := sp.Start("machine.hash")
		h := machine.HashProgram(code)
		hsp.End()
		if uses[h] == 0 {
			order = append(order, h)
			images[h] = code
		}
		uses[h]++
	}
	tmpl, err := replay.NewTemplate(o.Store, p.Snapshot, 1)
	if err != nil {
		return err
	}
	w := tmpl.NewWorker()
	maxCycles := p.AndroidCycles * 12 // the evaluator's runtime-timeout budget
	for i, h := range order {
		code, n := images[h], obs.A("uses", uses[h])
		req := replay.Request{Snapshot: p.Snapshot, Prog: app.Prog, Tier: replay.TierCompiled,
			Code: code, MaxCycles: maxCycles, Worker: w}
		rsp := sp.Start("replay.warm", n)
		res, err := replay.Run(o.Dev, o.Store, req)
		rsp.End()
		if err == nil {
			vsp := sp.Start("verify.check")
			_ = p.VMap.Check(res) // a mismatch is a search outcome, not a benchmark failure
			vsp.End()
		}
		if i%sampleEvery != 0 {
			continue
		}
		req.Worker, req.ASLRSeed = nil, 2
		rsp = sp.Start("replay.cold", n)
		_, _ = replay.Run(o.Dev, o.Store, req) // runtime failures are search outcomes too
		rsp.End()
		esp := sp.Start("core.eval_image", n)
		p.EvaluateImage(code)
		esp.End()
	}
	return nil
}

// prepareLayers re-times the steps Prepare runs, each through its own
// public call: the baseline compile, the profiling run, the effect analysis
// with its range and points-to attachments, one capture, the verification
// map and the warm-replay template.
func prepareLayers(parent *obs.Span, o *core.Optimizer, app *core.App, p *core.Prepared) error {
	sp := parent.Start("aot.compile")
	android, err := aot.Compile(app.Prog)
	sp.End()
	if err != nil {
		return err
	}
	prof := profile.NewProfile()
	_, x := app.NewProcessAndExec(android)
	x.SamplePeriod, x.Sampler, x.MaxCycles = profile.SamplePeriodCycles, prof, maxProgramCycles
	sp = parent.Start("profile.run")
	_, err = x.Call(app.Prog.Entry, nil)
	sp.End()
	if err != nil {
		return err
	}
	sp = parent.Start("profile.analyze")
	an := profile.Analyze(app.Prog)
	sp.End()
	if an.Effects != nil {
		sp = parent.Start("sa.vra")
		vra.Attach(an.Effects)
		sp.End()
		sp = parent.Start("sa.pts")
		pts.Attach(an.Effects)
		sp.End()
	}

	sp = parent.Start("capture.capture")
	snaps, err := o.CaptureMulti(app, android, p.Region.Root, 1)
	pages := 0
	for _, s := range snaps {
		pages += s.Stats.PagesStored + s.Stats.AlwaysStored
	}
	sp.End(obs.A("pages", pages))
	for _, s := range snaps {
		o.Store.Discard(s) // keep the store as Prepare left it
	}
	if err != nil {
		noteNoCapture(err)
	}

	sp = parent.Start("verify.build")
	vm, _, err := verify.Build(o.Dev, o.Store, p.Snapshot, app.Prog, p.Analysis.Effects)
	entries := 0
	if err == nil {
		entries = vm.Size()
	}
	sp.End(obs.A("entries", entries))
	if err != nil {
		return err
	}
	sp = parent.Start("replay.template")
	_, err = replay.NewTemplate(o.Store, p.Snapshot, 1)
	sp.End()
	return err
}

// storeLayers persists the optimizers' captures into one castore file, loads
// it into a fresh optimizer and replays every app's capture cold from it,
// checking each replay against the cycles measured before persisting.
func storeLayers(c config, parent *obs.Span, chk *checks, opt []*core.Optimizer, as []*core.App,
	prepared []*core.Prepared, path string) {
	os.Remove(path)
	for _, o := range opt {
		sp := parent.Start("castore.persist")
		st, err := o.PersistStore(path)
		sp.End(obs.A("raw_written", st.RawChunkBytesWritten), obs.A("reused", st.BytesReused))
		if err != nil {
			chk.record(false, "persist: %v", err)
			return
		}
	}
	loaded := c.newOptimizer()
	sp := parent.Start("castore.load")
	_, err := loaded.LoadStore(path)
	sp.End()
	if err != nil {
		chk.record(false, "load: %v", err)
		return
	}
	for i, app := range as {
		if prepared[i] == nil {
			continue
		}
		sp := parent.Start("replay.loaded_cold")
		got, err := loadedReplay(loaded, app, prepared[i])
		sp.End()
		want := prepared[i].AndroidCycles
		if c.wrongRef {
			want++
		}
		chk.record(err == nil && got == want, "%s: loaded-store replay took %d cycles (%v), %d before persisting",
			app.Name, got, err, want)
	}
}

// writeSpans writes the run's spans as JSONL, one span per line.
func writeSpans(path string, spans []obs.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	w := obs.NewJSONLWriter(bw)
	for _, sd := range spans {
		w.Write(sd)
	}
	if err := w.Err(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the per-layer metrics from a traced run's spans.
func layerMetrics(ix spanIndex, t searchTally) metrics {
	m := metrics{}
	evals := ix.byName["ga.eval"]
	discards := 0
	for _, sd := range evals {
		if sd.Attrs["outcome"] != ga.OutcomeCorrect.String() {
			discards++
		}
	}
	m.set("ga.search_s", ix.totalS("ga.search"))
	m.set("ga.search_self_s", ix.selfS("ga.search"))
	m.set("ga.evals", float64(len(evals)))
	m.set("ga.memo_hit_ratio", ratio(float64(t.hits), float64(t.considered)))
	m.set("ga.eval_ms.p50", percentile(ix.ms("ga.eval"), 0.50))
	m.set("ga.eval_ms.p99", percentile(ix.ms("ga.eval"), 0.99))
	m.set("ga.worker_util", ratio(ix.totalS("ga.eval"), ix.totalS("ga.search")*gaParallelism))
	m.set("ga.discard_ratio", ratio(float64(discards), float64(len(evals))))

	m.set("lir.compile_s", ix.totalS("lir.compile"))
	m.set("lir.compile_ms.p50", percentile(ix.ms("lir.compile"), 0.50))
	m.set("lir.compile_ms.p99", percentile(ix.ms("lir.compile"), 0.99))
	m.set("lir.candidate_compiles", float64(len(ix.byName["lir.compile"])))
	m.set("machine.hash_ms.p50", percentile(ix.ms("machine.hash"), 0.50))

	m.set("replay.template_ms", sum(ix.ms("replay.template")))
	m.set("replay.warm_ms.p50", percentile(ix.ms("replay.warm"), 0.50))
	m.set("replay.warm_ms.p99", percentile(ix.ms("replay.warm"), 0.99))
	m.set("replay.warm_s", ix.weightedS("replay.warm"))
	m.set("replay.cold_ms.p50", percentile(ix.ms("replay.cold"), 0.50))
	m.set("replay.distinct_image_ratio",
		ratio(float64(len(ix.byName["replay.warm"])), float64(len(ix.byName["machine.hash"]))))
	m.set("verify.check_ms.p50", percentile(ix.ms("verify.check"), 0.50))
	m.set("verify.build_ms", sum(ix.ms("verify.build")))
	m.set("verify.vmap_entries", ix.attrSum("verify.build", "entries"))

	m.set("core.prepare_s", ix.totalS("core.prepare"))
	m.set("core.eval_image_ms.p50", percentile(ix.ms("core.eval_image"), 0.50))
	m.set("core.online_run_ms.mean", stats.Mean(ix.ms("core.online_run")))
	m.set("core.online_s", ix.totalS("core.online_run"))
	m.set("rtrace.trace_region_ms", sum(ix.ms("rtrace.trace_region")))

	for _, name := range []string{"aot.compile", "profile.run", "profile.analyze", "sa.vra", "sa.pts", "capture.capture"} {
		m.set(name+"_ms", sum(ix.ms(name)))
	}
	m.set("capture.pages", ix.attrSum("capture.capture", "pages"))

	m.set("castore.persist_ms", sum(ix.ms("castore.persist")))
	m.set("castore.load_ms", sum(ix.ms("castore.load")))
	m.set("replay.loaded_cold_ms", sum(ix.ms("replay.loaded_cold")))
	raw, reused := ix.attrSum("castore.persist", "raw_written"), ix.attrSum("castore.persist", "reused")
	m.set("castore.dedup_ratio", ratio(raw+reused, raw))
	return m
}

// attrSum sums a numeric attribute over every span called name.
func (ix spanIndex) attrSum(name, key string) float64 {
	t := 0.0
	for _, sd := range ix.byName[name] {
		t += obs.Num(sd.Attrs, key)
	}
	return t
}

// weightedS sums span durations, in seconds, each weighted by its "uses"
// attribute: the time the search spent on the layer, replaying duplicate
// images included.
func (ix spanIndex) weightedS(name string) float64 {
	t := 0.0
	for _, sd := range ix.byName[name] {
		t += float64(sd.DurUS) / 1e6 * obs.Num(sd.Attrs, "uses")
	}
	return t
}
