package rtrace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/obs"
)

// A fixture with loops, arrays, calls, and an always-executed global int
// store (the store tvbreak skews), so most catalog passes have something to
// do and the seeded miscompile always finds a target.
const fixtureSrc = `
global int ticks;

func sq(int x) int { return x * x; }

func kernel(int n) int {
	int[] a = new int[n];
	for (int i = 0; i < len(a); i = i + 1) { a[i] = sq(i) % 29; }
	int s = 0;
	for (int i = 0; i < len(a); i = i + 1) { s = s + a[i] * 3; }
	return s;
}

func main() int {
	int total = 0;
	for (int r = 0; r < 4; r = r + 1) { total = total + kernel(60 + r); }
	ticks = ticks + 1;
	return total;
}
`

func fixture(t testing.TB) (*dex.Program, []dex.MethodID) {
	t.Helper()
	prog, err := minic.CompileSource("fixture", fixtureSrc)
	if err != nil {
		t.Fatal(err)
	}
	var methods []dex.MethodID
	for i := range prog.Methods {
		if !prog.Methods[i].Uncompilable {
			methods = append(methods, dex.MethodID(i))
		}
	}
	return prog, methods
}

// record compiles prog under cfg with a fresh Recorder and returns the raw
// trace bytes alongside the compiled image hash.
func record(t testing.TB, prog *dex.Program, methods []dex.MethodID, cfg lir.Config) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(obs.NewJSONLWriter(&buf), RecorderOptions{DiffLines: DefaultDiffLines})
	if err := rec.WriteHeader("fixture", 1, cfg, methods); err != nil {
		t.Fatal(err)
	}
	cfg.Observe(rec)
	code, err := lir.Compile(prog, methods, cfg, nil, nil)
	if err != nil {
		t.Fatalf("traced compile: %v", err)
	}
	img := machine.HashProgram(code)
	if err := rec.Finish(img); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), img
}

// TestGoldenTrace: the same preset over the same program yields a
// byte-identical trace — entries carry no timestamps and all map keys
// marshal sorted, so recording is deterministic down to the bytes.
func TestGoldenTrace(t *testing.T) {
	prog, methods := fixture(t)
	a, _ := record(t, prog, methods, lir.O3())
	b, _ := record(t, prog, methods, lir.O3())
	if !bytes.Equal(a, b) {
		t.Fatalf("two recordings of the same compile differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	st, err := ValidateReader(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("golden trace does not validate: %v", err)
	}
	if st.Headers != 1 || st.Trailers != 1 || st.Rewrites == 0 {
		t.Fatalf("unexpected trace shape: %+v", st)
	}
	if len(st.Fired) == 0 {
		t.Error("O3 over the loop fixture fired no pass at all")
	}
}

// TestReplayPresets proves the mechanical-replay contract for every preset:
// re-executing the trace reproduces the recorded image fingerprint.
func TestReplayPresets(t *testing.T) {
	prog, methods := fixture(t)
	for _, tc := range []struct {
		name string
		cfg  lir.Config
	}{
		{"O0", lir.O0()}, {"O1", lir.O1()}, {"O2", lir.O2()}, {"O3", lir.O3()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, img := record(t, prog, methods, tc.cfg)
			tr, err := ReadTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(prog, tr, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Match {
				t.Fatalf("replay did not reproduce the image: %+v", res.Divergence)
			}
			if res.ImageHash != HashString(img) {
				t.Errorf("replay image %s != recorded %s", res.ImageHash, HashString(img))
			}
			if res.Entries != len(tr.Entries) {
				t.Errorf("replay saw %d applications, trace has %d", res.Entries, len(tr.Entries))
			}
		})
	}
}

// TestReplayDetectsTampering: a trace whose recorded hashes no longer match
// the live compile pins the first divergence instead of matching.
func TestReplayDetectsTampering(t *testing.T) {
	prog, methods := fixture(t)
	raw, _ := record(t, prog, methods, lir.O2())
	tr, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) < 2 {
		t.Fatal("fixture trace too short to tamper with")
	}
	// Corrupt one mid-trace after-hash.
	k := len(tr.Entries) / 2
	tr.Entries[k].After = HashString(0xdeadbeef)
	res, err := Replay(prog, tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Match || res.Divergence == nil {
		t.Fatal("tampered trace replayed clean")
	}
	// The corrupted entry is either the pinned divergence itself or breaks
	// the next entry's before-hash; both must point at seq k or k+1.
	if res.Divergence.Seq != k && res.Divergence.Seq != k+1 {
		t.Errorf("divergence at seq %d, corrupted seq %d", res.Divergence.Seq, k)
	}
}

// TestBisectPinsMiscompile seeds the deliberately broken tvbreak pass into a
// real pipeline, records the trace, and checks bisection lands exactly on
// tvbreak's first firing application within the logarithmic step budget.
func TestBisectPinsMiscompile(t *testing.T) {
	cleanup := lir.RegisterForTesting(tv.MiscompilePass())
	defer cleanup()

	prog, methods := fixture(t)
	cfg := lir.O2()
	// Bury the miscompile mid-pipeline so the bisector has work to do.
	passes := append([]lir.PassSpec(nil), cfg.Passes[:4]...)
	passes = append(passes, lir.PassSpec{Name: tv.MiscompilePassName})
	cfg.Passes = append(passes, cfg.Passes[4:]...)

	raw, _ := record(t, prog, methods, cfg)
	tr, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Entries)
	wantSeq := -1
	for _, e := range tr.Entries {
		if e.Pass == tv.MiscompilePassName && e.Fired {
			wantSeq = e.Seq
			break
		}
	}
	if wantSeq < 0 {
		t.Fatal("tvbreak never fired in the recorded trace")
	}

	// The oracle: compile with only the admitted applications enabled and a
	// fresh strict validator; "bad" means the validator proves a miscompile.
	bad := func(enabled func(seq int) bool) bool {
		probe := cfg
		probe.Observe(tv.NewChecker(tv.Options{Reject: true}))
		_, _, err := CompileMasked(prog, methods, probe, nil, nil, enabled)
		var rej *tv.RejectError
		return errors.As(err, &rej)
	}
	res, err := Bisect(n, bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.BadSeq != wantSeq {
		t.Errorf("bisection pinned seq %d (%s), tvbreak first fired at seq %d",
			res.BadSeq, tr.Entries[res.BadSeq].Pass, wantSeq)
	}
	if budget := int(math.Ceil(math.Log2(float64(n)))); res.Steps > budget {
		t.Errorf("bisection took %d steps over %d applications, budget ⌈log2⌉ = %d",
			res.Steps, n, budget)
	}
	found := false
	for _, seq := range res.Minimal {
		if seq == res.BadSeq {
			found = true
		}
	}
	if !found {
		t.Errorf("minimal set %v does not contain the pinned application %d", res.Minimal, res.BadSeq)
	}
	if len(res.Minimal) > n {
		t.Errorf("minimal set grew: %d applications from a trace of %d", len(res.Minimal), n)
	}
}

// TestStrictViolationAborts: a pass that breaks the SSA invariants aborts
// the compile even under a checker built without Reject. The error names the
// pass, the trace's last entry carries that error with a rejected verdict,
// and the differential drill still classifies the pass as a verifier failure.
func TestStrictViolationAborts(t *testing.T) {
	const name = "ssabreak"
	// tv's "result type flip" seeded mutation: the first add claims a float
	// result.
	cleanup := lir.RegisterForTesting(&lir.PassInfo{Name: name, Run: func(f *lir.Function, _ *lir.PassContext, _ map[string]int) error {
		for _, b := range f.Blocks {
			for _, v := range b.Insns {
				if v.Op == lir.OpAdd {
					v.Type = lir.TFloat
					return nil
				}
			}
		}
		return nil
	}})
	defer cleanup()

	prog, methods := fixture(t)
	cfg := lir.O1()
	cfg.Passes = append(cfg.Passes, lir.PassSpec{Name: name})
	chk := tv.NewChecker(tv.Options{})
	var buf bytes.Buffer
	rec := NewRecorder(obs.NewJSONLWriter(&buf), RecorderOptions{Checker: chk})
	if err := rec.WriteHeader("fixture", 1, cfg, methods); err != nil {
		t.Fatal(err)
	}
	cfg.Observe(chk, rec)
	_, err := lir.Compile(prog, methods, cfg, nil, nil)
	var rej *tv.RejectError
	if !errors.As(err, &rej) || rej.Pass != name {
		t.Fatalf("compile error %v, want a tv rejection of pass %s", err, name)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Entries[len(tr.Entries)-1]
	if last.Pass != name || last.TV != "rejected" || last.Error != rej.Error() {
		t.Errorf("last trace entry: pass %q, tv %q, error %q; want %q, %q, %q",
			last.Pass, last.TV, last.Error, name, "rejected", rej.Error())
	}

	fails := tv.Differential(tv.DiffOptions{Seeds: 3, Passes: []string{name}})
	if len(fails) != 1 || fails[0].Kind != "verifier" {
		t.Fatalf("differential found %+v, want one verifier failure", fails)
	}
}

// TestObserversAgree: with lir's per-pass metrics observer and a Recorder on
// one compile, the lir.pass_fired tally and the recorder's fired counts are
// the same figures, and the observer list is not part of the config's
// identity.
func TestObserversAgree(t *testing.T) {
	prog, methods := fixture(t)
	cfg := lir.O3()
	plain := cfg.Fingerprint()
	sc := obs.New()
	rec := NewRecorder(obs.NewJSONLWriter(io.Discard), RecorderOptions{})
	cfg.Observe(lir.PassMetrics(sc), rec)
	if got := cfg.Fingerprint(); got != plain {
		t.Fatalf("observers changed the fingerprint: %016x, %016x without", got, plain)
	}
	if _, err := lir.Compile(prog, methods, cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	tally := sc.Tally("lir.pass_fired").Counts()
	fired := rec.Fired()
	if len(fired) == 0 {
		t.Fatal("no pass fired under O3")
	}
	if len(tally) != len(fired) {
		t.Errorf("lir.pass_fired has %d passes, the recorder %d: %v vs %v", len(tally), len(fired), tally, fired)
	}
	for pass, n := range fired {
		if tally[pass] != int64(n) {
			t.Errorf("%s: lir.pass_fired %d, recorder %d", pass, tally[pass], n)
		}
	}
	applications := int64(0)
	for _, name := range []string{"lir.pass_fired", "lir.pass_noop"} {
		for _, n := range sc.Tally(name).Counts() {
			applications += n
		}
	}
	if applications != int64(rec.Entries()) {
		t.Errorf("fired+noop tallies count %d applications, the recorder %d", applications, rec.Entries())
	}
}

// TestLockRoundTripAndDrift covers the policy-lock lifecycle: cut, persist,
// reload, audit clean, then every drift class when the world changes.
func TestLockRoundTripAndDrift(t *testing.T) {
	prog, methods := fixture(t)
	cfg := lir.O3()
	var buf bytes.Buffer
	rec := NewRecorder(obs.NewJSONLWriter(&buf), RecorderOptions{})
	if err := rec.WriteHeader("fixture", 1, cfg, methods); err != nil {
		t.Fatal(err)
	}
	tcfg := cfg
	tcfg.Observe(rec)
	code, err := lir.Compile(prog, methods, tcfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := machine.HashProgram(code)
	lock := BuildLock("fixture", cfg, img, rec.Fired())

	if drifts := CheckLock(lock); len(drifts) != 0 {
		t.Fatalf("fresh lock drifts against its own compiler: %+v", drifts)
	}
	if drifts := CheckLockDynamic(lock, prog, methods, nil, nil); len(drifts) != 0 {
		t.Fatalf("fresh lock drifts dynamically: %+v", drifts)
	}

	path := filepath.Join(t.TempDir(), "fixture.lock.json")
	if err := WriteLockFile(path, lock); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.ConfigFingerprint != lock.ConfigFingerprint || len(back.Passes) != len(lock.Passes) {
		t.Fatalf("lock did not round-trip: %+v vs %+v", back, lock)
	}
	if cfg2, err := back.Config(); err != nil {
		t.Fatalf("reloaded lock does not rebuild its config: %v", err)
	} else if HashString(cfg2.Fingerprint()) != lock.ConfigFingerprint {
		t.Error("rebuilt config fingerprint drifted through the file round-trip")
	}

	drifted := func(l *Lock, kind string) bool {
		for _, d := range CheckLock(l) {
			if d.Kind == kind {
				return true
			}
		}
		return false
	}
	renamed := *lock
	renamed.Passes = append([]TracedPass(nil), lock.Passes...)
	renamed.Passes[0].Name = "no-such-pass"
	if !drifted(&renamed, "missing-pass") {
		t.Error("renamed pass not reported as missing-pass")
	}
	clamped := *lock
	clamped.Passes = append([]TracedPass(nil), lock.Passes...)
	clamped.Passes[0] = TracedPass{Name: "inline", Params: map[string]int{"threshold": 1 << 20}}
	if !drifted(&clamped, "param-clamped") {
		t.Error("out-of-range locked param not reported as param-clamped")
	}
	gone := *lock
	gone.Passes = append([]TracedPass(nil), lock.Passes...)
	gone.Passes[0] = TracedPass{Name: "inline", Params: map[string]int{"no-such-param": 1}}
	if !drifted(&gone, "missing-param") {
		t.Error("vanished locked param not reported as missing-param")
	}
	llc := *lock
	llc.Llc = map[string]int{"no-such-option": 1}
	if !drifted(&llc, "llc-drift") {
		t.Error("unknown locked llc option not reported as llc-drift")
	}

	// Dynamic drift: claim a fired count for a pass that is a no-op on this
	// program, and an image hash the recompile cannot reproduce.
	quiet := ""
	for _, p := range lock.Passes {
		if lock.Fired[p.Name] == 0 {
			quiet = p.Name
			break
		}
	}
	if quiet != "" {
		nofire := *lock
		nofire.Fired = map[string]int{quiet: 3}
		found := false
		for _, d := range CheckLockDynamic(&nofire, prog, methods, nil, nil) {
			if d.Kind == "no-longer-fires" && d.Pass == quiet {
				found = true
			}
		}
		if !found {
			t.Errorf("claimed firing of no-op pass %q not reported as no-longer-fires", quiet)
		}
	}
	imgdrift := *lock
	imgdrift.ImageHash = HashString(img ^ 1)
	found := false
	for _, d := range CheckLockDynamic(&imgdrift, prog, methods, nil, nil) {
		if d.Kind == "image-drift" {
			found = true
		}
	}
	if !found {
		t.Error("wrong locked image hash not reported as image-drift")
	}
}

// corruptions are structural damage to a recorded trace that a JSON parser
// alone would accept.
var corruptions = []struct {
	name string
	old  []byte
	new  []byte
}{
	{"seq-gap", []byte(`"kind":"rewrite","seq":1,`), []byte(`"kind":"rewrite","seq":7,`)},
	{"unknown-kind", []byte(`"kind":"rtrace-image"`), []byte(`"kind":"rtrace-imago"`)},
	{"bad-hash", []byte(`"before":"`), []byte(`"before":"zz`)},
}

// TestValidateRejectsCorruption: the shared validator catches structural
// damage a JSON parser alone would accept.
func TestValidateRejectsCorruption(t *testing.T) {
	prog, methods := fixture(t)
	raw, _ := record(t, prog, methods, lir.O2())
	if _, err := ValidateReader(bytes.NewReader(raw)); err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			bad := bytes.Replace(raw, tc.old, tc.new, 1)
			if bytes.Equal(bad, raw) {
				t.Fatalf("corruption pattern %q not found in trace", tc.old)
			}
			if _, err := ValidateReader(bytes.NewReader(bad)); err == nil {
				t.Error("corrupted trace validated clean")
			}
		})
	}
}

// FuzzReadTrace feeds arbitrary bytes to both trace readers: ReadTrace, which
// replay and bisection parse traces with, and ValidateReader, the linter
// behind `rtrace -validate` and `audit trace`. Neither may panic, and a
// stream the validator accepts as a trace (one holding a header, not a bare
// lock or span file) must also parse.
//
//	go test -run '^$' -fuzz FuzzReadTrace -fuzztime 20s -fuzzminimizetime 5s ./internal/lir/rtrace
func FuzzReadTrace(f *testing.F) {
	prog, methods := fixture(f)
	raw, _ := record(f, prog, methods, lir.O2())
	f.Add(raw)
	for _, tc := range corruptions {
		f.Add(bytes.Replace(raw, tc.old, tc.new, 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, rerr := ReadTrace(bytes.NewReader(data))
		st, verr := ValidateReader(bytes.NewReader(data))
		if verr == nil && st.Headers > 0 && rerr != nil {
			t.Fatalf("ValidateReader accepts the trace, ReadTrace rejects it: %v", rerr)
		}
	})
}

// TestRecordingIsObservationOnly: the compiled image is bit-identical with
// and without a recorder attached.
func TestRecordingIsObservationOnly(t *testing.T) {
	prog, methods := fixture(t)
	plain, err := lir.Compile(prog, methods, lir.O3(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, img := record(t, prog, methods, lir.O3())
	if got := machine.HashProgram(plain); got != img {
		t.Fatalf("recording changed the image: %016x plain, %016x traced", got, img)
	}
}
