// Package rtrace is the rewrite-path trace: a machine-readable record of
// every optimization decision the LIR pipeline makes while compiling one code
// image. The paper's transparency argument ("Developer and user-transparent
// compiler optimization for interactive applications", PLDI 2021, §1 and the
// Fig. 1 search loop) rests on the claim that a GA-chosen configuration is an
// ordinary compiler input — deterministic, reproducible, explainable. This
// package makes that claim checkable: each pass application becomes one JSONL
// entry carrying its resolved parameters, before/after IR fragment hashes, a
// bounded local diff, the pass's own decision rationale (cost-model inputs via
// lir.PassContext.Note), and — when translation validation ran — the tv
// verdict that admitted it.
//
// Three consumers build on the trace:
//
//   - Replay re-executes a trace mechanically and proves the compile is
//     reproducible: every per-pass hash must match, and the final image
//     fingerprint (machine.HashProgram) must equal the recorded one.
//   - Bisect binary-searches a trace prefix for the transform that first
//     turns the outcome bad (tv rejection, wrong output, a perf regression),
//     then greedily shrinks the enabled set to a minimal reproducer.
//   - Lock pins a winning decision sequence as a policy-lock artifact and
//     detects drift against a changed compiler (lock.go).
//
// Recording is observation only: a Recorder never vetoes a pass, and core's
// tests assert reports are byte-identical with tracing on or off.
package rtrace

import (
	"fmt"
	"strconv"
	"strings"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/obs"
)

// SchemaVersion identifies the trace record layout. Bump it on any
// incompatible field change (see CONTRIBUTING.md: consumers hard-fail on
// versions they do not know).
const SchemaVersion = 1

// Record kinds. Rewrite-trace lines share JSONL files with obs span lines
// (which carry no "kind" field); every rtrace record is discriminated by one
// of these.
const (
	KindHeader  = "rtrace-header"
	KindRewrite = "rewrite"
	KindImage   = "rtrace-image"
	KindLock    = "rtrace-lock"
)

// DefaultDiffLines bounds the pretty-printed local diff attached to a fired
// entry.
const DefaultDiffLines = 16

// TracedPass is one pipeline slot as persisted in headers and locks: the
// pass name with its *explicit* parameters, verbatim — including catalog
// padding keys — so the rebuilt Config fingerprints identically.
type TracedPass struct {
	Name   string         `json:"name"`
	Params map[string]int `json:"params,omitempty"`
}

// Header is the first record of a trace: everything needed to rebuild the
// compile input. Methods is the exact compile order; Seed lets a consumer
// re-Prepare the deterministic profile/static inputs.
type Header struct {
	Kind              string         `json:"kind"`
	SchemaVersion     int            `json:"schema"`
	App               string         `json:"app,omitempty"`
	Seed              int64          `json:"seed,omitempty"`
	ConfigFingerprint string         `json:"config_fingerprint"`
	Passes            []TracedPass   `json:"passes"`
	Llc               map[string]int `json:"llc,omitempty"`
	Methods           []int          `json:"methods"`
}

// Entry is one pass application. Seq is global across the whole compile (all
// methods, in compile order), so a prefix of entries is a prefix of the
// compile. Hashes are lir.HashFunction digests formatted %016x. Entries
// deliberately carry no timestamps: a golden trace must be byte-identical
// run to run.
type Entry struct {
	Kind   string         `json:"kind"`
	Seq    int            `json:"seq"`
	Method int            `json:"method"`
	Fn     string         `json:"fn"`
	Pass   string         `json:"pass"`
	Params map[string]int `json:"params,omitempty"` // resolved (defaults + clamping applied)
	Before string         `json:"before"`
	After  string         `json:"after"`
	Fired  bool           `json:"fired"`
	// Skipped marks a mechanically vetoed application (bisection probes);
	// recorded traces of real compiles never set it.
	Skipped       bool              `json:"skipped,omitempty"`
	Diff          []string          `json:"diff,omitempty"`
	DiffTruncated bool              `json:"diff_truncated,omitempty"`
	Notes         []lir.RewriteNote `json:"notes,omitempty"`
	NotesDropped  int               `json:"notes_dropped,omitempty"`
	// TV is the translation-validation verdict for this application
	// ("verified", "unverified", "rejected") when a checker ran.
	TV       string `json:"tv,omitempty"`
	TVReason string `json:"tv_reason,omitempty"`
	// Error is set on the entry that aborted the compile (crash, timeout, or
	// tv rejection); it is always the trace's last entry.
	Error string `json:"error,omitempty"`
}

// Trailer closes a successful trace with the image fingerprint replay must
// reproduce.
type Trailer struct {
	Kind      string `json:"kind"`
	ImageHash string `json:"image_hash"`
	Entries   int    `json:"entries"`
	Methods   int    `json:"methods"`
}

// HashString formats a digest the way every rtrace record stores it.
func HashString(h uint64) string { return fmt.Sprintf("%016x", h) }

// ParseHash inverts HashString.
func ParseHash(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("rtrace: hash %q is not 16 hex digits", s)
	}
	return strconv.ParseUint(s, 16, 64)
}

// RecorderOptions configure a Recorder.
type RecorderOptions struct {
	// Checker, when set, must be a tv.Checker attached to the same compile
	// ahead of the recorder in Config.Observers; the recorder reads each
	// application's verdict from it.
	Checker *tv.Checker
	// DiffLines bounds the per-entry pretty-printed diff; 0 disables diffs
	// entirely (no pretty-printing cost).
	DiffLines int
}

// Recorder is a lir.PassObserver that writes one Entry per pass application
// to a JSONL writer. One Recorder observes one compile (it is stateful and
// serial, like tv.Checker); add it to Config.Observers, then call Finish with
// the image hash.
type Recorder struct {
	w    *obs.JSONLWriter
	opts RecorderOptions

	seq     int
	methods map[int]bool
	fired   map[string]int

	beforeText string
	verdicts   int
}

// NewRecorder returns a recorder writing to w.
func NewRecorder(w *obs.JSONLWriter, opts RecorderOptions) *Recorder {
	return &Recorder{w: w, opts: opts, methods: map[int]bool{}, fired: map[string]int{}}
}

// WriteHeader emits the trace header for the compile about to run. Call it
// once, before compiling.
func (r *Recorder) WriteHeader(app string, seed int64, cfg lir.Config, methods []dex.MethodID) error {
	h := Header{
		Kind:              KindHeader,
		SchemaVersion:     SchemaVersion,
		App:               app,
		Seed:              seed,
		ConfigFingerprint: HashString(cfg.Fingerprint()),
		Passes:            tracedPasses(cfg.Passes),
		Llc:               lir.LlcFromLower(cfg.Lower),
		Methods:           make([]int, len(methods)),
	}
	for i, id := range methods {
		h.Methods[i] = int(id)
	}
	return r.w.Write(h)
}

func tracedPasses(specs []lir.PassSpec) []TracedPass {
	out := make([]TracedPass, len(specs))
	for i, s := range specs {
		out[i] = TracedPass{Name: s.Name, Params: s.Params}
	}
	return out
}

// BeforePass asks for the digest and notes the entry needs; a Recorder never
// vetoes.
func (r *Recorder) BeforePass(a *lir.PassApplication) bool {
	a.Before()
	a.CollectNotes()
	if r.opts.DiffLines > 0 {
		r.beforeText = a.Fn.String()
	}
	if r.opts.Checker != nil {
		r.verdicts = len(r.opts.Checker.Verdicts)
	}
	return true
}

// AfterPass writes the application's entry.
func (r *Recorder) AfterPass(a *lir.PassApplication) error {
	f, name := a.Fn, a.Spec.Name
	e := Entry{
		Kind:         KindRewrite,
		Seq:          r.seq,
		Method:       int(f.Method),
		Fn:           f.Name,
		Pass:         name,
		Params:       a.Resolved,
		Before:       HashString(a.Before()),
		After:        HashString(a.After()),
		Fired:        a.Fired(),
		Skipped:      !a.Ran,
		Notes:        a.Notes,
		NotesDropped: a.Dropped,
	}
	if e.Fired {
		r.fired[name]++
		if r.opts.DiffLines > 0 {
			e.Diff, e.DiffTruncated = boundedDiff(r.beforeText, f.String(), r.opts.DiffLines)
		}
	}
	if chk := r.opts.Checker; chk != nil && a.Ran && len(chk.Verdicts) > r.verdicts {
		pv := chk.Verdicts[len(chk.Verdicts)-1]
		if pv.Pass == name && pv.Fn == f.Name {
			e.TV = pv.Verdict.String()
			e.TVReason = pv.Reason
		}
	}
	if a.Err != nil {
		e.Error = a.Err.Error()
	}
	r.seq++
	r.methods[int(f.Method)] = true
	r.beforeText = ""
	r.w.Write(e) // a write error is sticky and surfaces through Err
	return nil
}

// Finish writes the image trailer. Call it only when the compile succeeded;
// an aborted compile leaves the trace trailer-less, which consumers treat as
// "not replayable to an image".
func (r *Recorder) Finish(imageHash uint64) error {
	return r.w.Write(Trailer{
		Kind:      KindImage,
		ImageHash: HashString(imageHash),
		Entries:   r.seq,
		Methods:   len(r.methods),
	})
}

// Entries reports how many rewrite entries were recorded so far.
func (r *Recorder) Entries() int { return r.seq }

// Fired returns a copy of the per-pass fired counts (lock building).
func (r *Recorder) Fired() map[string]int {
	out := make(map[string]int, len(r.fired))
	for k, v := range r.fired {
		out[k] = v
	}
	return out
}

// Err surfaces the writer's sticky error.
func (r *Recorder) Err() error { return r.w.Err() }

// boundedDiff renders a local line diff of two pretty-printed functions:
// the common prefix and suffix are trimmed, the changed middle is emitted as
// "-"/"+" lines, and the result is clamped to max lines.
func boundedDiff(before, after string, max int) (lines []string, truncated bool) {
	if before == after {
		return nil, false
	}
	a := strings.Split(before, "\n")
	b := strings.Split(after, "\n")
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	s := 0
	for s < len(a)-p && s < len(b)-p && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	for _, l := range a[p : len(a)-s] {
		lines = append(lines, "-"+l)
	}
	for _, l := range b[p : len(b)-s] {
		lines = append(lines, "+"+l)
	}
	if len(lines) > max {
		return lines[:max], true
	}
	return lines, false
}
