package rtrace

// Mechanical trace replay: rebuild the compile input from the header, run the
// pipeline again, and prove at every step that it is doing exactly what the
// trace says it did. Replay is the trace's integrity check — a trace that
// replays to the recorded image fingerprint is a complete, faithful account
// of how that image came to be (the reproducibility half of the paper's
// transparency story).

import (
	"fmt"
	"io"
	"os"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/sa"
)

// Trace is a parsed rewrite trace.
type Trace struct {
	Header  *Header
	Entries []Entry
	Trailer *Trailer
}

// ReadTrace parses a JSONL trace stream after the structural checks
// ValidateReader makes (obs span lines sharing the file are skipped). The
// stream must hold a header.
func ReadTrace(r io.Reader) (*Trace, error) {
	t, _, err := scan(r)
	if err != nil {
		return nil, fmt.Errorf("rtrace: %w", err)
	}
	if t.Header == nil {
		return nil, fmt.Errorf("rtrace: no header record found")
	}
	return t, nil
}

// ReadTraceFile reads a trace from disk.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// Methods returns the compile order recorded in the header.
func (t *Trace) Methods() []dex.MethodID {
	out := make([]dex.MethodID, len(t.Header.Methods))
	for i, m := range t.Header.Methods {
		out[i] = dex.MethodID(m)
	}
	return out
}

// Config rebuilds the compile configuration from the header and verifies the
// rebuilt fingerprint matches the recorded one — a changed pass registry or a
// lossy header round-trip fails here, before any compile runs.
func (t *Trace) Config() (lir.Config, error) {
	cfg := lir.Config{Lower: lir.ApplyLlc(t.Header.Llc)}
	for _, p := range t.Header.Passes {
		if _, ok := lir.PassByName(p.Name); !ok {
			return lir.Config{}, fmt.Errorf("rtrace: trace names unknown pass %q", p.Name)
		}
		cfg.Passes = append(cfg.Passes, lir.PassSpec{Name: p.Name, Params: p.Params})
	}
	got := HashString(cfg.Fingerprint())
	if got != t.Header.ConfigFingerprint {
		return lir.Config{}, fmt.Errorf("rtrace: rebuilt config fingerprint %s != recorded %s",
			got, t.Header.ConfigFingerprint)
	}
	return cfg, nil
}

// Divergence pins the first point where a replay disagreed with the trace.
type Divergence struct {
	Seq   int    `json:"seq"`
	Pass  string `json:"pass"`
	Stage string `json:"stage"` // "before" | "after" | "pass-name" | "length"
	Want  string `json:"want"`
	Got   string `json:"got"`
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("rtrace: replay diverged at seq %d (%s, %s): want %s, got %s",
		d.Seq, d.Pass, d.Stage, d.Want, d.Got)
}

// ReplayResult is the verdict of a mechanical replay.
type ReplayResult struct {
	Entries    int         `json:"entries"`
	ImageHash  string      `json:"image_hash"`
	Match      bool        `json:"match"`
	Divergence *Divergence `json:"divergence,omitempty"`
}

// replayTracer checks the live compile against the recorded entries in seq
// order and reproduces recorded skip decisions mechanically.
type replayTracer struct {
	entries []Entry
	seq     int
	div     *Divergence
}

func (rt *replayTracer) BeforePass(a *lir.PassApplication) bool {
	if rt.div != nil {
		return true
	}
	if rt.seq >= len(rt.entries) {
		rt.div = &Divergence{Seq: rt.seq, Pass: a.Spec.Name, Stage: "length",
			Want: fmt.Sprintf("%d entries", len(rt.entries)), Got: "more applications"}
		return true
	}
	e := rt.entries[rt.seq]
	if e.Pass != a.Spec.Name {
		rt.div = &Divergence{Seq: rt.seq, Pass: a.Spec.Name, Stage: "pass-name", Want: e.Pass, Got: a.Spec.Name}
		return true
	}
	if got := HashString(a.Before()); got != e.Before {
		rt.div = &Divergence{Seq: rt.seq, Pass: a.Spec.Name, Stage: "before", Want: e.Before, Got: got}
		return true
	}
	return !e.Skipped
}

func (rt *replayTracer) AfterPass(a *lir.PassApplication) error {
	seq := rt.seq
	rt.seq++
	if rt.div != nil || seq >= len(rt.entries) {
		return nil
	}
	e := rt.entries[seq]
	if got := HashString(a.After()); got != e.After {
		rt.div = &Divergence{Seq: seq, Pass: a.Spec.Name, Stage: "after", Want: e.After, Got: got}
	}
	return nil
}

// Replay mechanically re-executes t against prog: same methods, same config,
// every recorded hash re-checked, final image fingerprint compared. prof and
// static must be the same pipeline inputs the original compile used (core's
// Prepare is deterministic for a given seed, so consumers reconstruct them by
// re-preparing). A compile error or any divergence yields Match=false.
func Replay(prog *dex.Program, t *Trace, prof *lir.Profile, static *sa.Result) (*ReplayResult, error) {
	if t.Trailer == nil {
		return nil, fmt.Errorf("rtrace: trace has no image trailer (aborted compile?); nothing to replay against")
	}
	cfg, err := t.Config()
	if err != nil {
		return nil, err
	}
	rt := &replayTracer{entries: t.Entries}
	cfg.Observe(rt)
	code, cerr := lir.Compile(prog, t.Methods(), cfg, prof, static)
	res := &ReplayResult{Entries: rt.seq}
	if rt.div != nil {
		res.Divergence = rt.div
		return res, nil
	}
	if cerr != nil {
		return nil, fmt.Errorf("rtrace: replay compile failed: %w", cerr)
	}
	if rt.seq != len(t.Entries) {
		res.Divergence = &Divergence{Seq: rt.seq, Stage: "length",
			Want: fmt.Sprintf("%d entries", len(t.Entries)), Got: fmt.Sprintf("%d applications", rt.seq)}
		return res, nil
	}
	res.ImageHash = HashString(machine.HashProgram(code))
	res.Match = res.ImageHash == t.Trailer.ImageHash
	if !res.Match {
		res.Divergence = &Divergence{Seq: len(t.Entries), Stage: "after",
			Want: t.Trailer.ImageHash, Got: res.ImageHash}
	}
	return res, nil
}
