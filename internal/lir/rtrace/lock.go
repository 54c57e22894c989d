package rtrace

// Policy locks: a winning decision sequence pinned as an artifact. The GA
// hands an app a configuration once; the lock records that configuration
// (explicit params verbatim, so it fingerprints identically), the image it
// produced, and which passes actually fired — enough to detect every way the
// decision can silently rot when the compiler underneath changes:
//
//   - a pass was renamed or removed            -> missing-pass
//   - a parameter disappeared                  -> missing-param
//   - a locked value now clamps differently    -> param-clamped
//   - an llc option vanished or went out of range -> llc-drift
//   - a pass that used to fire no longer does  -> no-longer-fires (dynamic)
//   - the image changed outright               -> image-drift (dynamic)
//
// Static checks need only the current registry; dynamic checks recompile.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/obs"
	"replayopt/internal/sa"
)

// Lock is the persisted policy-lock artifact (one JSON object; also valid as
// a line inside a JSONL trace, discriminated by Kind).
type Lock struct {
	Kind              string         `json:"kind"`
	SchemaVersion     int            `json:"schema"`
	App               string         `json:"app,omitempty"`
	ConfigFingerprint string         `json:"config_fingerprint"`
	ImageHash         string         `json:"image_hash,omitempty"`
	Passes            []TracedPass   `json:"passes"`
	Llc               map[string]int `json:"llc,omitempty"`
	// Fired is the per-pass fired count observed when the lock was cut; a
	// pass listed here was load-bearing, not a no-op.
	Fired map[string]int `json:"fired,omitempty"`
}

// BuildLock cuts a lock from a winning configuration. fired may be nil when
// no trace was recorded (the dynamic no-longer-fires check is then skipped).
func BuildLock(app string, cfg lir.Config, imageHash uint64, fired map[string]int) *Lock {
	l := &Lock{
		Kind:              KindLock,
		SchemaVersion:     SchemaVersion,
		App:               app,
		ConfigFingerprint: HashString(cfg.Fingerprint()),
		Passes:            tracedPasses(cfg.Passes),
		Llc:               lir.LlcFromLower(cfg.Lower),
	}
	if imageHash != 0 {
		l.ImageHash = HashString(imageHash)
	}
	if len(fired) > 0 {
		l.Fired = fired
	}
	return l
}

// Config rebuilds the locked configuration and verifies its fingerprint.
func (l *Lock) Config() (lir.Config, error) {
	cfg := lir.Config{Lower: lir.ApplyLlc(l.Llc)}
	for _, p := range l.Passes {
		cfg.Passes = append(cfg.Passes, lir.PassSpec{Name: p.Name, Params: p.Params})
	}
	got := HashString(cfg.Fingerprint())
	if got != l.ConfigFingerprint {
		return lir.Config{}, fmt.Errorf("rtrace: rebuilt lock fingerprint %s != recorded %s", got, l.ConfigFingerprint)
	}
	return cfg, nil
}

// WriteLockFile persists a lock as indented JSON.
func WriteLockFile(path string, l *Lock) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadLockFile loads and version-checks a lock.
func ReadLockFile(path string) (*Lock, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Lock
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("rtrace: %s: %w", path, err)
	}
	if l.Kind != KindLock {
		return nil, fmt.Errorf("rtrace: %s: kind %q, want %q", path, l.Kind, KindLock)
	}
	if l.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("rtrace: %s: schema version %d, this build understands %d",
			path, l.SchemaVersion, SchemaVersion)
	}
	return &l, nil
}

// Drift is one way the current compiler deviates from a lock.
type Drift struct {
	Kind   string `json:"kind"`
	Pass   string `json:"pass,omitempty"`
	Param  string `json:"param,omitempty"`
	Detail string `json:"detail"`
}

// CheckLock statically audits a lock against the current pass registry and
// llc catalog. An empty result means the locked decisions still resolve to
// the same compile input today.
func CheckLock(l *Lock) []Drift {
	var out []Drift
	for _, p := range l.Passes {
		info, ok := lir.PassByName(p.Name)
		if !ok {
			out = append(out, Drift{Kind: "missing-pass", Pass: p.Name,
				Detail: fmt.Sprintf("locked pass %q is not registered", p.Name)})
			continue
		}
		known := map[string]lir.ParamSpec{}
		for _, ps := range info.Params {
			known[ps.Name] = ps
		}
		names := make([]string, 0, len(p.Params))
		for name := range p.Params {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := p.Params[name]
			if name == "" {
				continue // catalog position-padding key, never a real param
			}
			ps, ok := known[name]
			if !ok {
				out = append(out, Drift{Kind: "missing-param", Pass: p.Name, Param: name,
					Detail: fmt.Sprintf("locked param %s.%s no longer exists", p.Name, name)})
				continue
			}
			if v < ps.Min || v > ps.Max {
				out = append(out, Drift{Kind: "param-clamped", Pass: p.Name, Param: name,
					Detail: fmt.Sprintf("locked %s.%s=%d now clamps to [%d,%d]", p.Name, name, v, ps.Min, ps.Max)})
			}
		}
	}
	opts := map[string]lir.LlcOption{}
	for _, o := range lir.LlcCatalog() {
		opts[o.Name] = o
	}
	names := make([]string, 0, len(l.Llc))
	for name := range l.Llc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := l.Llc[name]
		o, ok := opts[name]
		if !ok {
			out = append(out, Drift{Kind: "llc-drift", Param: name,
				Detail: fmt.Sprintf("locked llc option %q is not in the catalog", name)})
			continue
		}
		if v < o.Min || v > o.Max {
			out = append(out, Drift{Kind: "llc-drift", Param: name,
				Detail: fmt.Sprintf("locked llc %s=%d outside current range [%d,%d]", name, v, o.Min, o.Max)})
		}
	}
	if _, err := l.Config(); err != nil {
		out = append(out, Drift{Kind: "fingerprint-drift", Detail: err.Error()})
	}
	return out
}

// CheckLockDynamic recompiles under the locked configuration and reports
// decisions that no longer hold: passes that used to fire but are now no-ops
// for this program, and an image fingerprint that drifted. Static drift that
// prevents rebuilding the config is returned as-is without compiling.
func CheckLockDynamic(l *Lock, prog *dex.Program, methods []dex.MethodID, prof *lir.Profile, static *sa.Result) []Drift {
	if out := CheckLock(l); len(out) > 0 {
		return out
	}
	cfg, err := l.Config()
	if err != nil {
		return []Drift{{Kind: "fingerprint-drift", Detail: err.Error()}}
	}
	rec := NewRecorder(obs.NewJSONLWriter(io.Discard), RecorderOptions{})
	cfg.Observe(rec)
	code, err := lir.Compile(prog, methods, cfg, prof, static)
	if err != nil {
		return []Drift{{Kind: "compile-error", Detail: err.Error()}}
	}
	fired := rec.Fired()
	var out []Drift
	names := make([]string, 0, len(l.Fired))
	for name := range l.Fired {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if l.Fired[name] > 0 && fired[name] == 0 {
			out = append(out, Drift{Kind: "no-longer-fires", Pass: name,
				Detail: fmt.Sprintf("pass %s fired %d times at lock time, 0 now", name, l.Fired[name])})
		}
	}
	if l.ImageHash != "" {
		got := HashString(machine.HashProgram(code))
		if got != l.ImageHash {
			out = append(out, Drift{Kind: "image-drift",
				Detail: fmt.Sprintf("locked image %s, recompile produced %s", l.ImageHash, got)})
		}
	}
	return out
}
