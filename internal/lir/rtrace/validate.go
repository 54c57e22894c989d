package rtrace

// Shared trace-artifact reader, behind ReadTrace, `cmd/rtrace -validate` and
// `audit trace`, so the tools can never disagree about what a well-formed
// trace file is. The checks are structural — JSON validity, known kinds,
// schema version, hash syntax, seq monotonicity, header-before-entries,
// trailer consistency — not semantic (replay does the semantic check).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ValidateStats summarizes a validated file.
type ValidateStats struct {
	Headers  int            `json:"headers"`
	Rewrites int            `json:"rewrites"`
	Trailers int            `json:"trailers"`
	Locks    int            `json:"locks"`
	Spans    int            `json:"spans"` // obs span lines sharing the file
	Fired    map[string]int `json:"fired,omitempty"`
}

// ValidateReader checks every line of a JSONL trace stream: a trace, a lock,
// or a span file.
func ValidateReader(r io.Reader) (*ValidateStats, error) {
	_, st, err := scan(r)
	return st, err
}

// scan reads a JSONL stream once, checking every line and collecting the
// trace records. Lines without a "kind" field are treated as obs span lines
// and only checked for JSON validity; unknown kinds are errors (a schema
// change must bump SchemaVersion, not invent undeclared kinds).
func scan(r io.Reader) (*Trace, *ValidateStats, error) {
	t := &Trace{}
	st := &ValidateStats{Fired: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, nil, fmt.Errorf("line %d: invalid JSON: %w", line, err)
		}
		switch probe.Kind {
		case "":
			st.Spans++
		case KindHeader:
			var h Header
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, nil, fmt.Errorf("line %d: bad header: %w", line, err)
			}
			if h.SchemaVersion != SchemaVersion {
				return nil, nil, fmt.Errorf("line %d: schema version %d, this build understands %d",
					line, h.SchemaVersion, SchemaVersion)
			}
			if t.Header != nil {
				return nil, nil, fmt.Errorf("line %d: duplicate trace header", line)
			}
			if _, err := ParseHash(h.ConfigFingerprint); err != nil {
				return nil, nil, fmt.Errorf("line %d: config fingerprint: %v", line, err)
			}
			t.Header = &h
			st.Headers++
		case KindRewrite:
			var e Entry
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, nil, fmt.Errorf("line %d: bad rewrite entry: %w", line, err)
			}
			if t.Header == nil {
				return nil, nil, fmt.Errorf("line %d: rewrite entry before any header", line)
			}
			if t.Trailer != nil {
				return nil, nil, fmt.Errorf("line %d: rewrite entry after the image trailer", line)
			}
			if e.Seq != len(t.Entries) {
				return nil, nil, fmt.Errorf("line %d: seq %d, want %d", line, e.Seq, len(t.Entries))
			}
			if _, err := ParseHash(e.Before); err != nil {
				return nil, nil, fmt.Errorf("line %d: before hash: %v", line, err)
			}
			if _, err := ParseHash(e.After); err != nil {
				return nil, nil, fmt.Errorf("line %d: after hash: %v", line, err)
			}
			if e.Pass == "" {
				return nil, nil, fmt.Errorf("line %d: rewrite entry without a pass name", line)
			}
			if e.Skipped && e.Before != e.After {
				return nil, nil, fmt.Errorf("line %d: skipped application changed the IR (%s -> %s)",
					line, e.Before, e.After)
			}
			if e.Fired && e.Before == e.After {
				return nil, nil, fmt.Errorf("line %d: entry marked fired but hashes are identical", line)
			}
			if e.Fired {
				st.Fired[e.Pass]++
			}
			t.Entries = append(t.Entries, e)
			st.Rewrites++
		case KindImage:
			var tr Trailer
			if err := json.Unmarshal(raw, &tr); err != nil {
				return nil, nil, fmt.Errorf("line %d: bad trailer: %w", line, err)
			}
			if t.Trailer != nil {
				return nil, nil, fmt.Errorf("line %d: duplicate image trailer", line)
			}
			if _, err := ParseHash(tr.ImageHash); err != nil {
				return nil, nil, fmt.Errorf("line %d: image hash: %v", line, err)
			}
			if tr.Entries != len(t.Entries) {
				return nil, nil, fmt.Errorf("line %d: trailer claims %d entries, file has %d",
					line, tr.Entries, len(t.Entries))
			}
			t.Trailer = &tr
			st.Trailers++
		case KindLock:
			var l Lock
			if err := json.Unmarshal(raw, &l); err != nil {
				return nil, nil, fmt.Errorf("line %d: bad lock: %w", line, err)
			}
			if l.SchemaVersion != SchemaVersion {
				return nil, nil, fmt.Errorf("line %d: lock schema version %d, this build understands %d",
					line, l.SchemaVersion, SchemaVersion)
			}
			if _, err := ParseHash(l.ConfigFingerprint); err != nil {
				return nil, nil, fmt.Errorf("line %d: lock fingerprint: %v", line, err)
			}
			st.Locks++
		default:
			return nil, nil, fmt.Errorf("line %d: unknown record kind %q", line, probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return t, st, nil
}

// ValidateFile validates one trace file on disk.
func ValidateFile(path string) (*ValidateStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := ValidateReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}
