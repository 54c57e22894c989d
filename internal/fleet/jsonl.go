// The append-only JSONL discipline both fleet logs share: the job log and
// every per-job evaluation journal.

package fleet

import (
	"bytes"
	"encoding/json"
	"os"
)

// openJSONL replays the JSONL log at path, creating it when absent, and opens
// it for appending. decode sees every complete non-blank line in order and
// skips one it cannot decode: a damaged or foreign record costs that line
// only. A final fragment with no newline is a torn append, never
// acknowledged because appendJSONL syncs only after the newline. It is
// truncated so the next append starts on a line boundary instead of being
// glued onto the fragment, as castore truncates a torn tail (DESIGN §10).
func openJSONL(path string, decode func(line []byte)) (*os.File, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	intact := bytes.LastIndexByte(data, '\n') + 1
	for _, line := range bytes.Split(data[:intact], []byte{'\n'}) {
		if line = bytes.TrimSpace(line); len(line) > 0 {
			decode(line)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if intact < len(data) {
		if err := f.Truncate(int64(intact)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// appendJSONL writes v as one record line and syncs it. The sync is what
// makes an append crash-safe: once it returns, a kill at any instant loses
// at most a later record.
func appendJSONL(f *os.File, v any) error {
	rec, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		return err
	}
	return f.Sync()
}
