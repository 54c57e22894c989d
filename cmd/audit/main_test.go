package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"replayopt/internal/capture/castore"
)

// tinyStore writes a one-snapshot capture store for the store audit.
func tinyStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.cas")
	w, err := castore.OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	k, _, err := w.PutChunk(bytes.Repeat([]byte{7}, 4096))
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := w.PutManifest([]byte("meta"), []castore.PageRef{{Addr: 0x1000, Key: k}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutIndex([]castore.Key{d}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	store := tinyStore(t)
	// Every committed artifact, as one stream for `audit check bench`.
	var committed []byte
	for _, name := range []string{"tv", "parallel", "store", "fleet"} {
		data, err := os.ReadFile("../../BENCH_" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		committed = append(committed, data...)
	}
	fleetBench, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	storeBench, err := os.ReadFile("../../BENCH_store.json")
	if err != nil {
		t.Fatal(err)
	}
	setStoreField := func(field, value string) string {
		return regexp.MustCompile(`"`+field+`": \d+`).ReplaceAllString(string(storeBench), `"`+field+`": `+value)
	}
	for _, tc := range []struct {
		name       string
		args       []string
		stdin      string
		wantStatus int
		checkKind  string // when set, stdout must pass `audit check checkKind`
		wantStderr string
	}{
		{name: "effects json", args: []string{"effects", "-app", "WitnessFilter", "-json"}, checkKind: "effects"},
		{name: "ranges json", args: []string{"ranges", "-app", "SelectionSort", "-json"}, checkKind: "ranges"},
		{name: "alias json", args: []string{"alias", "-app", "ScratchFilter", "-json"}, checkKind: "alias"},
		{name: "tv json", args: []string{"tv", "-app", "BubbleSort", "-presets", "O1", "-json"}, checkKind: "tv"},
		{name: "store json", args: []string{"store", "-json", store}, checkKind: "store"},
		{name: "committed bench", args: []string{"check", "bench"}, stdin: string(committed)},
		{name: "compare parallel", args: []string{"bench", "-compare", "../../BENCH_parallel.json", "../../BENCH_parallel.json"}},
		{name: "compare fleet", args: []string{"bench", "-compare", "../../BENCH_fleet.json", "../../BENCH_fleet.json"}},
		{name: "compare ungated", args: []string{"bench", "-compare", "../../BENCH_tv.json", "../../BENCH_tv.json"},
			wantStatus: 2, wantStderr: "gates SearchParallel and Fleet artifacts only"},
		{name: "no subcommand", wantStatus: 2, wantStderr: "usage"},
		{name: "unknown subcommand", args: []string{"lint"}, wantStatus: 2, wantStderr: `unknown subcommand "lint"`},
		{name: "unknown app", args: []string{"effects", "-app", "Nope"}, wantStatus: 2, wantStderr: `unknown app "Nope"`},
		{name: "no app", args: []string{"ranges"}, wantStatus: 2, wantStderr: "-all"},
		{name: "unknown check kind", args: []string{"check", "lint"}, wantStatus: 2, wantStderr: "usage"},
		{name: "corrupt report", args: []string{"check", "store"}, stdin: `{"schema_version":1.5}`,
			wantStatus: 1, wantStderr: "schema_version"},
		{name: "corrupt bench", args: []string{"check", "bench"},
			stdin:      strings.Replace(string(fleetBench), `"dropped_jobs": 0`, `"dropped_jobs": -1`, 1),
			wantStatus: 1, wantStderr: "dropped_jobs"},
		{name: "store bench without gzip baseline", args: []string{"check", "bench"},
			stdin: setStoreField("gzip_bytes", "0"), wantStatus: 1, wantStderr: "gzip_bytes 0 not positive"},
		{name: "store bench castore not below gzip", args: []string{"check", "bench"},
			stdin:      setStoreField("castore_bytes", "999999999"),
			wantStatus: 1, wantStderr: "not smaller than gzip"},
		{name: "empty check", args: []string{"check", "tv"}, wantStatus: 1, wantStderr: "no tv document"},
	} {
		var stdout, stderr bytes.Buffer
		status := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr)
		if status != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (stderr %q)", tc.name, status, tc.wantStatus, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr.String(), tc.wantStderr)
		}
		if tc.checkKind == "" {
			continue
		}
		var checkOut, checkErr bytes.Buffer
		if status := run([]string{"check", tc.checkKind}, &stdout, &checkOut, &checkErr); status != 0 {
			t.Errorf("%s: output fails `audit check %s`: %s", tc.name, tc.checkKind, checkErr.String())
		}
	}
}
