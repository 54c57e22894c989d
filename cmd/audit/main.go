// Command audit runs the developer-facing audits behind the optimizer's
// transparency claims and checks the documents they and the benchmarks
// write. Every JSON document has one Go type in the package that produces
// it and is checked by the shared strict decoder (internal/schema).
//
// Usage:
//
//	audit effects [-app A,B | -all] [-method SUB] [-json]  # §3.1 replayability verdicts
//	audit ranges  [-app A,B | -all] [-method SUB] [-json]  # bounds checks the range analysis discharges
//	audit alias   [-app A,B | -all] [-method SUB] [-json]  # access pairs the points-to analysis separates
//	audit tv      [-app A,B | -all] [-presets O1,O2,O3] [-json]
//	audit tv      -fuzz N [-passes dce,gvn]                # differential pass fuzzing
//	audit store   [-verify | -repair | -json] store.cas    # capture-store health and dedup
//	audit trace   [-require a,b] [-q] trace.jsonl           # span and rewrite-trace structure
//	audit bench   [-compare base.json [-tolerance 0.2] [-compare-normalized]] BENCH_x.json
//	audit check   effects|ranges|alias|tv|store|bench < doc.json
//
// The per-app audits take -list to print the applications they know. -json
// output is checked through the decoder before it is printed; `audit check`
// reads a stream of one or more documents from stdin and checks each. tv
// exits 1 when any pass is Rejected or the fuzzer finds a defect; store
// -verify exits 1 unless the store is healthy; bench -compare exits 1 on a
// regression beyond the tolerance. Exit status 2 is a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"replayopt/internal/capture/castore"
	"replayopt/internal/fleet"
	"replayopt/internal/ga"
	"replayopt/internal/lir/tv"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
	"replayopt/internal/schema"
)

const usage = `usage: audit <subcommand> [flags] [args]
subcommands: effects ranges alias tv store trace bench check
`

// env carries one invocation's streams and the running subcommand's name.
type env struct {
	name   string
	stdin  io.Reader
	stdout io.Writer
	stderr io.Writer
}

// fail reports an error on stderr and returns the exit status.
func (e *env) fail(status int, format string, args ...any) int {
	fmt.Fprintf(e.stderr, "audit %s: %s\n", e.name, fmt.Sprintf(format, args...))
	return status
}

// flags returns a flag set that reports parse errors on stderr.
func (e *env) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("audit "+e.name, flag.ContinueOnError)
	fs.SetOutput(e.stderr)
	return fs
}

var subcommands = map[string]func(e *env, args []string) int{
	"effects": runEffects,
	"ranges":  runRanges,
	"alias":   runAlias,
	"tv":      runTV,
	"store":   runStore,
	"trace":   runTrace,
	"bench":   runBench,
	"check":   runCheck,
}

// documents maps each report kind of `audit check` to a fresh document.
var documents = map[string]func() schema.Checker{
	"effects": func() schema.Checker { return new(sa.Report) },
	"ranges":  func() schema.Checker { return new(vra.Report) },
	"alias":   func() schema.Checker { return new(pts.Report) },
	"tv":      func() schema.Checker { return new(tv.Report) },
	"store":   func() schema.Checker { return new(castore.Report) },
}

// benchmarks maps the "benchmark" field of a BENCH_*.json artifact to a
// fresh document of its type.
var benchmarks = map[string]func() schema.Checker{
	"TranslationValidation": func() schema.Checker { return new(tv.Bench) },
	"SearchParallel":        func() schema.Checker { return new(ga.Bench) },
	"SnapshotStore":         func() schema.Checker { return new(castore.Bench) },
	"Fleet":                 func() schema.Checker { return new(fleet.Bench) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes one audit invocation and returns its exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	cmd, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "audit: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
	return cmd(&env{name: args[0], stdin: stdin, stdout: stdout, stderr: stderr}, args[1:])
}

// decode strictly decodes one document of a check kind; a bench document's
// type follows its "benchmark" field.
func decode(kind string, data []byte) (schema.Checker, error) {
	newDoc := documents[kind]
	if kind == "bench" {
		var probe struct {
			Benchmark string `json:"benchmark"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			return nil, fmt.Errorf("not JSON: %w", err)
		}
		if newDoc = benchmarks[probe.Benchmark]; newDoc == nil {
			return nil, fmt.Errorf("benchmark: unknown %q", probe.Benchmark)
		}
	}
	doc := newDoc()
	return doc, schema.Decode(data, doc)
}

// emit prints doc as indented JSON after checking the encoding through the
// decoder as a document of the running subcommand's kind.
func (e *env) emit(doc schema.Checker) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if _, err := decode(e.name, data); err != nil {
		return fmt.Errorf("emitted document fails its own schema: %w", err)
	}
	_, err = e.stdout.Write(append(data, '\n'))
	return err
}

// runCheck checks every document on stdin as the named kind.
func runCheck(e *env, args []string) int {
	if len(args) != 1 || (documents[args[0]] == nil && args[0] != "bench") {
		return e.fail(2, "usage: audit check effects|ranges|alias|tv|store|bench < doc.json")
	}
	kind := args[0]
	dec := json.NewDecoder(e.stdin)
	n := 0
	for {
		var raw json.RawMessage
		err := dec.Decode(&raw)
		if errors.Is(err, io.EOF) {
			break
		}
		n++
		if err == nil {
			_, err = decode(kind, raw)
		}
		if err != nil {
			return e.fail(1, "%s document %d: %v", kind, n, err)
		}
	}
	if n == 0 {
		return e.fail(1, "no %s document on stdin", kind)
	}
	fmt.Fprintf(e.stdout, "%s ok: %d document(s)\n", kind, n)
	return 0
}
