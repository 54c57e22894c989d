package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"replayopt/internal/lir/rtrace"
	"replayopt/internal/obs"
)

// runTrace validates a JSONL span trace written by replayopt/experiments
// -trace: every line parses, span ids are unique, parents resolve, and
// durations are non-negative. Rewrite-trace records (internal/lir/rtrace)
// sharing the file must pass the same validator as `rtrace -validate`.
// -require asserts that named spans are present, proving a pipeline run
// really went profile → capture → verify → search → install.
func runTrace(e *env, args []string) int {
	fs := e.flags()
	require := fs.String("require", "", "comma-separated span names that must appear at least once")
	quiet := fs.Bool("q", false, "suppress the span-name count listing")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return e.fail(2, "usage: audit trace [-require a,b,c] [-q] trace.jsonl")
	}
	path := fs.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		return e.fail(1, "%v", err)
	}
	defer f.Close()
	spans, err := obs.ReadJSONL(f)
	if err != nil {
		return e.fail(1, "%s: %v", path, err)
	}
	counts, err := obs.ValidateTrace(spans)
	if err != nil {
		return e.fail(1, "%s: %v", path, err)
	}
	rst, err := rtrace.ValidateFile(path)
	if err != nil {
		return e.fail(1, "%v", err)
	}

	if !*quiet {
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(e.stdout, "%6d  %s\n", counts[name], name)
		}
	}
	var missing []string
	for _, name := range strings.Split(*require, ",") {
		if name = strings.TrimSpace(name); name != "" && counts[name] == 0 {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return e.fail(1, "%s: required spans missing: %s", path, strings.Join(missing, ", "))
	}
	if rst.Rewrites > 0 || rst.Locks > 0 {
		fmt.Fprintf(e.stdout, "ok: %d spans, %d distinct names; %d rewrite entries (%d passes fired), %d locks\n",
			len(spans), len(counts), rst.Rewrites, len(rst.Fired), rst.Locks)
		return 0
	}
	fmt.Fprintf(e.stdout, "ok: %d spans, %d distinct names\n", len(spans), len(counts))
	return 0
}
