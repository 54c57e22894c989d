package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"replayopt/internal/obs"
)

// provenance is recorded with every run: printed before the result line and
// attached to the traced run's root span. None of it is a gated metric.
type provenance struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Trace         bool   `json:"trace"`
	GAParallelism int    `json:"ga_parallelism"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, "unknown" when
	// it was built outside a checkout with history.
	Commit string `json:"commit"`
	// GoLines and GoTestLines count the repository's Go source lines outside
	// this benchmark's directory: the code-size figure ROADMAP.md tracks.
	GoLines     int `json:"go_lines"`
	GoTestLines int `json:"go_test_lines"`
}

func collectProvenance(c config, traced bool) provenance {
	p := provenance{
		Workload:      c.w.name,
		Seed:          c.seed,
		Trace:         traced,
		GAParallelism: c.opts.GA.Parallelism,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	p.GoLines, p.GoTestLines = countGoLines(c.root)
	return p
}

func (p provenance) attrs() []obs.Attr {
	return []obs.Attr{
		obs.A("workload", p.Workload), obs.A("seed", p.Seed), obs.A("ga_parallelism", p.GAParallelism),
		obs.A("nproc", p.NumCPU), obs.A("gomaxprocs", p.GOMAXPROCS), obs.A("go_version", p.GoVersion),
		obs.A("commit", p.Commit), obs.A("go_lines", p.GoLines), obs.A("go_test_lines", p.GoTestLines),
	}
}

// countGoLines counts lines of .go files under root, split into non-test
// and test files, skipping hidden directories and this benchmark's own.
func countGoLines(root string) (code, tests int) {
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "pipebench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		n := countLines(path)
		if strings.HasSuffix(path, "_test.go") {
			tests += n
		} else {
			code += n
		}
		return nil
	})
	return code, tests
}

func countLines(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		n++
	}
	return n
}
