package lir_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

var updateImages = flag.Bool("update-images", false, "rewrite testdata/image_hashes.txt from the current compiler")

const imageHashesFile = "testdata/image_hashes.txt"

// imageConfigs are the pipelines the golden covers: the presets plus
// inline- and loop-heavy sequences that stress the analyses the passes
// share (RPO, dominators, the loop forest) and the inliner's callee
// splicing.
func imageConfigs() []struct {
	name string
	cfg  lir.Config
} {
	inlineHeavy := lir.O3()
	for i := 0; i < 4; i++ {
		inlineHeavy.Passes = append(inlineHeavy.Passes,
			lir.PassSpec{Name: "inline", Params: map[string]int{"rounds": 4, "threshold": 2000}})
	}
	inlineHeavy.Passes = append(inlineHeavy.Passes,
		lir.PassSpec{Name: "gvn"}, lir.PassSpec{Name: "simplifycfg"}, lir.PassSpec{Name: "dce"})

	loopHeavy := lir.O2()
	loopHeavy.Passes = append(loopHeavy.Passes,
		lir.PassSpec{Name: "unroll", Params: map[string]int{"factor": 3}},
		lir.PassSpec{Name: "licm", Params: map[string]int{"loads": 1}},
		lir.PassSpec{Name: "unswitch"},
		lir.PassSpec{Name: "peel", Params: map[string]int{"count": 2}},
		lir.PassSpec{Name: "rangecheckelim"},
		lir.PassSpec{Name: "gccheckelim"},
		lir.PassSpec{Name: "bce"},
		lir.PassSpec{Name: "vectorize"},
		lir.PassSpec{Name: "simplifycfg"},
		lir.PassSpec{Name: "dce"},
	)

	inlineThenLoops := lir.O1()
	inlineThenLoops.Passes = append(inlineThenLoops.Passes,
		lir.PassSpec{Name: "devirt"},
		lir.PassSpec{Name: "inline", Params: map[string]int{"rounds": 3, "threshold": 400}},
		lir.PassSpec{Name: "licm"},
		lir.PassSpec{Name: "unroll", Params: map[string]int{"factor": 2}},
		lir.PassSpec{Name: "unswitch"},
		lir.PassSpec{Name: "storeforward"},
		lir.PassSpec{Name: "dse"},
		lir.PassSpec{Name: "gvn"},
		lir.PassSpec{Name: "dce"},
	)

	return []struct {
		name string
		cfg  lir.Config
	}{
		{"O1", lir.O1()},
		{"O2", lir.O2()},
		{"O3", lir.O3()},
		{"O3+inline-heavy", inlineHeavy},
		{"O2+loop-heavy", loopHeavy},
		{"O1+inline-then-loops", inlineThenLoops},
	}
}

// imageLine compiles every compilable method of prog under cfg, one method
// at a time so a method that crashes or times out does not hide the rest,
// and renders the image hash plus each failure's method and error.
func imageLine(prog *dex.Program, cfg lir.Config, static *sa.Result) string {
	code := machine.NewProgram()
	var fails []string
	for i := range prog.Methods {
		if prog.Methods[i].Uncompilable {
			continue
		}
		id := dex.MethodID(i)
		fn, err := lir.CompileMethod(prog, id, cfg, nil, static)
		if err != nil {
			fails = append(fails, fmt.Sprintf("m%d:%T", i, err))
			continue
		}
		code.Fns[id] = fn
	}
	line := fmt.Sprintf("%016x fns=%d", machine.HashProgram(code), len(code.Fns))
	if len(fails) > 0 {
		line += " failed=" + strings.Join(fails, ",")
	}
	return line
}

// TestImageHashes pins the machine code every Table 1 app compiles to under
// a fixed set of pipelines. Compiler-internal refactors and speedups must
// leave every image byte-identical; a change that is meant to alter code
// generation regenerates the file with -update-images and says why.
func TestImageHashes(t *testing.T) {
	var got strings.Builder
	for _, spec := range apps.All() {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		static := sa.Analyze(app.Prog)
		vra.Attach(static)
		pts.Attach(static)
		for _, c := range imageConfigs() {
			fmt.Fprintf(&got, "%s\t%s\t%s\n", spec.Name, c.name, imageLine(app.Prog, c.cfg, static))
		}
	}
	if *updateImages {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(imageHashesFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(imageHashesFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-images)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d image lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("image changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// TestConcurrentCompiles compiles one program from several goroutines at
// once, as the GA's workers do, and requires every image to match the
// serial one. Under -race it also proves that a compile's state (the
// inliner's callee cache among it) is private to that compile.
func TestConcurrentCompiles(t *testing.T) {
	spec, _ := apps.ByName("Reversi Android")
	app, err := apps.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	static := sa.Analyze(app.Prog)
	vra.Attach(static)
	pts.Attach(static)
	configs := imageConfigs()
	want := make([]string, len(configs))
	for i, c := range configs {
		want[i] = imageLine(app.Prog, c.cfg, static)
	}
	const workers = 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range configs {
				// Each worker walks the configs from a different start so
				// different pipelines overlap in time.
				c := configs[(i+w)%len(configs)]
				got[w] = append(got[w], imageLine(app.Prog, c.cfg, static))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, line := range got[w] {
			if k := (i + w) % len(configs); line != want[k] {
				t.Errorf("worker %d, %s: got %s, want %s", w, configs[k].name, line, want[k])
			}
		}
	}
}
