package apps

// WitnessSpec returns the diagnostic application used by the effect-analysis
// witness tests and as the `audit effects` walkthrough example. It is deliberately
// NOT part of All() — Table 1 has exactly 21 applications — but Build accepts
// it like any other spec.
//
// The app is engineered so the boolean blocklist and the interprocedural
// effect analysis disagree: its hot kernel dispatches through a virtual
// filter whose vtable slot collides with an IO method of an unrelated
// hierarchy. The legacy dex.Program.Callees over-approximation resolves the
// dispatch through that slot in every class and rejects the kernel; the
// CHA/RTA call graph keeps dispatch inside the Blend subtree and proves it
// replayable. The frame path (run → present → Hud.flush → IO.drawFrame)
// stays unreplayable under both, giving witness chains something to report.
func WitnessSpec() Spec {
	return Spec{
		Name:   "WitnessFilter",
		Type:   Interactive,
		Desc:   "Diagnostic image-filter app for effect-analysis witnesses",
		HeapMB: 8,
		Seed:   310,
		Source: witnessSrc,
	}
}

const witnessSrc = `
global float[] img;
global int frames;

class Blend { func apply(int v) int { return (v * 3 + 1) % 251; } }
class Sharpen extends Blend { func apply(int v) int { return (v * 5 + 2) % 251; } }

class Hud { func flush(int code) int { draw_frame(code); return code + 1; } }

func setup(int n) {
	img = new float[n];
	for (int i = 0; i < n; i = i + 1) { img[i] = itof(i % 17) * 0.25; }
}

func kernel(Blend b, int rounds) int {
	int acc = 0;
	for (int r = 0; r < rounds; r = r + 1) {
		for (int i = 0; i < len(img); i = i + 1) {
			acc = acc + b.apply(ftoi(img[i] * 4.0) + r);
		}
	}
	return acc;
}

func present(Hud h, int code) int { return h.flush(code); }

func run(int nframes) int {
	Hud h = new Hud();
	int total = 0;
	for (int f = 0; f < nframes; f = f + 1) {
		Blend b = new Blend();
		if (f % 2 == 1) { b = new Sharpen(); }
		total = total + kernel(b, 2);
		total = present(h, total % 1000);
		frames = frames + 1;
	}
	return total;
}

func main() int {
	setup(2048);
	int total = run(4);
	print_int(total);
	return total;
}
`
