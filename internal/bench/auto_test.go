package bench

import (
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/testgen"
)

// autoSrc is the annotated kernel; testgen.StripAnnotations turns it into
// the plain program the speculative and static subjects compile. Both
// scalar parameters are region keys, so the automatic pass speculates on
// exactly the operands the annotation names.
const autoSrc = `
int kernel(int k, int n, int *a) {
    int s;
    s = 0;
    dynamicRegion key(k, n) () {
        int i;
        unrolled for (i = 0; i < n; i++) {
            s = s + a[i] * k;
        }
    }
    return s;
}`

// autoRun drives one compiled subject through a phased workload: the key
// operand holds for phaseLen calls, then flips between 3 and 5, so every
// phase boundary is a guard failure for promoted code. Every result is
// checked. It returns modeled guest cycles per call and the 1-based index
// of the call after which the runtime first reported a promotion (the
// call count if it never did).
func autoRun(t *testing.T, c *core.Compiled, phases, phaseLen int) (cycPerCall float64, firstPromotion int) {
	t.Helper()
	const n = 8
	m := c.NewMachine(0)
	va, err := m.Alloc(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		m.Mem[va+i] = 2*i + 1
	}
	calls := 0
	for p := 0; p < phases; p++ {
		k := int64(3 + 2*(p%2))
		var want int64
		for i := int64(0); i < n; i++ {
			want += m.Mem[va+i] * k
		}
		for j := 0; j < phaseLen; j++ {
			got, err := m.Call("kernel", k, n, va)
			if err != nil {
				t.Fatalf("phase %d call %d: %v", p, j, err)
			}
			if got != want {
				t.Fatalf("phase %d call %d: got %d, want %d", p, j, got, want)
			}
			calls++
			if firstPromotion == 0 && c.Runtime.CacheStats().Promotions > 0 {
				firstPromotion = calls
			}
		}
	}
	if firstPromotion == 0 {
		firstPromotion = calls
	}
	return float64(m.Cycles) / float64(calls), firstPromotion
}

// The same kernel three ways on one phased workload: annotation-stripped
// with nothing (the static baseline), annotation-stripped with speculative
// promotion, and hand-annotated. All three agree on every call, the
// speculative subject promotes and deopts, and guarded promoted code beats
// the static baseline in modeled cycles.
func TestAutoRegionSmall(t *testing.T) {
	const phases, phaseLen = 4, 256
	stripped := testgen.StripAnnotations(autoSrc)
	compile := func(src string, cfg core.Config) *core.Compiled {
		t.Helper()
		cfg.Dynamic, cfg.Optimize = true, true
		c, err := core.Compile(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Runtime.Close)
		return c
	}
	off := compile(stripped, core.Config{})
	// Gentle backoff with a capped threshold well under the phase length
	// keeps re-promotion reachable in every phase.
	auto := compile(stripped, core.Config{AutoRegion: true,
		Auto: rtr.AutoOptions{BackoffFactor: 2, MaxThreshold: 64}})
	if len(auto.Output.Regions) == 0 {
		t.Fatal("the automatic pass promoted no region")
	}
	annot := compile(autoSrc, core.Config{})

	offCPC, _ := autoRun(t, off, phases, phaseLen)
	autoCPC, latency := autoRun(t, auto, phases, phaseLen)
	annotCPC, _ := autoRun(t, annot, phases, phaseLen)
	cs := auto.Runtime.CacheStats()
	keyChanges := uint64(phases - 1)

	if cs.Promotions == 0 || cs.Deopts == 0 {
		t.Fatalf("speculation did not engage: %d promotions, %d deopts", cs.Promotions, cs.Deopts)
	}
	if cs.Deopts > keyChanges {
		t.Fatalf("more deopts (%d) than key changes (%d)", cs.Deopts, keyChanges)
	}
	if latency < 1 || latency > phases*phaseLen {
		t.Fatalf("promotion latency out of range: %d", latency)
	}
	if offCPC <= 0 || autoCPC <= 0 || annotCPC <= 0 {
		t.Fatalf("cycles per call not populated: static %.1f, auto %.1f, annotated %.1f",
			offCPC, autoCPC, annotCPC)
	}
	// The guarded monomorphic steady state must beat the static baseline —
	// that is the point of promotion. The hand-annotated region is the
	// ceiling (it also gets loop unrolling from the `unrolled` hint).
	autoSpeedup, annotSpeedup := offCPC/autoCPC, offCPC/annotCPC
	if autoSpeedup <= 1.0 {
		t.Errorf("speculation did not pay: auto %.1f cyc/call vs static %.1f", autoCPC, offCPC)
	}
	if annotSpeedup < autoSpeedup {
		t.Errorf("annotated (%.2fx) should be at least the auto speedup (%.2fx)",
			annotSpeedup, autoSpeedup)
	}
	t.Logf("static %.1f, auto %.1f (%.2fx), annotated %.1f (%.2fx); %d promotions, %d deopts, latency %d calls",
		offCPC, autoCPC, autoSpeedup, annotCPC, annotSpeedup, cs.Promotions, cs.Deopts, latency)
}
