package bench

import (
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/ir"
	"dyncc/internal/testgen"
)

// inlineSrc is a helper-heavy keyed region: every element of the unrolled
// loop goes through a two-deep helper chain. Inlined, the chain collapses
// into straight-line arithmetic the optimizer folds against the region's
// run-time constants; ablated, every element pays two VM call frames
// inside the stitched code.
const inlineSrc = `
int mad(int k, int v) {
    return k * v + (v >> 1);
}

int mix(int k, int v) {
    return (k ^ v) + mad(k, v);
}

int apply(int *a, int n, int k) {
    int i;
    int s;
    s = 0;
    dynamicRegion key(k) (a, n) {
        unrolled for (i = 0; i < n; i++) {
            s = s + mix(k, a[i]);
        }
    }
    return s;
}`

// inlineRun calls apply with a stable key: one warm-up call pays set-up
// and stitching, then `calls` steady-state calls are checked against a
// host model. It returns modeled guest cycles per steady-state call.
func inlineRun(t *testing.T, c *core.Compiled, calls int) float64 {
	t.Helper()
	const n, k = 8, int64(7)
	m := c.NewMachine(0)
	va, err := m.Alloc(n)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := int64(0); i < n; i++ {
		v := 2*i + 1
		m.Mem[va+i] = v
		want += (k ^ v) + k*v + (v >> 1)
	}
	if _, err := m.Call("apply", va, n, k); err != nil {
		t.Fatal(err)
	}
	c0 := m.Cycles
	for j := 0; j < calls; j++ {
		got, err := m.Call("apply", va, n, k)
		if err != nil {
			t.Fatalf("call %d: %v", j, err)
		}
		if got != want {
			t.Fatalf("call %d: got %d, want %d", j, got, want)
		}
	}
	return float64(m.Cycles-c0) / float64(calls)
}

// The helper-heavy region inlined versus ablated (`-disable-pass inline`),
// plus its annotation-stripped form under automatic promotion: the pass
// grafts the helper chain, the ablation leaves residual calls, inlining
// pays at least 1.3x in modeled cycles, and the stripped function
// promotes, which it can only do because its calls are inlinable.
func TestInlineSmall(t *testing.T) {
	const calls = 2000
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
	inl := compile(inlineSrc, core.Config{})
	abl := compile(inlineSrc, core.Config{DisablePasses: []string{"inline"}})
	auto := compile(testgen.StripAnnotations(inlineSrc), core.Config{AutoRegion: true})

	inlines := inl.PassStat("inline").Changes
	residual := 0
	for _, b := range abl.Module.FuncIndex["apply"].Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				residual++
			}
		}
	}
	if inlines == 0 || residual == 0 {
		t.Fatalf("comparison is vacuous: %d call sites grafted, %d residual calls", inlines, residual)
	}
	if f := auto.Module.FuncIndex["apply"]; f == nil || len(f.Regions) == 0 {
		t.Fatal("stripped helper-calling kernel did not auto-promote")
	}

	inlCyc := inlineRun(t, inl, calls)
	ablCyc := inlineRun(t, abl, calls)
	autoCyc := inlineRun(t, auto, calls)
	if inlCyc <= 0 || ablCyc <= 0 || autoCyc <= 0 {
		t.Fatalf("cycles per call not populated: inlined %.1f, ablated %.1f, auto %.1f",
			inlCyc, ablCyc, autoCyc)
	}
	promos := auto.Runtime.CacheStats().Promotions
	if promos == 0 {
		t.Fatalf("formerly call-blocked kernel never promoted over %d calls", calls)
	}
	// Collapsing two call frames per element into folded straight-line
	// code must pay on the guest-cycle model, and clearly.
	if speedup := ablCyc / inlCyc; speedup < 1.3 {
		t.Errorf("inlining speedup below bar: %.2fx cycles (inlined %.1f vs ablated %.1f)",
			speedup, inlCyc, ablCyc)
	}
	t.Logf("inlined %.1f cyc/call, ablated %.1f cyc/call; %d grafts, %d residual; auto %.1f cyc/call, %d promotions",
		inlCyc, ablCyc, inlines, residual, autoCyc, promos)
}
