package rtr_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/stitcher"
	"dyncc/internal/vm"
)

const keyedSrc = `
int scale(int s, int x) {
    int r;
    dynamicRegion key(s) () {
        r = x * s;
    }
    return r;
}`

// pointerSrc specializes on data reached through a pointer: its set-up
// loads from machine memory, so its stitched code must never be shared
// across machines.
const pointerSrc = `
int first(int *a) {
    dynamicRegion (a) {
        return a[0] * 2;
    }
    return -1;
}`

func compileKeyed(t *testing.T, cache rtr.CacheOptions) *core.Compiled {
	t.Helper()
	c, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKeyedCodeCache(t *testing.T) {
	c := compileKeyed(t, rtr.CacheOptions{KeepStitched: true})
	m := c.NewMachine(0)
	// Three scalars, several invocations each, interleaved.
	for round := 0; round < 4; round++ {
		for _, s := range []int64{3, 7, 10} {
			for _, x := range []int64{1, -5, 100} {
				got, err := m.Call("scale", s, x)
				if err != nil {
					t.Fatal(err)
				}
				if got != s*x {
					t.Fatalf("scale(%d,%d) = %d", s, x, got)
				}
			}
		}
	}
	rc := m.Region(0)
	if rc.Compiles != 3 {
		t.Errorf("expected 3 compiled versions (one per key), got %d", rc.Compiles)
	}
	if rc.Invocations != 4*3*3 {
		t.Errorf("invocations: %d", rc.Invocations)
	}
	if len(c.Runtime.Stitched[0]) != 3 {
		t.Errorf("stitched segments: %d", len(c.Runtime.Stitched[0]))
	}
}

func TestUnkeyedRegionCompilesOnce(t *testing.T) {
	src := `
int f(int c, int x) {
    int r;
    dynamicRegion (c) {
        r = x + c;
    }
    return r;
}`
	c, err := core.Compile(src, core.Config{Dynamic: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMachine(0)
	for i := int64(0); i < 50; i++ {
		if got, err := m.Call("f", 9, i); err != nil || got != 9+i {
			t.Fatalf("f(9,%d) = %d, %v", i, got, err)
		}
	}
	if m.Region(0).Compiles != 1 {
		t.Errorf("compiles: %d", m.Region(0).Compiles)
	}
}

// A keyed region whose set-up is a pure function of the key is Shareable:
// the second machine adopts the first machine's stitched code instead of
// re-stitching, paying zero dynamic-compilation overhead.
func TestSharedAcrossMachines(t *testing.T) {
	c := compileKeyed(t, rtr.CacheOptions{})
	if !c.Output.Regions[0].Shareable {
		t.Fatal("keyed pure region should be marked Shareable")
	}
	m1 := c.NewMachine(0)
	m2 := c.NewMachine(0)
	if v, err := m1.Call("scale", 5, 10); err != nil || v != 50 {
		t.Fatalf("m1: %d, %v", v, err)
	}
	if v, err := m2.Call("scale", 5, 10); err != nil || v != 50 {
		t.Fatalf("m2: %d, %v", v, err)
	}
	if got := m1.Region(0).Compiles; got != 1 {
		t.Errorf("m1 compiles: %d, want 1", got)
	}
	if got := m2.Region(0).Compiles; got != 0 {
		t.Errorf("m2 compiles: %d, want 0 (adopted from shared cache)", got)
	}
	if got := m2.Region(0).Overhead(); got != 0 {
		t.Errorf("m2 overhead: %d cycles, want 0 (shared hit)", got)
	}
	cs := c.Runtime.CacheStats()
	if cs.Stitches != 1 || cs.SharedHits != 1 {
		t.Errorf("cache stats: %+v, want 1 stitch / 1 shared hit", cs)
	}
	if c.Runtime.Stats(0).InstsStitched == 0 {
		t.Error("runtime stats not aggregated")
	}
}

// NoShare restores the seed behaviour: every machine stitches privately.
func TestNoShareDisablesSharing(t *testing.T) {
	c := compileKeyed(t, rtr.CacheOptions{NoShare: true})
	m1 := c.NewMachine(0)
	m2 := c.NewMachine(0)
	if _, err := m1.Call("scale", 5, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Call("scale", 5, 10); err != nil {
		t.Fatal(err)
	}
	if m1.Region(0).Compiles != 1 || m2.Region(0).Compiles != 1 {
		t.Error("with NoShare each machine must stitch its own version")
	}
}

// Regions whose set-up reads machine memory are not Shareable: their
// tables alias per-machine data, so each machine stitches its own copy
// and two machines with different data get different specializations.
func TestUnshareableStaysPerMachine(t *testing.T) {
	c, err := core.Compile(pointerSrc, core.Config{Dynamic: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Output.Regions[0].Shareable {
		t.Fatal("pointer-loading region must not be Shareable")
	}
	m1 := c.NewMachine(0)
	m2 := c.NewMachine(0)
	a1, _ := m1.Alloc(1)
	m1.Mem[a1] = 21
	a2, _ := m2.Alloc(1)
	m2.Mem[a2] = 100
	if v, err := m1.Call("first", a1); err != nil || v != 42 {
		t.Fatalf("m1: %d, %v", v, err)
	}
	if v, err := m2.Call("first", a2); err != nil || v != 200 {
		t.Fatalf("m2: %d, %v (stale shared specialization?)", v, err)
	}
	if m1.Region(0).Compiles != 1 || m2.Region(0).Compiles != 1 {
		t.Error("each machine must stitch its own version")
	}
}

// Stitched-segment retention is a diagnostic and must be off by default:
// a long-running server would otherwise hold every segment ever stitched.
func TestKeepStitchedGate(t *testing.T) {
	off := compileKeyed(t, rtr.CacheOptions{})
	m := off.NewMachine(0)
	if _, err := m.Call("scale", 3, 4); err != nil {
		t.Fatal(err)
	}
	if n := len(off.Runtime.Stitched[0]); n != 0 {
		t.Errorf("Stitched retained %d segments with KeepStitched off", n)
	}

	on := compileKeyed(t, rtr.CacheOptions{KeepStitched: true})
	m = on.NewMachine(0)
	if _, err := m.Call("scale", 3, 4); err != nil {
		t.Fatal(err)
	}
	if n := len(on.Runtime.Stitched[0]); n != 1 {
		t.Errorf("Stitched retained %d segments with KeepStitched on, want 1", n)
	}
}

func TestStrengthReductionAblation(t *testing.T) {
	on, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true,
		Stitcher: stitcher.Options{NoStrengthReduction: true}})
	if err != nil {
		t.Fatal(err)
	}
	mOn, mOff := on.NewMachine(0), off.NewMachine(0)
	for i := int64(0); i < 100; i++ {
		a, _ := mOn.Call("scale", 7, i)
		b, _ := mOff.Call("scale", 7, i)
		if a != b || a != 7*i {
			t.Fatalf("mismatch at %d: %d vs %d", i, a, b)
		}
	}
	if on.Runtime.Stats(0).StrengthReductions == 0 {
		t.Error("expected reductions with the option on")
	}
	if off.Runtime.Stats(0).StrengthReductions != 0 {
		t.Error("expected no reductions with the option off")
	}
	// Multiply by 7 without reduction costs more cycles per invocation.
	if mOff.Region(0).ExecCycles <= mOn.Region(0).ExecCycles {
		t.Errorf("ablation should cost cycles: on=%d off=%d",
			mOn.Region(0).ExecCycles, mOff.Region(0).ExecCycles)
	}
}

// Reset wipes machine memory, so cached specializations must be dropped
// and the region recompiled against the new data.
func TestResetInvalidatesCache(t *testing.T) {
	c, err := core.Compile(pointerSrc, core.Config{Dynamic: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMachine(0)
	addr, _ := m.Alloc(1)
	m.Mem[addr] = 21
	if v, _ := m.Call("first", addr); v != 42 {
		t.Fatalf("first run: %d", v)
	}
	m.Reset()
	addr2, _ := m.Alloc(1)
	m.Mem[addr2] = 100
	v, err := m.Call("first", addr2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 200 {
		t.Errorf("after reset: %d, want 200 (stale specialization?)", v)
	}
	if m.Region(0).Compiles != 2 {
		t.Errorf("compiles: %d, want 2", m.Region(0).Compiles)
	}
}

// The tentpole concurrency test: many machines on many goroutines racing
// over the same cold keys. The singleflight guard must collapse the races
// to exactly one stitch per distinct key, every machine must compute the
// same results as a single-threaded run, and the whole thing must pass
// under -race.
func TestConcurrentSharedCache(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 16
	)
	keys := []int64{2, 3, 5, 7, 11, 13}
	xs := []int64{1, -4, 9, 1000}

	for _, merged := range []bool{false, true} {
		name := "two-pass"
		if merged {
			name = "merged"
		}
		t.Run(name, func(t *testing.T) {
			c, err := core.Compile(keyedSrc, core.Config{
				Dynamic: true, Optimize: true, MergedStitch: merged})
			if err != nil {
				t.Fatal(err)
			}
			machines := make([]*machineDriver, goroutines)
			for i := range machines {
				machines[i] = &machineDriver{m: c.NewMachine(0)}
			}
			var wg sync.WaitGroup
			for _, d := range machines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d.drive(rounds, keys, xs)
				}()
			}
			wg.Wait()

			var totalCompiles uint64
			for i, d := range machines {
				if d.err != nil {
					t.Fatalf("machine %d: %v", i, d.err)
				}
				totalCompiles += d.m.Region(0).Compiles
			}
			if want := uint64(len(keys)); totalCompiles != want {
				t.Errorf("total compiles across machines: %d, want %d (duplicate stitches)",
					totalCompiles, want)
			}
			cs := c.Runtime.CacheStats()
			if cs.Stitches != uint64(len(keys)) {
				t.Errorf("cache stitches: %d, want %d", cs.Stitches, len(keys))
			}
			if rt := c.Runtime.Stats(0); rt.InstsStitched == 0 {
				t.Error("runtime stats not aggregated")
			}
		})
	}
}

type machineDriver struct {
	m   *vm.Machine
	err error
}

func (d *machineDriver) drive(rounds int, keys, xs []int64) {
	for r := 0; r < rounds; r++ {
		for _, s := range keys {
			for _, x := range xs {
				got, err := d.m.Call("scale", s, x)
				if err != nil {
					d.err = err
					return
				}
				if got != s*x {
					d.err = fmt.Errorf("scale(%d,%d) = %d, want %d", s, x, got, s*x)
					return
				}
			}
		}
	}
}

// The steady-state DYNENTER dispatch (key encode + per-machine cache hit)
// must not allocate: it runs once per region invocation, millions of times
// a second on a busy server.
func TestDynEnterZeroAlloc(t *testing.T) {
	c := compileKeyed(t, rtr.CacheOptions{})
	m := c.NewMachine(0)
	for _, s := range []int64{3, 7, 10} {
		if _, err := m.Call("scale", s, 1); err != nil {
			t.Fatal(err)
		}
	}
	keyRegs := c.Output.Regions[0].KeyRegs
	i := 0
	vals := []int64{3, 7, 10}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Regs[keyRegs[0]] = vals[i%len(vals)]
		i++
		seg, err := m.OnDynEnter(m, 0)
		if err != nil || seg == nil {
			t.Fatalf("warm dispatch missed: seg=%v err=%v", seg, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm DYNENTER dispatch allocates %.1f/op, want 0", allocs)
	}
}

// TestDynEnterZeroAllocLongKey: the longest key a region can have (three
// key variables, each a ten-byte varint) must hit without allocating too.
// The level-2 lookup converts the key bytes to a string, which stays on
// the stack only up to 32 bytes.
func TestDynEnterZeroAllocLongKey(t *testing.T) {
	const src = `
int mix(int a, int b, int c, int x) {
    int r;
    dynamicRegion key(a, b, c) () {
        r = x * a + b + c;
    }
    return r;
}`
	c, err := core.Compile(src, core.Config{Dynamic: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMachine(0)
	const min = math.MinInt64
	if _, err := m.Call("mix", min, min+1, min+2, 1); err != nil {
		t.Fatal(err)
	}
	for i, reg := range c.Output.Regions[0].KeyRegs {
		m.Regs[reg] = min + int64(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		seg, err := m.OnDynEnter(m, 0)
		if err != nil || seg == nil {
			t.Fatalf("warm dispatch missed: seg=%v err=%v", seg, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm DYNENTER dispatch with a long key allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkDynEnterWarm measures the steady-state dispatch hot path alone.
func BenchmarkDynEnterWarm(b *testing.B) {
	c, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	m := c.NewMachine(0)
	if _, err := m.Call("scale", 7, 1); err != nil {
		b.Fatal(err)
	}
	keyReg := c.Output.Regions[0].KeyRegs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Regs[keyReg] = 7
		if seg, err := m.OnDynEnter(m, 0); err != nil || seg == nil {
			b.Fatal("warm dispatch missed")
		}
	}
}

// BenchmarkParallelStitchCache drives G machines over G goroutines on a
// fixed keyed workload. Acceptance: the warm path is allocation-free (see
// BenchmarkDynEnterWarm / TestDynEnterZeroAlloc), total stitches equal the
// distinct-key count at every G (no duplicate stitches), and ns/op drops
// as G grows (throughput scaling; compare goroutines=1 vs =8).
func BenchmarkParallelStitchCache(b *testing.B) {
	keys := []int64{2, 3, 5, 7, 11, 13, 17, 19}
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			if g > runtime.GOMAXPROCS(0) {
				b.Skipf("GOMAXPROCS too small for %d goroutines", g)
			}
			c, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true})
			if err != nil {
				b.Fatal(err)
			}
			ms := make([]*machineDriver, g)
			for i := range ms {
				ms[i] = &machineDriver{m: c.NewMachine(0)}
			}
			// Warm every key once so the stitch count is fixed at
			// len(keys) regardless of b.N, and the timed section
			// measures cache behavior rather than first-touch stitching.
			for _, s := range keys {
				if _, err := ms[0].m.Call("scale", s, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/g + 1
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(d *machineDriver) {
					defer wg.Done()
					for n := 0; n < per; n++ {
						s := keys[n%len(keys)]
						if _, err := d.m.Call("scale", s, int64(n)); err != nil {
							d.err = err
							return
						}
					}
				}(ms[i])
			}
			wg.Wait()
			b.StopTimer()
			for _, d := range ms {
				if d.err != nil {
					b.Fatal(d.err)
				}
			}
			if cs := c.Runtime.CacheStats(); cs.Stitches != uint64(len(keys)) {
				b.Fatalf("stitches: %d, want %d", cs.Stitches, len(keys))
			}
		})
	}
}
