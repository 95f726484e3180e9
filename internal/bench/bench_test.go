package bench

import (
	"fmt"
	"sync"
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
)

// Each Table 2 benchmark must run correctly (every use is verified against
// a host-side gold) and show a dynamic-compilation speedup.
func checkRow(t *testing.T, m *Measurement, err error, minSpeedup float64) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", m)
	if m.Speedup < minSpeedup {
		t.Errorf("%s: speedup %.2f < %.2f", m.Name, m.Speedup, minSpeedup)
	}
	if m.Breakeven <= 0 {
		t.Errorf("%s: breakeven %d (never profitable?)", m.Name, m.Breakeven)
	}
	if m.StitchedInsts == 0 {
		t.Errorf("%s: nothing stitched", m.Name)
	}
	if m.Overhead == 0 {
		t.Errorf("%s: no overhead recorded", m.Name)
	}
}

func TestCalculatorRow(t *testing.T) {
	m, err := Calculator(Config{Uses: 300})
	checkRow(t, m, err, 1.5)
	if m.Stitch.BranchesResolved == 0 || m.Stitch.LoopIterations == 0 {
		t.Error("calculator should resolve the opcode switch and unroll")
	}
}

func TestScalarMatrixRow(t *testing.T) {
	m, err := ScalarMatrix(Config{Uses: 12})
	checkRow(t, m, err, 1.2)
	if m.Compiles != 12 {
		t.Errorf("keyed region: %d compiles for 12 scalars", m.Compiles)
	}
	if m.Stitch.StrengthReductions == 0 {
		t.Error("scalar multiply should strength-reduce")
	}
}

func TestSparseRows(t *testing.T) {
	m, err := measure(sparseBenchmark(40, 4, 6, "40x40 test"), Config{})
	checkRow(t, m, err, 1.2)
	if m.Stitch.LoopIterations == 0 {
		t.Error("sparse should unroll nested loops")
	}
	if m.Stitch.LargeConsts == 0 {
		t.Error("float matrix values should go to the large-constant table")
	}
}

func TestDispatcherRow(t *testing.T) {
	m, err := Dispatcher(Config{Uses: 400})
	checkRow(t, m, err, 1.3)
}

func TestSorterRows(t *testing.T) {
	m, err := Sorter4(Config{Uses: 2})
	checkRow(t, m, err, 1.05)
	m32, err := Sorter32(Config{Uses: 2})
	checkRow(t, m32, err, 1.05)
}

// Table 3's optimization pattern must match the paper's: every benchmark
// uses several dynamic optimizations; the calculator uses all six.
func TestTable3Matrix(t *testing.T) {
	rows := []*Measurement{}
	for _, f := range []func(Config) (*Measurement, error){Calculator, Dispatcher} {
		m, err := f(Config{Uses: 60})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, m)
	}
	t3 := Table3(rows)
	calc := t3[0]
	if !(calc.ConstantFolding && calc.StaticBranchElimination && calc.LoadElimination &&
		calc.DeadCodeElimination && calc.CompleteLoopUnrolling && calc.StrengthReduction) {
		t.Errorf("calculator should apply all six optimizations: %+v", calc)
	}
	disp := t3[1]
	if !(disp.StaticBranchElimination && disp.LoadElimination && disp.CompleteLoopUnrolling) {
		t.Errorf("dispatcher pattern wrong: %+v", disp)
	}
}

// Register actions (section 5) must beat plain stitching on the calculator.
func TestRegisterActionsBeatPlainStitching(t *testing.T) {
	base, err := Calculator(Config{Uses: 200})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Calculator(Config{Uses: 200, RegisterActions: true})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stitch.LoadsPromoted == 0 || ra.Stitch.StoresPromoted == 0 {
		t.Fatalf("no promotions: %+v", ra.Stitch)
	}
	if ra.Speedup <= base.Speedup {
		t.Errorf("register actions %.2f should beat plain %.2f", ra.Speedup, base.Speedup)
	}
	t.Logf("plain %.2f, register actions %.2f (paper: 1.7 -> 4.1)", base.Speedup, ra.Speedup)
}

// The strength-reduction ablation must cost cycles on the scalar benchmark.
func TestStrengthReductionAblation(t *testing.T) {
	on, err := ScalarMatrix(Config{Uses: 8})
	if err != nil {
		t.Fatal(err)
	}
	off, err := ScalarMatrix(Config{Uses: 8, NoStrengthReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.DynPerUnit <= on.DynPerUnit {
		t.Errorf("ablated %.2f should be slower than %.2f cycles/unit",
			off.DynPerUnit, on.DynPerUnit)
	}
}

// The paper's headline: speedups over the suite range roughly 1.2-1.8 (ours
// run 1.1-6.5 depending on how lean the baseline interpreter is; every
// benchmark must be >= 1.1 and the suite must span a meaningful range).
func TestHeadlineSpeedupRange(t *testing.T) {
	rows := []*Measurement{}
	for _, f := range []func(Config) (*Measurement, error){
		Calculator, Dispatcher, Sorter4,
	} {
		m, err := f(Config{Uses: 100})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, m)
	}
	min, max := rows[0].Speedup, rows[0].Speedup
	for _, m := range rows {
		if m.Speedup < min {
			min = m.Speedup
		}
		if m.Speedup > max {
			max = m.Speedup
		}
	}
	if min < 1.1 {
		t.Errorf("minimum speedup %.2f < 1.1", min)
	}
	if max < 1.5 {
		t.Errorf("maximum speedup %.2f < 1.5", max)
	}
}

func TestCacheSimRow(t *testing.T) {
	m, err := CacheSim(Config{Uses: 500})
	checkRow(t, m, err, 2.0)
	if m.Stitch.StrengthReductions < 3 {
		t.Errorf("cache lookup should reduce both divides and the modulus: %d",
			m.Stitch.StrengthReductions)
	}
}

// The merged one-pass mode (paper section 7) must cut set-up overhead on
// the set-up-heavy sparse benchmark while computing the same results.
func TestMergedStitchCutsOverhead(t *testing.T) {
	two, err := measure(sparseBenchmark(60, 5, 4, "60x60 test"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := measure(sparseBenchmark(60, 5, 4, "60x60 test"), Config{MergedStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if one.SetupCycles >= two.SetupCycles {
		t.Errorf("merged set-up %d should beat two-pass %d", one.SetupCycles, two.SetupCycles)
	}
	if one.DynPerUnit != two.DynPerUnit {
		t.Errorf("steady-state cycles must be identical: %.1f vs %.1f",
			one.DynPerUnit, two.DynPerUnit)
	}
	t.Logf("sparse set-up: two-pass %d cycles, merged %d cycles", two.SetupCycles, one.SetupCycles)
}

// parallelSrc unrolls completely, keyed by the exponent, so each distinct
// key costs a real stitch worth sharing across machines.
const parallelSrc = `
int power(int n, int x) {
    int r = 1;
    dynamicRegion key(n) () {
        int i;
        unrolled for (i = 0; i < n; i++) {
            r = r * x;
        }
    }
    return r;
}`

// parallelKeys are the distinct specializations parallelRun exercises.
var parallelKeys = []int64{2, 3, 5, 8, 13, 21, 24, 30}

// parallelRun calls power from `machines` machines on one runtime, one
// goroutine each, 64 calls per machine cycling through parallelKeys, and
// returns the runtime's cache statistics.
func parallelRun(t *testing.T, machines int, noShare bool) rtr.CacheStats {
	t.Helper()
	c, err := core.Compile(parallelSrc, core.Config{
		Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{NoShare: noShare},
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := c.NewMachines(machines)
	errs := make([]error, machines)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 64; n++ {
				k := parallelKeys[(n+i)%len(parallelKeys)]
				got, err := ms[i].Call("power", k, 2)
				if err == nil && got != 1<<k {
					err = fmt.Errorf("power(%d,2) = %d, want %d", k, got, int64(1)<<k)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return c.Runtime.CacheStats()
}

// Machines running concurrently on one runtime must pay for exactly one
// stitch per distinct key when sharing is on, and machines x keys when it
// is off.
func TestParallelMachinesStitchCounts(t *testing.T) {
	shared := parallelRun(t, 4, false)
	if shared.Stitches != uint64(len(parallelKeys)) {
		t.Errorf("shared: %d stitches for %d keys", shared.Stitches, len(parallelKeys))
	}
	if shared.SharedHits == 0 {
		t.Error("shared: no machine adopted a cached segment")
	}
	if private := parallelRun(t, 4, true); private.Stitches != uint64(4*len(parallelKeys)) {
		t.Errorf("noShare: %d stitches, want %d", private.Stitches, 4*len(parallelKeys))
	}
}
