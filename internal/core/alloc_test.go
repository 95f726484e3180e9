package core_test

import (
	"testing"

	"dyncc/internal/bench"
	"dyncc/internal/core"
)

// compileAllocBudget is the allocation count of one core.Compile of the
// event dispatcher (1686 once the inline pass stopped re-running the
// run-time-constants analysis after grafting; 1845 when the compiler's
// per-value and per-block tables became slices and bitsets; 3872 with the
// map-keyed tables before that), plus 10%.
const compileAllocBudget = 1855

// TestCompileAllocBudget pins the static compiler's allocation count, so
// a pass that goes back to map-keyed per-value or per-block state shows
// up here before it shows up as GC time in the compile benchmark.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := core.Compile(bench.DispatchSource, core.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if n > compileAllocBudget {
		t.Errorf("core.Compile(event dispatcher) makes %.0f allocations, budget %d", n, compileAllocBudget)
	}
}
