package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dyncc/internal/bench"
)

// The Table 2 kernels are measured in the serve workload's traced run,
// after its windows: their modeled figures are exact and need no window,
// and their host timings swing by up to 40% between minutes on a shared
// host, more than the largest bound (25%) BENCHMARK.json can give a
// workload of their own.

const (
	// kernelWarmup uses per kernel stitch every specialization the use
	// patterns touch (bench.HostPerf's warm-up).
	kernelWarmup = 100
	// kernelProbe is how long each kernel's dispatch is timed.
	kernelProbe = 300 * time.Millisecond
	// kernelTestUses replaces kernelProbe in fixed-size (test) runs.
	kernelTestUses = 20
)

// sameKernel reports whether bench's kernel name matches the metric name
// perfbench gives it (whose first word is in the bench name).
func sameKernel(benchName, metricName string) bool {
	return strings.Contains(strings.ToLower(benchName), strings.SplitN(metricName, "_", 2)[0])
}

// kernelDispatch times each of bench.HostKernels' subjects at steady state
// and returns host ns per guest instruction for each. Every use compares
// its result with bench's gold function; a use that fails is an error
// wrapping errMismatch (or errTrap for a VM error). With o.ops set, each
// kernel runs kernelTestUses uses instead of kernelProbe.
func kernelDispatch(o *options) (map[string]float64, error) {
	out := map[string]float64{}
	ks := bench.HostKernels()
	if len(ks) != len(hostKernels) {
		return nil, fmt.Errorf("bench.HostKernels() has %d kernels; perfbench expects %v", len(ks), hostKernels)
	}
	for i, k := range ks {
		name := hostKernels[i]
		if !sameKernel(k.Name, name) {
			return nil, fmt.Errorf("bench.HostKernels()[%d] is %q; perfbench expects %s", i, k.Name, name)
		}
		m, step, err := k.Setup(bench.Config{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		m.MaxCycles = 1 << 62
		use := func(j int) error {
			err := step(j)
			if err == nil {
				return nil
			}
			// A use returns either its VM call's error ("vm: ...") or a
			// difference from the gold function.
			if strings.HasPrefix(err.Error(), "vm: ") {
				return fmt.Errorf("%w: %s use %d: %v", errTrap, name, j, err)
			}
			return fmt.Errorf("%w: %s use %d: %v", errMismatch, name, j, err)
		}
		j := 0
		for ; j < kernelWarmup; j++ {
			if err := use(j); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		insts0 := m.Insts
		start := time.Now()
		for n := 0; ; n++ {
			if err := use(j); err != nil {
				return nil, err
			}
			j++
			if o.ops > 0 && n+1 == kernelTestUses || o.ops == 0 && time.Since(start) >= kernelProbe {
				break
			}
		}
		out["vm.ns_per_guest_inst."+name] = float64(time.Since(start).Nanoseconds()) / float64(m.Insts-insts0)
	}
	return out, nil
}

// table2 runs bench.Table2, whose modeled cycle and instruction counts are
// deterministic, and reports them per row and as geometric means over the
// rows: cycles per use at steady state, set-up plus stitch cycles (the
// paper's dynamic compilation overhead) and stitched instructions. Every
// use inside bench.Table2 compares its result with a gold function.
func table2() (map[string]float64, error) {
	rows, err := bench.Table2(bench.Config{})
	if err != nil {
		return nil, fmt.Errorf("bench.Table2: %w", err)
	}
	if len(rows) != len(table2Rows) {
		return nil, fmt.Errorf("bench.Table2 has %d rows; perfbench expects %v", len(rows), table2Rows)
	}
	out := map[string]float64{}
	var cyc, overhead, insts []float64
	for i, r := range rows {
		k := table2Rows[i]
		if !sameKernel(r.Name, k) {
			return nil, fmt.Errorf("bench.Table2 row %d is %q; perfbench expects %s", i, r.Name, k)
		}
		perUse := r.DynPerUnit * r.UnitsPerUse
		out["vm.cycles_per_use."+k] = perUse
		out["vm.setup_cycles."+k] = float64(r.SetupCycles)
		out["stitcher.stitch_cycles."+k] = float64(r.StitchCycles)
		out["stitcher.insts."+k] = float64(r.StitchedInsts)
		cyc = append(cyc, perUse)
		overhead = append(overhead, float64(r.Overhead))
		insts = append(insts, float64(r.StitchedInsts))
	}
	out["vm.guest_cycles_per_use"] = geomean(cyc)
	out["stitcher.dyncompile_cycles"] = geomean(overhead)
	out["stitcher.stitched_insts"] = geomean(insts)
	return out, nil
}
