package bench

import (
	"fmt"
	"strings"

	"dyncc/internal/vm"
)

// Host kernels: the subjects perfbench and BenchmarkHostPerf time for
// host ns per guest instruction, the quantity the interpreter-loop work
// (closure-free dispatch, precomputed attribution plans, superinstruction
// fusion) optimizes. The guest cycle model is untouched by those changes
// (Table 2 is byte-identical either way); these measure the other axis.

// warmDispatchSource isolates the warm-dispatch path: a keyed region with a
// tiny body, always invoked with the same key, so nearly every guest
// instruction is DYNENTER bookkeeping plus the cached-segment transfer.
const warmDispatchSource = `
int warm(int x, int e) {
    int r;
    r = 0;
    dynamicRegion key(e) () {
        r = x * e + x;
    }
    return r;
}`

// HostKernel is one host-perf subject: a compiled program plus a step
// function that advances the workload by one use.
type HostKernel struct {
	Name  string
	Setup func(cfg Config) (*vm.Machine, func(i int) error, error)
}

// kernelFromBenchmark adapts a Table 2 benchmark to the host harness.
func kernelFromBenchmark(b *benchmark) HostKernel {
	return HostKernel{
		Name: b.name + hostSuffix(b),
		Setup: func(cfg Config) (*vm.Machine, func(i int) error, error) {
			_, dyn, err := compileBoth(b.source, cfg)
			if err != nil {
				return nil, nil, err
			}
			m := dyn.NewMachine(0)
			state, err := b.build(m)
			if err != nil {
				return nil, nil, err
			}
			return m, func(i int) error { return b.use(m, state, i) }, nil
		},
	}
}

func hostSuffix(b *benchmark) string {
	if strings.Contains(b.config, "96x96") {
		return " (small)"
	}
	if strings.Contains(b.config, "4 keys") {
		return " (4 keys)"
	}
	return ""
}

// HostKernels returns the five Table 2 kernels plus the warm-dispatch path.
func HostKernels() []HostKernel {
	ks := []HostKernel{
		kernelFromBenchmark(calcBenchmark()),
		kernelFromBenchmark(scalarBenchmark()),
		kernelFromBenchmark(sparseBenchmark(96, 5, 20, "96x96, 5/row, 5% density")),
		kernelFromBenchmark(dispatchBenchmark()),
		kernelFromBenchmark(sorterBenchmark(4, 3, "4 keys, each of a different type")),
	}
	ks = append(ks, HostKernel{
		Name: "warm dispatch",
		Setup: func(cfg Config) (*vm.Machine, func(i int) error, error) {
			_, dyn, err := compileBoth(warmDispatchSource, cfg)
			if err != nil {
				return nil, nil, err
			}
			m := dyn.NewMachine(1 << 16)
			return m, func(i int) error {
				v, err := m.Call("warm", int64(i), 7)
				if err != nil {
					return err
				}
				if want := int64(i)*7 + int64(i); v != want {
					return fmt.Errorf("warm(%d) = %d, want %d", i, v, want)
				}
				return nil
			}, nil
		},
	})
	return ks
}
