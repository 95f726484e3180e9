// Package bench implements the paper's experimental assessment (section 5):
// the five benchmark kernels of Table 2, workload generators, and the
// measurement harness that regenerates Table 2 (asymptotic speedup,
// breakeven point, dynamic compilation overhead, cycles per stitched
// instruction) and Table 3 (optimizations applied dynamically).
package bench

import (
	"fmt"
	"math"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/stitcher"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// Config selects harness options.
type Config struct {
	RegisterActions     bool
	NoStrengthReduction bool
	NoFuse              bool // disable superinstruction fusion (ablation)
	MergedStitch        bool // paper section 7: one-pass set-up + stitch
	// Uses overrides the default workload size (0 keeps the default).
	Uses int
	// Cache configures the dynamic runtime's stitch cache — notably
	// AsyncStitch, which moves stitching to background workers while
	// callers run the generic fallback tier.
	Cache rtr.CacheOptions
}

// Measurement is one row of Table 2.
type Measurement struct {
	Name   string
	Config string
	Unit   string // what a "use" is (interpretation, multiplication, ...)

	Uses          int     // uses measured
	UnitsPerUse   float64 // e.g. matrix elements per invocation
	StaticPerUnit float64 // cycles per unit, statically compiled
	DynPerUnit    float64 // cycles per unit, dynamically compiled (steady state)
	Speedup       float64 // StaticPerUnit / DynPerUnit

	SetupCycles   uint64
	StitchCycles  uint64
	Overhead      uint64 // SetupCycles + StitchCycles
	StitchedInsts uint64
	Compiles      uint64

	Breakeven         int     // units at which the dynamic version wins
	CyclesPerStitched float64 // Overhead / StitchedInsts (paper's last column)

	Plan   tmpl.Stats     // splitter plan (Table 3 static columns)
	Stitch stitcher.Stats // runtime stitcher statistics
}

// String renders the measurement as one table row.
func (m *Measurement) String() string {
	return fmt.Sprintf("%-28s %-24s speedup %.2f (%.1f/%.1f cyc)  breakeven %d %s  overhead %d+%d cyc  %0.f cyc/inst (%d stitched)",
		m.Name, m.Config, m.Speedup, m.StaticPerUnit, m.DynPerUnit,
		m.Breakeven, m.Unit, m.SetupCycles, m.StitchCycles,
		m.CyclesPerStitched, m.StitchedInsts)
}

// benchmark describes one kernel + workload.
type benchmark struct {
	name, config, unit string
	source             string
	uses               int
	unitsPerUse        float64
	// build allocates the workload in machine memory and returns a state
	// that use() consumes.
	build func(m *vm.Machine) (any, error)
	use   func(m *vm.Machine, state any, i int) error
}

// compileBoth compiles the benchmark statically and dynamically. Both
// subjects pin InlineBudget to -1: Table 2/3 reproduce the paper's
// configuration, which predates the demand-driven inlining extension (the
// dispatcher row's handler call must stay a call, as in the paper), and
// the inlining win is checked separately by TestInlineSmall.
func compileBoth(src string, cfg Config) (stat, dyn *core.Compiled, err error) {
	stat, err = core.Compile(src, core.Config{Dynamic: false, Optimize: true,
		InlineBudget: -1,
		Stitcher:     stitcher.Options{NoFuse: cfg.NoFuse}})
	if err != nil {
		return nil, nil, fmt.Errorf("static: %w", err)
	}
	dyn, err = core.Compile(src, core.Config{Dynamic: true, Optimize: true,
		InlineBudget: -1,
		MergedStitch: cfg.MergedStitch,
		Cache:        cfg.Cache,
		Stitcher: stitcher.Options{
			RegisterActions:     cfg.RegisterActions,
			NoStrengthReduction: cfg.NoStrengthReduction,
			NoFuse:              cfg.NoFuse,
		}})
	if err != nil {
		return nil, nil, fmt.Errorf("dynamic: %w", err)
	}
	return stat, dyn, nil
}

// run executes the benchmark on one compiled program and returns the
// machine for counter inspection.
func run(c *core.Compiled, b *benchmark) (*vm.Machine, error) {
	m := c.NewMachine(0)
	state, err := b.build(m)
	if err != nil {
		return nil, err
	}
	for i := 0; i < b.uses; i++ {
		if err := b.use(m, state, i); err != nil {
			return nil, fmt.Errorf("use %d: %v", i, err)
		}
	}
	return m, nil
}

// measure produces one Table 2 row for benchmark b.
func measure(b *benchmark, cfg Config) (*Measurement, error) {
	if cfg.Uses > 0 {
		b.uses = cfg.Uses
	}
	stat, dyn, err := compileBoth(b.source, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	sm, err := run(stat, b)
	if err != nil {
		return nil, fmt.Errorf("%s static: %w", b.name, err)
	}
	dm, err := run(dyn, b)
	if err != nil {
		return nil, fmt.Errorf("%s dynamic: %w", b.name, err)
	}
	// Quiesce background stitching (no-op without AsyncStitch) so the
	// folded stitcher statistics are complete before they are read: after
	// the pool drains, every distinct key has been stitched exactly once,
	// so Table 3's optimization matrix is mode-invariant.
	dyn.Runtime.WaitIdle()
	defer dyn.Runtime.Close()
	src := sm.Region(0)
	drc := dm.Region(0)
	units := float64(b.uses) * b.unitsPerUse

	mes := &Measurement{
		Name: b.name, Config: b.config, Unit: b.unit,
		Uses: b.uses, UnitsPerUse: b.unitsPerUse,
		StaticPerUnit: float64(src.ExecCycles) / units,
		DynPerUnit:    float64(drc.ExecCycles) / units,
		SetupCycles:   drc.SetupCycles,
		StitchCycles:  drc.StitchCycles,
		Overhead:      drc.Overhead(),
		StitchedInsts: drc.StitchedInsts,
		Compiles:      drc.Compiles,
		Stitch:        dyn.Runtime.Stats(0),
	}
	if len(dyn.Output.Regions) > 0 {
		mes.Plan = dyn.Output.Regions[0].Stats
	}
	if mes.DynPerUnit > 0 {
		mes.Speedup = mes.StaticPerUnit / mes.DynPerUnit
	}
	if mes.StitchedInsts > 0 {
		mes.CyclesPerStitched = float64(mes.Overhead) / float64(mes.StitchedInsts)
	}
	if mes.StaticPerUnit > mes.DynPerUnit {
		mes.Breakeven = int(math.Ceil(float64(mes.Overhead) /
			(mes.StaticPerUnit - mes.DynPerUnit)))
	} else {
		mes.Breakeven = -1 // never profitable
	}
	return mes, nil
}
