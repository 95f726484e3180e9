package bench

import (
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/testgen"
)

// TestRegionsTakeStencilPath: every program of the corpus compiles, and
// every compiled region with template blocks carries the precompiled
// stencil its stitches run on. A region the stencil builder rejects is a
// compile error, so a builder regression shows here as a failed compile.
// The corpus is the Table 2 sources plus, per seed, a generated program, a
// call-bearing one, a serving tenant and an annotation-stripped one
// compiled with automatic region promotion.
func TestRegionsTakeStencilPath(t *testing.T) {
	dyn := core.Config{Dynamic: true, Optimize: true}
	auto := dyn
	auto.AutoRegion = true
	type subject struct {
		name, src string
		cfg       core.Config
	}
	subjects := []subject{
		{"interpreter (cachesim)", CacheSimSource, dyn},
		{"calculator", CalcSource, dyn},
		{"event dispatcher", DispatchSource, dyn},
		{"record sorter", SorterSource, dyn},
		{"matrix scalar multiply", ScalarSource, dyn},
		{"sparse vector product", SparseSource, dyn},
	}
	n := int64(150)
	if testing.Short() {
		n = 30
	}
	for _, p := range testgen.Corpus(n) {
		cfg := dyn
		if p.Auto {
			cfg = auto
		}
		subjects = append(subjects, subject{p.Name, p.Src, cfg})
	}
	regions, autos := 0, 0
	for _, s := range subjects {
		c, err := core.Compile(s.src, s.cfg)
		if err != nil {
			t.Fatalf("%s: %v\n%s", s.name, err, s.src)
		}
		for _, r := range c.Output.Regions {
			if len(r.Blocks) == 0 {
				continue
			}
			regions++
			if r.Auto {
				autos++
			}
			if r.Stencil == nil {
				t.Errorf("%s: region %s has templates but no stencil", s.name, r.Name)
			}
		}
	}
	if autos == 0 {
		t.Error("no annotation-stripped program promoted a region")
	}
	t.Logf("%d subjects, %d regions with templates (%d auto)", len(subjects), regions, autos)
}
