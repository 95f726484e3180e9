package regalloc_test

import (
	"testing"

	"dyncc/internal/bench"
	"dyncc/internal/core"
	"dyncc/internal/ir"
	"dyncc/internal/regalloc"
	"dyncc/internal/testgen"
)

// compiledCorpus compiles the Table 2 sources and testgen.Corpus(n) and
// returns every function after code generation (φs destroyed, templates
// and set-up code in place: the IR the allocator sees).
func compiledCorpus(t testing.TB, n int64) []*ir.Func {
	dyn := core.DefaultConfig()
	auto := dyn
	auto.AutoRegion = true
	type subject struct {
		src string
		cfg core.Config
	}
	subjects := []subject{
		{bench.CalcSource, dyn}, {bench.ScalarSource, dyn}, {bench.SparseSource, dyn},
		{bench.DispatchSource, dyn}, {bench.SorterSource, dyn}, {bench.CacheSimSource, dyn},
	}
	for _, p := range testgen.Corpus(n) {
		cfg := dyn
		if p.Auto {
			cfg = auto
		}
		subjects = append(subjects, subject{p.Src, cfg})
	}
	var fs []*ir.Func
	for _, s := range subjects {
		c, err := core.Compile(s.src, s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, c.Module.Funcs...)
	}
	return fs
}

// templateHoles marks the values defined in template blocks, the rule
// codegen applies to a region's holes.
func templateHoles(f *ir.Func) (ir.ValueSet, map[ir.Value]bool) {
	set, m := ir.NewValueSet(f.NumValues()), map[ir.Value]bool{}
	for _, b := range f.Blocks {
		if !b.Template {
			continue
		}
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				set.Add(in.Dst)
				m[in.Dst] = true
			}
		}
	}
	return set, m
}

// TestAllocateMatchesReference: over the compiled corpus, the dense
// allocator's live sets, every location and the frame size equal the
// map-based reference's, with and without template holes.
func TestAllocateMatchesReference(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 20
	}
	withHoles := 0
	for _, f := range compiledCorpus(t, n) {
		set, m := templateHoles(f)
		if len(m) > 0 {
			withHoles++
		}
		for _, h := range []struct {
			set ir.ValueSet
			m   map[ir.Value]bool
		}{{nil, nil}, {set, m}} {
			live := ir.ComputeLiveness(f, h.set)
			refIn, refOut := refLiveness(f, f.Blocks, h.m)
			for _, b := range f.Blocks {
				if !sameSet(live.In(b), refIn[b]) || !sameSet(live.Out(b), refOut[b]) {
					t.Fatalf("%s b%d: live sets differ from the reference", f.Name, b.ID)
				}
			}
			got, want := regalloc.Allocate(f, h.set), refAllocate(f, h.m)
			if got.FrameSize != want.FrameSize {
				t.Errorf("%s: frame size %d, reference %d", f.Name, got.FrameSize, want.FrameSize)
			}
			if len(got.Loc) != f.NumValues() {
				t.Errorf("%s: %d locations for %d values", f.Name, len(got.Loc), f.NumValues())
			}
			for v := ir.Value(0); int(v) < f.NumValues(); v++ {
				if got.Loc[v] != want.Loc[v] {
					t.Errorf("%s v%d: %+v, reference %+v", f.Name, v, got.Loc[v], want.Loc[v])
				}
			}
		}
	}
	if withHoles == 0 {
		t.Error("no function had template holes")
	}
}

func sameSet(s ir.ValueSet, m map[ir.Value]bool) bool {
	n := 0
	ok := true
	s.ForEach(func(v ir.Value) {
		n++
		ok = ok && m[v]
	})
	return ok && n == len(m)
}

// BenchmarkAllocate allocates registers for every function of the event
// dispatcher after code generation.
func BenchmarkAllocate(b *testing.B) {
	c, err := core.Compile(bench.DispatchSource, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	holes := make([]ir.ValueSet, len(c.Module.Funcs))
	for i, f := range c.Module.Funcs {
		holes[i], _ = templateHoles(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, f := range c.Module.Funcs {
			regalloc.Allocate(f, holes[j])
		}
	}
}
