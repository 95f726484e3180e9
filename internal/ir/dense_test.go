package ir_test

import (
	"slices"
	"testing"

	"dyncc/internal/bench"
	"dyncc/internal/core"
	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/parser"
	"dyncc/internal/testgen"
	"dyncc/internal/types"
)

// denseSubject is one program of the reference-equivalence corpus.
type denseSubject struct {
	name, src string
	cfg       core.Config
}

// denseCorpus is the Table 2 sources plus testgen.Corpus(n), each with
// the configuration it is compiled under.
func denseCorpus(n int64) []denseSubject {
	dyn := core.DefaultConfig()
	auto := dyn
	auto.AutoRegion = true
	subjects := []denseSubject{
		{"calculator", bench.CalcSource, dyn},
		{"scalar", bench.ScalarSource, dyn},
		{"sparse", bench.SparseSource, dyn},
		{"dispatch", bench.DispatchSource, dyn},
		{"sorter", bench.SorterSource, dyn},
		{"cachesim", bench.CacheSimSource, dyn},
	}
	for _, p := range testgen.Corpus(n) {
		cfg := dyn
		if p.Auto {
			cfg = auto
		}
		subjects = append(subjects, denseSubject{p.Name, p.Src, cfg})
	}
	return subjects
}

func lowerSource(t testing.TB, src string) *ir.Module {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Lower(file)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestDenseMatchesReference: the dense-table Verify, live-in analysis and
// dominator tree give exactly what the map-based references give, over
// the corpus before SSA, in SSA form and after code generation, and
// Verify reports the same error for the same mutation of valid IR.
func TestDenseMatchesReference(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 20
	}
	mutations := 0
	for _, s := range denseCorpus(n) {
		mod := lowerSource(t, s.src)
		for _, f := range mod.Funcs {
			checkDense(t, s.name+" pre-SSA", f)
		}
		for _, f := range mod.Funcs {
			ir.BuildSSA(f)
			checkDense(t, s.name+" SSA", f)
			mutations += checkMutations(t, s.name+" SSA", f, mod)
		}
		c, err := core.Compile(s.src, s.cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, f := range c.Module.Funcs {
			checkDense(t, s.name+" compiled", f)
			mutations += checkMutations(t, s.name+" compiled", f, c.Module)
		}
	}
	f := threeWayMerge()
	checkDense(t, "three-way merge pre-SSA", f)
	ir.BuildSSA(f)
	checkDense(t, "three-way merge SSA", f)
	mutations += checkMutations(t, "three-way merge SSA", f, &ir.Module{Funcs: []*ir.Func{f}})
	if mutations == 0 {
		t.Error("no mutation was applied")
	}
}

// threeWayMerge builds a merge whose dominance-frontier walks meet below
// its immediate dominator, which the generated corpus does not produce:
//
//	b0 -> b1, b4; b1 -> b2, b3; b2, b3, b4 -> b5 (x defined in b2, b3, b4)
//
// The walks from b2 and b3 both reach b1, whose frontier must list b5
// once.
func threeWayMerge() *ir.Func {
	f := ir.NewFunc("merge3", types.FuncType(types.IntType, []*types.Type{types.IntType}))
	p := f.NewValue("p", types.IntType)
	f.Params = append(f.Params, p)
	x := f.NewValue("x", types.IntType)
	var bs [6]*ir.Block
	for i := range bs {
		bs[i] = f.NewBlock()
	}
	br := func(from, a, b int) {
		bs[from].Append(&ir.Instr{Op: ir.OpBr, Args: []ir.Value{p}, Targets: []*ir.Block{bs[a], bs[b]}})
	}
	def := func(in, c int) {
		bs[in].Append(&ir.Instr{Op: ir.OpConst, Const: int64(c), Dst: x, Typ: types.IntType})
		bs[in].Append(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{bs[5]}})
	}
	br(0, 1, 4)
	br(1, 2, 3)
	def(2, 1)
	def(3, 2)
	def(4, 3)
	bs[5].Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{x}})
	f.ComputePreds()
	return f
}

// checkDense compares Verify, the live-in sets and the dominator tree of f
// with the references.
func checkDense(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	if got, want := errString(ir.Verify(f)), errString(refVerify(f)); got != want {
		t.Errorf("%s %s: Verify = %q, reference %q", name, f.Name, got, want)
	}
	live := ir.ComputeLiveness(f, nil)
	refIn := refBlockLiveIn(f)
	for _, b := range f.Blocks {
		if got, want := members(live.In(b)), sortedKeys(refIn[b]); !slices.Equal(got, want) {
			t.Errorf("%s %s b%d: live-in %v, reference %v", name, f.Name, b.ID, got, want)
		}
	}
	dt, ref := ir.BuildDomTree(f), refBuildDomTree(f)
	inFunc := make([]bool, f.NumBlockIDs())
	for _, b := range f.Blocks {
		inFunc[b.ID] = true
		if dt.Idom[b.ID] != ref.Idom[b] {
			t.Errorf("%s %s b%d: idom %v, reference %v", name, f.Name, b.ID, dt.Idom[b.ID], ref.Idom[b])
		}
		if !slices.Equal(dt.Children[b.ID], ref.Children[b]) {
			t.Errorf("%s %s b%d: children differ from the reference", name, f.Name, b.ID)
		}
		if !slices.Equal(dt.Frontier[b.ID], ref.Frontier[b]) {
			t.Errorf("%s %s b%d: frontier differs from the reference", name, f.Name, b.ID)
		}
	}
	for id, in := range inFunc {
		if !in && (dt.Idom[id] != nil || len(dt.Children[id]) > 0 || len(dt.Frontier[id]) > 0) {
			t.Errorf("%s %s: removed block id %d has dominator entries", name, f.Name, id)
		}
	}
}

// checkMutations breaks f in each of several ways, requires Verify and the
// reference to report the same error, and restores f. It returns how
// many mutations applied.
func checkMutations(t *testing.T, name string, f *ir.Func, mod *ir.Module) int {
	t.Helper()
	applied := 0
	check := func(what string) {
		t.Helper()
		applied++
		got, want := ir.Verify(f), refVerify(f)
		if got == nil || errString(got) != errString(want) {
			t.Errorf("%s %s, %s: Verify = %v, reference %v", name, f.Name, what, got, want)
		}
	}
	// A value defined twice (SSA only).
	var defs []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				defs = append(defs, in)
			}
		}
	}
	if f.SSA && len(defs) >= 2 {
		last := defs[len(defs)-1]
		saved := last.Dst
		last.Dst = defs[(len(defs)-1)/2].Dst
		check("redefined value")
		last.Dst = saved
	}
	// A branch to a block that was created and then removed, and to
	// another function's block with an ID that is valid here.
	removed := f.NewBlock()
	f.Blocks = f.Blocks[:len(f.Blocks)-1]
	var foreign *ir.Block
	for _, g := range mod.Funcs {
		if g != f && len(g.Blocks) > 0 && g.Blocks[0].ID < f.NumBlockIDs() {
			foreign = g.Blocks[0]
		}
	}
	for _, b := range f.Blocks {
		term := b.Term()
		if term == nil || len(term.Targets) == 0 {
			continue
		}
		saved := term.Targets[0]
		term.Targets[0] = removed
		check("branch to removed block")
		if foreign != nil {
			term.Targets[0] = foreign
			check("branch to another function's block")
		}
		term.Targets[0] = saved
		break
	}
	// A stale predecessor on the last block with predecessors.
	for i := len(f.Blocks) - 1; i >= 0; i-- {
		b := f.Blocks[i]
		if len(b.Preds) == 0 {
			continue
		}
		b.Preds = append(b.Preds, removed)
		check("stale predecessor")
		b.Preds = b.Preds[:len(b.Preds)-1]
		break
	}
	// A φ with one argument fewer than its block has predecessors.
found:
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && len(in.Args) > 0 {
				saved := in.Args
				in.Args = in.Args[:len(in.Args)-1]
				check("phi/predecessor count mismatch")
				in.Args = saved
				break found
			}
		}
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("%s %s: not restored: %v", name, f.Name, err)
	}
	return applied
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func members(s ir.ValueSet) []ir.Value {
	var vs []ir.Value
	s.ForEach(func(v ir.Value) { vs = append(vs, v) })
	return vs
}

func sortedKeys(m map[ir.Value]bool) []ir.Value {
	var vs []ir.Value
	for v, ok := range m {
		if ok {
			vs = append(vs, v)
		}
	}
	slices.Sort(vs)
	return vs
}

// BenchmarkVerify verifies every function of the event dispatcher after
// code generation.
func BenchmarkVerify(b *testing.B) {
	c, err := core.Compile(bench.DispatchSource, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range c.Module.Funcs {
			if err := ir.Verify(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildSSA converts the lowered event dispatcher to SSA form;
// lowering a fresh module each iteration is excluded from the timing.
func BenchmarkBuildSSA(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mod := lowerSource(b, bench.DispatchSource)
		b.StartTimer()
		for _, f := range mod.Funcs {
			ir.BuildSSA(f)
		}
	}
}
