package analysis_test

import (
	"testing"

	"dyncc/internal/analysis"
	"dyncc/internal/bench"
	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/opt"
	"dyncc/internal/parser"
)

// BenchmarkAnalyze times the interleaved run-time-constants and
// reachability fixpoint over the optimized event dispatcher's region: the
// IR the splitter analyzes, built as the compile pipeline builds it (SSA,
// the handler call inlined, the optimizer fixpoint) and left unsplit.
func BenchmarkAnalyze(b *testing.B) {
	file, err := parser.Parse(bench.DispatchSource)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := lower.Lower(file)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range mod.Funcs {
		ir.BuildSSA(f)
	}
	f := mod.FuncIndex["dispatch"]
	var calls []*ir.Instr
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpCall && mod.FuncIndex[in.Sym] != nil {
				calls = append(calls, in)
			}
		}
	}
	for _, call := range calls {
		if err := ir.InlineCall(f, call, mod.FuncIndex[call.Sym]); err != nil {
			b.Fatal(err)
		}
	}
	opt.Optimize(f)
	r := f.Regions[0]
	if _, err := analysis.Analyze(f, r, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(f, r, nil); err != nil {
			b.Fatal(err)
		}
	}
}
