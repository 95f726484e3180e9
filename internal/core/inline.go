package core

import (
	"fmt"

	"dyncc/internal/analysis"
	"dyncc/internal/ir"
	"dyncc/internal/pipeline"
)

// passInline is the demand-driven inlining pass, registered between SSA
// construction and the optimize fixpoint group. It grafts small callees
// into callers (ir.InlineCall) when a budget-driven policy fires:
//
//   - always, when the call sits inside a dynamic region or the region's
//     set-up slice (the def chains feeding its annotated keys/constants)
//     and the callee fits the budget — so run-time-constant propagation,
//     set-up/template splitting and stitch-time folding see through the
//     call boundary (the paper's section 3.1 analysis, extended across the
//     one program boundary it could not cross);
//   - demand-driven elsewhere: only when the caller's run-time-constants
//     analysis proves at least one argument constant. Outside a region
//     that analysis degenerates to its literal special case (a
//     compile-time literal is a run-time constant without annotation,
//     analysis.go), so the test is "some argument is a literal constant".
//
// Eligibility comes from the analysis.FuncSummary table: the callee must
// fit Config.InlineBudget instructions and have no recursion, no
// address-taken locals, no dynamic region, and a reachable `ret`.
// The grafted regions are analyzed once, by split; if that analysis fails
// to converge, its error names the callees grafted into the function
// (ir.Func.Inlined).
type passInline struct {
	enabled bool
	budget  int
}

func (passInline) Name() string    { return "inline" }
func (passInline) MutatesIR() bool { return true }

// DefaultInlineBudget is the callee size cap (IR instructions, terminators
// and φs included) used when Config.InlineBudget is zero.
const DefaultInlineBudget = 32

// effectiveInlineBudget lowers the config knob: 0 selects the default,
// negative disables the pass entirely.
func effectiveInlineBudget(b int) int {
	switch {
	case b < 0:
		return -1
	case b == 0:
		return DefaultInlineBudget
	}
	return b
}

// maxInlinesPerFunc caps grafts into one caller, bounding code growth on
// deep helper chains (residual calls past the cap stay calls — a
// performance miss, never a correctness issue).
const maxInlinesPerFunc = 64

func (p passInline) Run(ctx *pipeline.Context) error {
	if !p.enabled || p.budget < 0 || ctx.Module == nil {
		return nil
	}
	// Callee summaries are computed once against the pre-pass module:
	// deterministic, and grafted bodies are re-scanned per caller below so
	// transitive helper chains still collapse.
	sums := analysis.Summaries(ctx.Module)
	n := 0
	for _, f := range ctx.Module.Funcs {
		nn, err := inlineFunc(ctx.Module, f, sums, p.budget)
		n += nn
		if err != nil {
			return err
		}
	}
	ctx.NoteChanges(n)
	return nil
}

// inlinable is the summary-level eligibility test shared by the pass and
// the autoregion candidate oracle.
func inlinable(s *analysis.FuncSummary, budget int) bool {
	return s != nil && !s.Recursive && !s.HasAddressOfLocal && !s.HasRegion &&
		s.Returns && s.Size <= budget
}

// inlineFunc drives the worklist for one caller: find the first call the
// policy accepts, graft it, rescan (grafted bodies may expose further
// calls), until a fixpoint or the growth cap. Returns grafts performed.
func inlineFunc(mod *ir.Module, f *ir.Func, sums map[string]*analysis.FuncSummary,
	budget int) (int, error) {

	n := 0
	for n < maxInlinesPerFunc {
		call := nextInlinableCall(mod, f, sums, budget)
		if call == nil {
			break
		}
		callee := mod.FuncIndex[call.Sym]
		if err := ir.InlineCall(f, call, callee); err != nil {
			return n, fmt.Errorf("inline %s into %s: %w", call.Sym, f.Name, err)
		}
		n++
	}
	return n, nil
}

// nextInlinableCall returns the first call site in block/instruction order
// whose callee is eligible and for which the placement policy fires, or
// nil.
func nextInlinableCall(mod *ir.Module, f *ir.Func,
	sums map[string]*analysis.FuncSummary, budget int) *ir.Instr {

	setup := setupSliceValues(f)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			callee := mod.FuncIndex[in.Sym]
			if callee == nil || callee == f {
				continue // builtin, unknown, or direct self-call
			}
			if !inlinable(sums[in.Sym], budget) {
				continue
			}
			if len(in.Args) != len(callee.Params) {
				continue
			}
			switch {
			case b.Region != nil:
				return in // inside a dynamic region: always
			case in.Dst != 0 && setup[in.Dst]:
				return in // feeds a region's annotated keys/consts: always
			case hasConstArg(f, in):
				return in // demand: an argument is a run-time constant
			}
		}
	}
	return nil
}

// setupSliceValues collects the values on the def chains feeding each
// region's annotated keys and constants — the region's set-up slice, the
// code whose results the set-up code reads out of registers at region
// entry. The walk stops at region-interior defs and parameters.
func setupSliceValues(f *ir.Func) map[ir.Value]bool {
	out := map[ir.Value]bool{}
	var walk func(v ir.Value, depth int)
	walk = func(v ir.Value, depth int) {
		if v == 0 || depth > 256 || out[v] {
			return
		}
		out[v] = true
		def := f.DefOf(v)
		if def == nil || (def.Blk != nil && def.Blk.Region != nil) {
			return
		}
		for _, a := range def.Args {
			walk(a, depth+1)
		}
	}
	for _, r := range f.Regions {
		for _, v := range r.Consts {
			walk(v, 0)
		}
		for _, v := range r.Keys {
			walk(v, 0)
		}
	}
	return out
}

// hasConstArg reports whether some argument of the call is a run-time
// constant at the call site. Outside dynamic regions the run-time-constant
// lattice bottoms out at its literal special case (paper section 3.1
// footnote), which is what a caller-side demand test can prove.
func hasConstArg(f *ir.Func, call *ir.Instr) bool {
	for _, a := range call.Args {
		if def := f.DefOf(a); def != nil &&
			(def.Op == ir.OpConst || def.Op == ir.OpFConst) {
			return true
		}
	}
	return false
}
