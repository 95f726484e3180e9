package core

import (
	"dyncc/internal/analysis"
	"dyncc/internal/ast"
	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/pipeline"
	"dyncc/internal/token"
)

// passAutoRegion is the speculative-promotion front end: it rewrites
// candidate *unannotated* functions so their whole body becomes a keyed
// dynamic region marked Auto, with the function's stable-looking scalar
// int parameters as keys. The runtime then profiles each Auto region and
// only starts stitching once the observed key tuple is hot and stable;
// stitched code is wrapped in GUARD instructions that deoptimize back to
// the generic tier when a speculated key changes. The rewrite itself is
// therefore behavior-neutral by construction — it only opens the door for
// the runtime to speculate.
//
// Calls no longer disqualify a candidate wholesale: only *residual* calls
// do — calls the demand-driven inline pass will not fold away. Since this
// pass runs on the AST (before lowering) and the inline pass on SSA IR
// (after), the prediction comes from an oracle that lowers a scratch copy
// of the file and summarizes it (inlineableCallees); every body call of an
// accepted candidate lands inside the synthesized region, where the inline
// policy is "always", so callee eligibility alone decides. A helper that a
// candidate calls is itself left unpromoted — its body is about to be
// grafted into its callers' regions, where specialization happens.
//
// The pass is optional (`-disable-pass autoregion`) and inert unless
// Config.AutoRegion is set.
type passAutoRegion struct {
	enabled bool
	// inlineBudget is the effective budget of the inline pass for this
	// build; negative means inlining is off (then any call disqualifies,
	// the pre-inlining behaviour).
	inlineBudget int
}

func (passAutoRegion) Name() string { return "autoregion" }

func (p passAutoRegion) Run(ctx *pipeline.Context) error {
	if !p.enabled || !ctx.Dynamic || ctx.File == nil {
		return nil
	}
	eligible := p.inlineableCallees(ctx.File)
	type cand struct {
		fd   *ast.FuncDecl
		keys []string
	}
	var cands []cand
	called := map[string]bool{}
	for _, fd := range ctx.File.Funcs {
		keys, calls := autoRegionKeys(fd, eligible)
		if keys == nil {
			continue
		}
		cands = append(cands, cand{fd, keys})
		for _, c := range calls {
			called[c] = true
		}
	}
	n := 0
	for _, c := range cands {
		// A candidate that another candidate calls is a helper destined to
		// be inlined into its callers' regions; promoting it too would give
		// it a region of its own and block that graft (no nesting).
		if called[c.fd.Name] {
			continue
		}
		c.fd.Body = &ast.Block{P: c.fd.Body.P, Stmts: []ast.Stmt{
			&ast.DynamicRegion{P: c.fd.Body.P, Keys: c.keys, Body: c.fd.Body, Auto: true},
		}}
		n++
	}
	ctx.NoteChanges(n)
	return nil
}

// inlineableCallees predicts which functions the inline pass will be able
// to graft, before lowering has run: lower a scratch module from the same
// AST, build SSA, summarize. Returns nil (nothing eligible) when inlining
// is off for this build or the file doesn't lower — the pass then falls
// back to the conservative any-call-disqualifies rule, and the real
// lowering reports the error with full context.
func (p passAutoRegion) inlineableCallees(file *ast.File) map[string]bool {
	if p.inlineBudget < 0 {
		return nil
	}
	mod, err := lower.Lower(file)
	if err != nil {
		return nil
	}
	for _, f := range mod.Funcs {
		ir.BuildSSA(f)
	}
	el := map[string]bool{}
	for name, s := range analysis.Summaries(mod) {
		if inlinable(s, p.inlineBudget) {
			el[name] = true
		}
	}
	return el
}

// maxAutoKeys caps the speculated key tuple; DYNENTER stages keys through
// at most three shuttle registers (codegen/emit.go).
const maxAutoKeys = 3

// autoRegionKeys decides whether fd is a promotion candidate and, if so,
// returns the parameter names to speculate on plus the callee names its
// body mentions (nil keys otherwise). The filter is deliberately
// conservative — rejecting a function only costs a missed speculation,
// while accepting a bad one costs correctness:
//
//   - the body must not already contain a dynamicRegion (no nesting), any
//     goto or label (region edge checks), any address-of (an address-taken
//     parameter lives on the stack, where region key resolution cannot see
//     it), or any *residual* call — a call the inline pass will not fold
//     (callee not in eligible: a builtin, too big, recursive, or itself
//     region-bearing). Eligible calls are fine: they are grafted before
//     the splitter ever sees the region, and even a mispredicted residual
//     call still executes correctly inside a region (frames record their
//     segment), it just blocks specialization of its result;
//   - keys are scalar `int` parameters that the body reads but never
//     writes and never shadows. Pointer and array parameters are never
//     keys or constants: automatic promotion must not assume memory
//     contents are stable — only the programmer's annotation may claim
//     that — so loads through them stay non-constant, which is safe.
func autoRegionKeys(fd *ast.FuncDecl, eligible map[string]bool) (keys, calls []string) {
	if fd.Body == nil || len(fd.Params) == 0 {
		return nil, nil
	}
	w := &autoWalker{
		assigned: map[string]bool{},
		used:     map[string]bool{},
		declared: map[string]bool{},
	}
	w.block(fd.Body)
	if w.reject {
		return nil, nil
	}
	for _, c := range w.calls {
		if !eligible[c] || c == fd.Name {
			return nil, nil // residual (un-inlinable) call disqualifies
		}
	}
	for _, pr := range fd.Params {
		if len(keys) == maxAutoKeys {
			break
		}
		t := pr.Type
		if t == nil || t.Base != token.KwInt || t.Ptr != 0 || len(t.ArrayLens) != 0 {
			continue
		}
		if w.used[pr.Name] && !w.assigned[pr.Name] && !w.declared[pr.Name] {
			keys = append(keys, pr.Name)
		}
	}
	if len(keys) == 0 {
		return nil, nil
	}
	return keys, w.calls
}

// autoWalker scans a function body for disqualifying constructs and
// records which names are read, written, locally re-declared and called.
type autoWalker struct {
	reject   bool
	assigned map[string]bool
	used     map[string]bool
	declared map[string]bool
	calls    []string
}

func (w *autoWalker) stmt(s ast.Stmt) {
	if w.reject || s == nil {
		return
	}
	switch x := s.(type) {
	case *ast.Block:
		w.block(x)
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			w.declared[d.Name] = true
			w.expr(d.Init)
		}
	case *ast.ExprStmt:
		w.expr(x.X)
	case *ast.EmptyStmt, *ast.Break, *ast.Continue, *ast.Case:
	case *ast.If:
		w.expr(x.Cond)
		w.stmt(x.Then)
		w.stmt(x.Else)
	case *ast.While:
		w.expr(x.Cond)
		w.stmt(x.Body)
	case *ast.DoWhile:
		w.stmt(x.Body)
		w.expr(x.Cond)
	case *ast.For:
		w.stmt(x.Init)
		w.expr(x.Cond)
		w.expr(x.Post)
		w.stmt(x.Body)
	case *ast.Switch:
		w.expr(x.Tag)
		w.block(x.Body)
	case *ast.Return:
		w.expr(x.X)
	case *ast.Goto, *ast.LabeledStmt, *ast.DynamicRegion:
		w.reject = true
	default:
		w.reject = true
	}
}

func (w *autoWalker) block(b *ast.Block) {
	for _, s := range b.Stmts {
		w.stmt(s)
	}
}

func (w *autoWalker) expr(e ast.Expr) {
	if w.reject || e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.Ident:
		w.used[x.Name] = true
	case *ast.IntLit, *ast.FloatLit, *ast.StringLit, *ast.SizeofType:
	case *ast.Unary:
		if x.Op == token.AMP {
			w.reject = true
			return
		}
		if x.Op == token.INC || x.Op == token.DEC {
			w.markAssigned(x.X)
		}
		w.expr(x.X)
	case *ast.PostIncDec:
		w.markAssigned(x.X)
		w.expr(x.X)
	case *ast.Binary:
		w.expr(x.L)
		w.expr(x.R)
	case *ast.Assign:
		w.markAssigned(x.L)
		w.expr(x.L)
		w.expr(x.R)
	case *ast.Cond:
		w.expr(x.C)
		w.expr(x.T)
		w.expr(x.F)
	case *ast.Call:
		w.calls = append(w.calls, x.Fun)
		for _, a := range x.Args {
			w.expr(a)
		}
	case *ast.Index:
		w.expr(x.X)
		w.expr(x.I)
	case *ast.Field:
		w.expr(x.X)
	case *ast.Cast:
		w.expr(x.X)
	default:
		w.reject = true
	}
}

// markAssigned records the root identifier of an assignment target; stores
// through pointers or into arrays do not disqualify the base name (only
// direct writes to a scalar do).
func (w *autoWalker) markAssigned(l ast.Expr) {
	if id, ok := l.(*ast.Ident); ok {
		w.assigned[id.Name] = true
	}
}
