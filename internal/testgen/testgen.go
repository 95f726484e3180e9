// Package testgen generates random MiniC programs with dynamic regions and
// differentially tests the full compilation pipeline — parser, SSA,
// optimizer, region splitter, code generator, register allocator, stitcher,
// runtime cache (inline and asynchronous), and VM — against a reference
// that shares none of those stages: direct interpretation of the
// *unoptimized* SSA IR. Any divergence is a bug in some layer of the
// pipeline; the reference is deliberately the dumbest correct executor we
// have.
//
// The generator is seeded and deterministic, so every failure is
// reproducible from its (seed, c, x) triple; FuzzDifferential feeds the
// same triple space from the native fuzzer.
package testgen

import (
	"fmt"
	"math/rand"
	"strings"

	"dyncc/internal/core"
	"dyncc/internal/ir"
	"dyncc/internal/opt"
	"dyncc/internal/rtr"
)

// ops are the binary operators the generator composes. Division and modulo
// are deliberately absent: they can trap, and trap parity between engines
// is tested elsewhere — here every generated program must run to
// completion so outputs are always comparable.
var ops = []string{"+", "-", "*", "&", "|", "^"}

var cmps = []string{"<", ">", "==", "!="}

// gen carries generator state: the source being built and the variables in
// scope at each point.
type gen struct {
	r       *rand.Rand
	b       strings.Builder
	vars    []string // expression-usable int variables in scope
	loops   int      // loop variables minted so far (v0, v1, ...)
	depth   int      // statement nesting depth
	helpers int      // helper functions emitted (h0, h1, ...); 0 unless WithCalls
}

func (g *gen) pick(list []string) string { return list[g.r.Intn(len(list))] }

// expr builds a random expression tree over the variables in scope.
func (g *gen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprint(g.r.Intn(64) - 16)
		default:
			return g.pick(g.vars)
		}
	}
	return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), g.pick(ops), g.expr(depth-1))
}

// cond builds a random comparison.
func (g *gen) cond() string {
	return fmt.Sprintf("%s %s %s", g.expr(1), g.pick(cmps), g.expr(1))
}

// constCond builds a comparison over region constants only (c and n), so a
// keyed region's branch resolution can fold it at stitch time.
func (g *gen) constCond() string {
	lhs := []string{"c", "n", "(c & 7)", "(n + c)", "(c * 3)"}[g.r.Intn(5)]
	return fmt.Sprintf("%s %s %d", lhs, g.pick(cmps), g.r.Intn(10))
}

func (g *gen) linef(format string, args ...any) {
	g.b.WriteString(strings.Repeat("    ", g.depth+2))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// stmt emits one random statement. idx lists loop variables usable as
// array indices (always < n, so loads never trap).
func (g *gen) stmt(idx []string, unrollOK bool) {
	choice := g.r.Intn(10)
	switch {
	case choice < 3: // plain accumulation — or, with helpers, a call site
		if g.helpers > 0 && g.r.Intn(3) == 0 {
			g.linef("acc = acc %s h%d(%s, %s);",
				g.pick(ops), g.r.Intn(g.helpers), g.expr(1), g.expr(1))
		} else {
			g.linef("acc = acc %s %s;", g.pick(ops), g.expr(2))
		}
	case choice < 4 && len(idx) > 0: // bounded array load
		i := g.pick(idx)
		if g.r.Intn(2) == 0 {
			g.linef("acc = acc + a[%s];", i)
		} else {
			g.linef("acc = acc ^ (a dynamic[%s] + %s);", i, g.expr(1))
		}
	case choice < 6 && g.depth < 2: // if / if-else
		if g.r.Intn(2) == 0 {
			g.linef("if (%s) {", g.constCond())
		} else {
			g.linef("if (%s) {", g.cond())
		}
		g.depth++
		g.stmt(idx, false)
		g.depth--
		if g.r.Intn(2) == 0 {
			g.linef("} else {")
			g.depth++
			g.stmt(idx, false)
			g.depth--
		}
		g.linef("}")
	case choice < 8 && unrollOK && g.depth < 2: // unrolled loop over the array
		v := fmt.Sprintf("v%d", g.loops)
		g.loops++
		bound := "n"
		if len(idx) > 0 && g.r.Intn(3) == 0 {
			bound = idx[len(idx)-1] // nested: bounded by the outer index
		}
		g.linef("unrolled for (%s = 0; %s < %s; %s++) {", v, v, bound, v)
		g.depth++
		// Most unrolled loops touch the array — that is what the paper's
		// loop unrolling + load promotion machinery specializes.
		switch g.r.Intn(3) {
		case 0:
			g.linef("acc = acc + a[%s] * %s;", v, g.expr(1))
		case 1:
			g.linef("acc = acc ^ (a dynamic[%s] + %s);", v, g.expr(1))
		}
		g.stmt(append(idx, v), g.r.Intn(2) == 0)
		g.depth--
		g.linef("}")
	case choice < 9 && g.depth < 2: // ordinary (rolled) loop, literal bound
		v := fmt.Sprintf("v%d", g.loops)
		g.loops++
		k := 1 + g.r.Intn(4)
		g.linef("for (%s = 0; %s < %d; %s++) {", v, v, k, v)
		g.depth++
		g.stmt(idx, false)
		g.depth--
		g.linef("}")
	default:
		g.linef("acc = (%s) %s acc;", g.expr(2), g.pick(ops))
	}
}

// GenOpts selects optional generator features. The zero value reproduces
// the historical corpus byte for byte — options must only ever *add*
// random draws on code paths the zero value never takes.
type GenOpts struct {
	// WithCalls emits 1–3 small pure helper functions (h0, h1, ...) and
	// call sites inside and around the dynamic region — the corpus for the
	// demand-driven inlining differential (RunInline). Helpers compose the
	// same trap-free operator set as the rest of the generator and may
	// chain (h2 calling h1), so transitive grafting is exercised too.
	WithCalls bool
}

// Gen returns random MiniC source for
//
//	int f(int *a, int n, int c, int x)
//
// containing one dynamic region (keyed or unkeyed, at random) over the
// run-time constants a, n and c. Array loads are always bounded by n, so
// for any heap of n elements the program runs trap-free on every engine.
func Gen(r *rand.Rand) string { return GenWith(r, GenOpts{}) }

// genHelpers emits the helper functions for GenOpts.WithCalls and returns
// their source. Helper bodies draw only from their own parameters (p, q)
// and literals, with the trap-free operator set; later helpers may call
// earlier ones.
func (g *gen) genHelpers() string {
	g.helpers = 1 + g.r.Intn(3)
	var b strings.Builder
	for i := 0; i < g.helpers; i++ {
		saved := g.vars
		g.vars = []string{"p", "q"}
		body := fmt.Sprintf("(p %s %s)", g.pick(ops), g.expr(1))
		if i > 0 && g.r.Intn(2) == 0 {
			body = fmt.Sprintf("(%s %s h%d(q, %s))",
				body, g.pick(ops), g.r.Intn(i), g.expr(1))
		}
		fmt.Fprintf(&b, "int h%d(int p, int q) {\n    return %s;\n}\n", i, body)
		g.vars = saved
	}
	return b.String()
}

// GenWith is Gen with options; see GenOpts.
func GenWith(r *rand.Rand, opts GenOpts) string {
	g := &gen{r: r, vars: []string{"acc", "x", "c", "n"}}

	helperDefs := ""
	if opts.WithCalls {
		helperDefs = g.genHelpers()
	}

	header := "dynamicRegion (a, n, c)"
	switch g.r.Intn(3) {
	case 0:
		header = "dynamicRegion key(c) (a, n)"
	case 1:
		header = "dynamicRegion key(c, n) (a)"
	}

	// Optional derived constant d, declared at region top.
	hasD := g.r.Intn(2) == 0
	if hasD {
		g.vars = append(g.vars, "d")
	}

	nstmts := 2 + g.r.Intn(4)
	for i := 0; i < nstmts; i++ {
		g.stmt(nil, true)
	}
	body := g.b.String()

	var decls strings.Builder
	for i := 0; i < g.loops; i++ {
		fmt.Fprintf(&decls, "        int v%d;\n", i)
	}
	dDecl := ""
	if hasD {
		dDecl = fmt.Sprintf("        int d = (c %s %d) %s n;\n",
			g.pick(ops), g.r.Intn(30), g.pick(ops))
	}

	ret := "    return acc;"
	inRegion := ""
	if g.r.Intn(3) == 0 {
		inRegion = "        return acc + x;\n"
		ret = "    return acc - 1;"
	}

	// Call sites around the region: a pre-region call with a literal
	// argument (a demand-driven inline site outside any region) and,
	// sometimes, one in the final return.
	prelude := ""
	if g.helpers > 0 {
		prelude = fmt.Sprintf("    acc = h%d(%d, x);\n",
			g.r.Intn(g.helpers), g.r.Intn(64)-16)
		if g.r.Intn(2) == 0 {
			ret = fmt.Sprintf("    return acc %s h%d(acc, %d);",
				g.pick(ops), g.r.Intn(g.helpers), g.r.Intn(64)-16)
		}
	}

	return fmt.Sprintf(`%s
int f(int *a, int n, int c, int x) {
    int acc = 0;
%s    %s {
%s%s%s%s    }
%s
}`, helperDefs, prelude, header, decls.String(), dDecl, body, inRegion, ret)
}

// limit clamps v into [lo, hi] by wrapping — keeps fuzz-chosen parameters
// in ranges where programs stay small and trap-free.
func limit(v, lo, hi int64) int64 {
	span := hi - lo + 1
	m := v % span
	if m < 0 {
		m += span
	}
	return lo + m
}

// testCase is one generated program plus its reference outputs.
type testCase struct {
	seed     int64
	src      string
	n, c     int64
	contents []int64
	xs       []int64
	want     []int64
}

// buildCase generates the program for seed and computes the reference
// outputs by interpreting the unoptimized SSA IR — no optimizer,
// splitter, regalloc, codegen, stitcher or VM involved.
func buildCase(seed, cIn, xIn int64) (*testCase, error) {
	return buildCaseWith(seed, cIn, xIn, GenOpts{})
}

// buildCaseWith is buildCase with generator knobs; the reference stays the
// unoptimized interpreter, which never inlines, so call-bearing programs
// are checked across the call-boundary transform too.
func buildCaseWith(seed, cIn, xIn int64, opts GenOpts) (*testCase, error) {
	r := rand.New(rand.NewSource(seed))
	src := GenWith(r, opts)

	n := int64(1 + r.Intn(6))
	c := limit(cIn, -512, 512)
	contents := make([]int64, n)
	for i := range contents {
		contents[i] = int64(r.Int31n(200)) - 100
	}
	xs := []int64{xIn, xIn + 17, -xIn, xIn ^ c, int64(r.Intn(100)) - 50}

	ref, err := core.Compile(src, core.Config{Dynamic: false, Optimize: false})
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w\n%s", err, src)
	}
	env := ir.NewInterpEnv(ref.Module, 0)
	ra := env.Alloc(n)
	copy(env.Mem[ra:ra+n], contents)
	want := make([]int64, len(xs))
	for i, x := range xs {
		v, err := env.CallFunc("f", ra, n, c, x)
		if err != nil {
			return nil, fmt.Errorf("reference run (c=%d x=%d): %w\n%s", c, x, err, src)
		}
		want[i] = v
	}
	return &testCase{seed: seed, src: src, n: n, c: c,
		contents: contents, xs: xs, want: want}, nil
}

// checkSubject compiles the case's program under cfg and compares every
// run against the reference outputs. AsyncStitch subjects additionally
// quiesce the worker pool and re-run everything warm, so the fallback
// tier and the promoted stitched tier are both checked.
func (tc *testCase) checkSubject(name string, cfg core.Config) error {
	p, err := core.Compile(tc.src, cfg)
	if err != nil {
		return fmt.Errorf("%s compile: %w\n%s", name, err, tc.src)
	}
	return tc.checkCompiled(name, p, cfg.Cache.AsyncStitch)
}

// checkCompiled runs an already-compiled program against the reference
// outputs (the execution half of checkSubject; RunBatch reuses it for
// batch-compiled programs).
func (tc *testCase) checkCompiled(name string, p *core.Compiled, async bool) error {
	defer p.Runtime.Close()
	m := p.NewMachine(0)
	va, err := m.Alloc(tc.n)
	if err != nil {
		return fmt.Errorf("%s alloc: %w", name, err)
	}
	copy(m.Mem[va:va+tc.n], tc.contents)
	run := func(phase string) error {
		for i, x := range tc.xs {
			got, err := m.Call("f", va, tc.n, tc.c, x)
			if err != nil {
				return fmt.Errorf("%s %srun (c=%d x=%d): %w\n%s",
					name, phase, tc.c, x, err, tc.src)
			}
			if got != tc.want[i] {
				return fmt.Errorf("%s %sdiverges (seed=%d c=%d x=%d): got %d, reference %d\n%s",
					name, phase, tc.seed, tc.c, x, got, tc.want[i], tc.src)
			}
		}
		return nil
	}
	if err := run(""); err != nil {
		return err
	}
	if async {
		p.Runtime.WaitIdle()
		if err := run("warm "); err != nil {
			return err
		}
	}
	return nil
}

// Run generates the program for seed and differentially executes it:
// reference = unoptimized IR interpretation, subjects = the fully
// optimized dynamic pipeline, with inline or merged set-up, each stitching
// inline or on asynchronous background workers. cIn and xIn parameterize
// the run-time constant and the varying input. A non-nil error describes
// the first divergence, with the generated source embedded for
// reproduction.
func Run(seed, cIn, xIn int64) error {
	tc, err := buildCase(seed, cIn, xIn)
	if err != nil {
		return err
	}
	subjects := []struct {
		name string
		cfg  core.Config
	}{
		{"dynamic", core.Config{Dynamic: true, Optimize: true}},
		{"dynamic+merged", core.Config{Dynamic: true, Optimize: true, MergedStitch: true}},
		{"dynamic+async", core.Config{Dynamic: true, Optimize: true,
			Cache: rtr.CacheOptions{AsyncStitch: true}}},
		{"dynamic+merged+async", core.Config{Dynamic: true, Optimize: true, MergedStitch: true,
			Cache: rtr.CacheOptions{AsyncStitch: true}}},
	}
	for _, sub := range subjects {
		if err := tc.checkSubject(sub.name, sub.cfg); err != nil {
			return err
		}
	}
	return nil
}

// AblationPasses lists the disableable passes RunAblation knocks out one
// at a time: every optimizer sub-pass, the stencil precompilation pass
// (whose ablation falls back to interpretive stitching), the autoregion
// speculation pass (whose ablation must leave a Config.AutoRegion build
// behaviourally identical to a plain dynamic build), and the demand-driven
// inline pass (whose ablation keeps every call boundary intact).
func AblationPasses() []string {
	subs := opt.SubPasses()
	names := make([]string, 0, len(subs)+3)
	for _, sp := range subs {
		names = append(names, sp.Name)
	}
	return append(names, "stencil", "autoregion", "inline")
}

// RunAblation is the pipeline's pass-ablation differential: for each
// optimizer sub-pass, compile the generated program with exactly that
// pass disabled and re-check semantic equivalence against the
// unoptimized-IR reference. Any divergence means a sub-pass is either
// unsound on its own or — more subtly — that another pass silently
// depends on its effects for correctness rather than just quality.
func RunAblation(seed, cIn, xIn int64) error {
	tc, err := buildCase(seed, cIn, xIn)
	if err != nil {
		return err
	}
	for _, pass := range AblationPasses() {
		cfg := core.Config{Dynamic: true, Optimize: true,
			DisablePasses: []string{pass}}
		if pass == "autoregion" {
			// Ablating speculation is only meaningful when it was asked
			// for: request AutoRegion and require the knocked-out pass to
			// fully neutralize it.
			cfg.AutoRegion = true
		}
		if err := tc.checkSubject("ablate:"+pass, cfg); err != nil {
			return err
		}
	}
	return nil
}
