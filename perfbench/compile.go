package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dyncc/internal/bench"
	"dyncc/internal/core"
	"dyncc/internal/lexer"
	"dyncc/internal/parser"
	"dyncc/internal/testgen"
	"dyncc/internal/vm"
)

// The compile corpus: the six Table 2 kernel sources, tenant programs,
// call-bearing generated programs, and generated programs with their
// annotations stripped, compiled with automatic region promotion. The seed
// draws the tenant programs, the order of every pass and the check inputs.
// The generated programs come from a fixed pool: their compile times spread
// over two orders of magnitude, so a few hundred drawn per seed would move
// the corpus's median and tail by more than the benchmark's bounds.
const (
	corpusTenants = 100
	corpusGen     = 150
	corpusAuto    = 50
)

// Kinds of corpus program.
const (
	progKernel = iota
	progTenant
	progGen
	progAuto
)

// autoRepeats is how often the check calls a stripped program with each
// input, enough for the runtime to promote the region and run its guarded
// stitched code.
const autoRepeats = 24

type program struct {
	kind int
	name string // kernel slug; empty for generated programs
	src  string
	cfg  core.Config

	// Check inputs: the data array, the run-time constant c (or tenant key)
	// and the varying inputs.
	data []int64
	c    int64
	xs   []int64

	last *core.Compiled // the program's most recent compile
}

type compileState struct {
	corpus []*program
	order  *rand.Rand
}

func setupCompile(o *options) (state, error) {
	nTen, nGen, nAuto := corpusTenants, corpusGen, corpusAuto
	if o.small {
		nTen, nGen, nAuto = 10, 15, 5
	}
	dflt := core.DefaultConfig()
	auto := core.Config{Dynamic: true, Optimize: true, AutoRegion: true}
	var corpus []*program
	srcs := []string{bench.CalcSource, bench.ScalarSource, bench.SparseSource,
		bench.DispatchSource, bench.SorterSource, bench.CacheSimSource}
	for i, src := range srcs {
		corpus = append(corpus, &program{kind: progKernel, name: compileKernels[i], src: src, cfg: dflt})
	}
	for i := 0; i < nTen; i++ {
		r := rand.New(rand.NewSource(o.seed*131 + int64(i)))
		corpus = append(corpus, &program{kind: progTenant, src: tenantSource(o.seed, i), cfg: dflt,
			data: tenantTable(o.seed, i), c: int64(r.Intn(tenantKeySpace)),
			xs: []int64{int64(r.Intn(tenantXSpace)) + 1, int64(r.Intn(tenantXSpace)) + 1}})
	}
	r := rand.New(rand.NewSource(o.seed))
	for j := 0; j < nGen+nAuto; j++ {
		src := testgen.GenWith(rand.New(rand.NewSource(int64(j))), testgen.GenOpts{WithCalls: true})
		p := &program{kind: progGen, src: src, cfg: dflt}
		if j >= nGen {
			p.kind, p.src, p.cfg = progAuto, testgen.StripAnnotations(p.src), auto
		}
		// Inputs drawn as testgen draws its differential cases.
		n := 1 + r.Intn(6)
		p.data = make([]int64, n)
		for i := range p.data {
			p.data[i] = int64(r.Int31n(200)) - 100
		}
		p.c = int64(r.Intn(1025)) - 512
		x := int64(r.Intn(2001)) - 1000
		p.xs = []int64{x, x + 17, -x, x ^ p.c, int64(r.Intn(100)) - 50}
		corpus = append(corpus, p)
	}
	// Warm-up: one compile of every program, which also proves the whole
	// corpus compiles before anything is timed.
	for _, p := range corpus {
		if _, err := core.Compile(p.src, p.cfg); err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.describe(), err)
		}
	}
	return &compileState{corpus: corpus, order: rand.New(rand.NewSource(o.seed + 1))}, nil
}

// passMetric maps pipeline rows to the per-layer metrics reported as mean
// µs per compile.
var passMetric = map[string]string{
	"lower":      "lower.us_per_compile",
	"ssa":        "ir.ssa_us",
	"autoregion": "core.autoregion_us",
	"inline":     "core.inline_us",
	"optimize":   "opt.us",
	"split":      "split.us",
	"codegen":    "codegen.us",
	"stencil":    "stencil.us",
	"verify":     "pipeline.verify_us",
}

// run compiles the corpus in a closed loop, one whole shuffled pass at a
// time, until the window is over. A traced window also lexes and parses
// each source on its own, for the front end's metrics.
func (s *compileState) run(o *options, tr *tracer) (*window, error) {
	w := &window{}
	var lat latencies
	var tokens int
	var lexNs, parseNs float64
	passNs := map[string]float64{}
	kernelUs := map[string][]float64{}
	dispNs := map[string]float64{}
	dispRuns := 0

	runtime.GC()
	start := time.Now()
	var busy time.Duration
	for pass := 0; ; pass++ {
		for _, i := range s.order.Perm(len(s.corpus)) {
			p := s.corpus[i]
			req := int64(w.attempted)
			var root int32 = -1
			if tr != nil {
				t0 := time.Now()
				root = tr.open("compile", -1, req, t0)
				toks := lexer.New(p.src).All()
				t1 := time.Now()
				if _, err := parser.Parse(p.src); err != nil {
					return nil, fmt.Errorf("parse: %w", err)
				}
				t2 := time.Now()
				tr.record("lexer.Lexer.All", root, req, t0, t1)
				tr.record("parser.Parse", root, req, t1, t2)
				tokens += len(toks)
				lexNs += float64(t1.Sub(t0).Nanoseconds())
				parseNs += float64(t2.Sub(t1).Nanoseconds())
			}
			t0 := time.Now()
			c, err := core.Compile(p.src, p.cfg)
			t1 := time.Now()
			busy += t1.Sub(t0)
			w.attempted++
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", p.describe(), err)
			}
			p.last = c
			us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
			lat.add(us)
			if tr == nil {
				continue
			}
			tr.record("core.Compile", root, req, t0, t1)
			tr.close(root, t1)
			for _, st := range c.Stats {
				passNs[st.Pass] += float64(st.Duration.Nanoseconds())
			}
			if p.kind == progKernel {
				kernelUs[p.name] = append(kernelUs[p.name], us)
				if p.name == "event_dispatcher" {
					dispRuns++
					for _, st := range c.Stats {
						dispNs[st.Pass] += float64(st.Duration.Nanoseconds())
					}
				}
			}
		}
		lat.cut()
		done := time.Since(start).Seconds() >= o.seconds
		if o.ops > 0 {
			done = (pass+1)*len(s.corpus) >= o.ops
		}
		if done {
			break
		}
	}
	lat.fill(w, busy.Seconds())
	if tr == nil {
		return w, nil
	}
	n := float64(w.attempted)
	w.layer = map[string]float64{
		"lexer.tokens_per_s":    float64(tokens) / (lexNs / 1e9),
		"parser.us_per_compile": parseNs / 1e3 / n,
	}
	for pass, name := range passMetric {
		w.layer[name] = passNs[pass] / 1e3 / n
	}
	for k, us := range kernelUs {
		w.layer["core.compile_us."+k] = median(us)
	}
	for _, pass := range dispatcherPasses {
		w.layer["core.dispatcher_pass_us."+pass] = dispNs[pass] / 1e3 / float64(dispRuns)
	}
	return w, nil
}

func (p *program) describe() string {
	if p.name != "" {
		return p.name
	}
	return fmt.Sprintf("generated program\n%s", p.src)
}

// check runs every generated program's most recent compile on its inputs
// and compares each result with the reference interpreter; the calculator
// kernel is compared with bench.CalcGold. A result that comes with a VM
// error counts as a failed compile. The compiled programs stay live: they
// are the workload's state that live_heap_mb measures.
func (s *compileState) check() (int, error) {
	failed := 0
	for _, p := range s.corpus {
		if p.last == nil {
			continue
		}
		err := p.check()
		if errors.Is(err, errTrap) {
			failed++
		} else if err != nil {
			return failed, err
		}
	}
	return failed, nil
}

func (p *program) check() error {
	c := p.last
	switch p.kind {
	case progKernel:
		if p.name != "calculator" {
			return nil // bench.Table2, in serve's traced run, checks these against gold functions
		}
		m := c.NewMachine(tenantMemWords)
		n := int64(len(bench.CalcExpr))
		prog, err := m.Alloc(2 * n)
		if err != nil {
			return err
		}
		for i, cell := range bench.CalcExpr {
			m.Mem[prog+int64(2*i)], m.Mem[prog+int64(2*i)+1] = cell[0], cell[1]
		}
		for x := int64(-3); x <= 3; x++ {
			y := 2*x + 1
			got, err := m.Call("calcEval", prog, n, x, y)
			if err != nil {
				return fmt.Errorf("%w: calculator: %v", errTrap, err)
			}
			if want := bench.CalcGold(x, y); got != want {
				return fmt.Errorf("%w: calculator calcEval(%d,%d) = %d, gold %d", errMismatch, x, y, got, want)
			}
		}
		return nil
	case progTenant:
		ref, err := newReference(p.src)
		if err != nil {
			return err
		}
		m, va, err := tenantMachine(c, p.data)
		if err != nil {
			return err
		}
		for _, x := range p.xs {
			if err := compare(ref, m, testgen.TenantEntry, p.data, va, p.c, x, p.src); err != nil {
				return err
			}
		}
		return nil
	}
	ref, err := newReference(p.src)
	if err != nil {
		return err
	}
	m, va, err := tenantMachine(c, p.data)
	if err != nil {
		return err
	}
	repeats := 1
	if p.kind == progAuto {
		repeats = autoRepeats
	}
	for _, x := range p.xs {
		for r := 0; r < repeats; r++ {
			if err := compare(ref, m, "f", p.data, va, p.c, x, p.src); err != nil {
				return err
			}
		}
	}
	return nil
}

// compare runs fn(data, len, a, b) on the machine and on the reference.
func compare(ref *reference, m *vm.Machine, fn string, data []int64, va, a, b int64, src string) error {
	got, err := m.Call(fn, va, int64(len(data)), a, b)
	if err != nil {
		return fmt.Errorf("%w: %s(%d, %d): %v", errTrap, fn, a, b, err)
	}
	want, err := ref.memoCall(fn, data, a, b)
	if err != nil {
		return fmt.Errorf("reference %s(%d, %d): %w", fn, a, b, err)
	}
	if got != want {
		return fmt.Errorf("%w: %s(%d, %d) = %d, reference %d\n%s", errMismatch, fn, a, b, got, want, src)
	}
	return nil
}

// exact sums the exact compiler counts over the corpus's last compiles:
// IR instructions after the pipeline, optimizer changes and static VM
// instructions.
func (s *compileState) exact() (map[string]float64, error) {
	var insts, changes, static float64
	for _, p := range s.corpus {
		c := p.last
		for _, f := range c.Module.Funcs {
			for _, b := range f.Blocks {
				insts += float64(len(b.Instrs))
			}
		}
		changes += float64(c.PassStat("optimize").Changes)
		for _, seg := range c.Output.Prog.Segs {
			static += float64(len(seg.Code))
		}
	}
	return map[string]float64{
		"ir.insts_after_opt":   insts,
		"opt.changes":          changes,
		"codegen.static_insts": static,
	}, nil
}

func (s *compileState) close() {}
