package analysis

import (
	"testing"

	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/parser"
)

// analyzeRegion compiles src, builds SSA, and analyzes the first region of
// function fn.
func analyzeRegion(t *testing.T, src, fn string) (*ir.Func, *Result) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := lower.Lower(file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	f := mod.FuncIndex[fn]
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	ir.BuildSSA(f)
	if len(f.Regions) == 0 {
		t.Fatalf("no regions in %s", fn)
	}
	res, err := Analyze(f, f.Regions[0], nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return f, res
}

// phiOf finds the φ merging source variable name within the region.
func phiOf(t *testing.T, f *ir.Func, res *Result, name string) *ir.Instr {
	t.Helper()
	for _, b := range f.Blocks {
		if b.Region == nil {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && f.ValueInfo(in.Dst).Name == name {
				return in
			}
		}
	}
	t.Fatalf("no φ for %s", name)
	return nil
}

// The paper's first example (section 3.1): if test is constant, the merge
// is a constant merge and x is constant after it.
func TestConstantMergeDiamond(t *testing.T) {
	src := `
int use(int v) { return v; }
int f(int test, int other) {
    int r;
    dynamicRegion (test) {
        int x;
        if (test) { x = 1; } else { x = 2; }
        r = use(x);
    }
    return r;
}`
	f, res := analyzeRegion(t, src, "f")
	phi := phiOf(t, f, res, "x")
	if !res.Const.Has(phi.Dst) {
		t.Error("x should be constant after a constant merge")
	}
	if !res.ConstMerge[phi.Blk] {
		t.Error("the merge should be a constant merge")
	}
}

// With a non-constant test, x cannot be a run-time constant after the merge
// even though 1 and 2 are constants (the non-idempotent-φ rule).
func TestNonConstantMergeDiamond(t *testing.T) {
	src := `
int use(int v) { return v; }
int f(int test, int c) {
    int r;
    dynamicRegion (c) {
        int x;
        if (test) { x = 1; } else { x = 2; }
        r = use(x + c);
    }
    return r;
}`
	f, res := analyzeRegion(t, src, "f")
	phi := phiOf(t, f, res, "x")
	if res.Const.Has(phi.Dst) {
		t.Error("x must not be constant after a non-constant merge")
	}
	if res.ConstMerge[phi.Blk] {
		t.Error("merge of a non-constant branch must not be constant")
	}
}

// The paper's unstructured example (section 3.1): an if/else whose else arm
// is a switch with fall-through and a goto past the join. When both a and b
// are constants, reachability analysis proves all merges constant, so a
// value assigned differently along the arms is still a run-time constant.
func TestUnstructuredReachability(t *testing.T) {
	src := `
int use(int v) { return v; }
int f(int a, int b, int other) {
    int r;
    dynamicRegion (a, b) {
        int x = 0;
        if (a) {
            x = 10; /* M */
        } else {
            switch (b) {
            case 1: x = x + 20; /* N, falls through */
            case 2: x = x + 30; break; /* O */
            case 3: x = 40; goto L; /* P */
            }
            x = x + 50; /* Q */
        }
        x = x + 60; /* R */
L:
        r = use(x);
    }
    return r;
}`
	f, res := analyzeRegion(t, src, "f")
	// Every φ of x within the region must be constant.
	count := 0
	for _, b := range f.Blocks {
		if b.Region == nil {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && f.ValueInfo(in.Dst).Name == "x" {
				count++
				if !res.Const.Has(in.Dst) {
					t.Errorf("φ of x in b%d should be constant (unstructured reachability)", b.ID)
				}
			}
		}
	}
	if count == 0 {
		t.Fatal("expected φs for x")
	}
}

// Same shape, but only a is constant: the merges fed by the switch are not
// constant merges, so x is not constant at the final use.
func TestUnstructuredPartialConstancy(t *testing.T) {
	src := `
int use(int v) { return v; }
int f(int a, int b, int other) {
    int r;
    dynamicRegion (a) {
        int x = 0;
        if (a) {
            x = 10;
        } else {
            switch (b) {
            case 1: x = x + 20;
            case 2: x = x + 30; break;
            case 3: x = 40; goto L;
            }
            x = x + 50;
        }
        x = x + 60;
L:
        r = use(x);
    }
    return r;
}`
	f, res := analyzeRegion(t, src, "f")
	anyNonConst := false
	for _, b := range f.Blocks {
		if b.Region == nil {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && f.ValueInfo(in.Dst).Name == "x" && !res.Const.Has(in.Dst) {
				anyNonConst = true
			}
		}
	}
	if !anyNonConst {
		t.Error("with b non-constant, some φ of x must be non-constant")
	}
}

// The paper's unrolled-loop example: the induction pointer of an unrolled
// list walk is constant inside the loop because the loop head is a constant
// merge by decree.
func TestUnrolledLoopInductionConstant(t *testing.T) {
	src := `
struct Node { int val; struct Node *next; };
int f(struct Node *lst, int n) {
    int acc = 0;
    dynamicRegion (lst, n) {
        struct Node *p;
        int i;
        unrolled for (i = 0; i < n; i++) {
            acc = acc + p dynamic-> val;
            p = lst;
        }
        return acc;
    }
    return 0;
}`
	// A simpler canonical form: the classic i-induction variable.
	f, res := analyzeRegion(t, src, "f")
	phi := phiOf(t, f, res, "i")
	if !res.Const.Has(phi.Dst) {
		t.Error("unrolled loop induction variable must be constant")
	}
	if !res.ConstMerge[phi.Blk] {
		t.Error("unrolled loop head must be a constant merge")
	}
}

// Ordinary (non-unrolled) loop heads are never constant merges, so the
// induction variable is not a run-time constant.
func TestOrdinaryLoopHeadNotConstant(t *testing.T) {
	src := `
int f(int c, int n) {
    int acc = 0;
    dynamicRegion (c, n) {
        int i;
        for (i = 0; i < n; i++) {
            acc = acc + i * c;
        }
        return acc;
    }
    return 0;
}`
	f, res := analyzeRegion(t, src, "f")
	phi := phiOf(t, f, res, "i")
	if res.Const.Has(phi.Dst) {
		t.Error("non-unrolled loop induction variable must not be constant")
	}
}

// Derived constants: loads through constant pointers are constant; dynamic
// loads are not; division never produces a run-time constant (it may trap).
func TestDerivationRules(t *testing.T) {
	src := `
int use(int v) { return v; }
int f(int *p, int d) {
    int r;
    dynamicRegion (p) {
        int a = *p;              /* const: load through const pointer */
        int b = dynamic* p;      /* not const: annotated dynamic */
        int c = a * 3 + 1;       /* const: derived */
        int e = a / 3;           /* not const: division may trap */
        r = use(a + b + c + e + d);
    }
    return r;
}`
	f, res := analyzeRegion(t, src, "f")
	get := func(name string) ir.Value {
		for _, b := range f.Blocks {
			if b.Region == nil {
				continue
			}
			for _, in := range b.Instrs {
				if in.Dst != 0 && f.ValueInfo(in.Dst).Name == name {
					return in.Dst
				}
			}
		}
		t.Fatalf("no value named %s", name)
		return 0
	}
	if !res.Const.Has(get("a")) {
		t.Error("a (load via const ptr) should be constant")
	}
	if res.Const.Has(get("b")) {
		t.Error("b (dynamic load) must not be constant")
	}
	if !res.Const.Has(get("c")) {
		t.Error("c (derived arithmetic) should be constant")
	}
	if res.Const.Has(get("e")) {
		t.Error("e (division) must not be constant")
	}
}

// Pure builtins (paper: "such as max or cos") propagate constancy.
func TestPureBuiltinDerivation(t *testing.T) {
	src := `
int use(int v) { return v; }
int f(int c, int d) {
    int r;
    dynamicRegion (c) {
        int m = max(c, 100);
        int a = abs(c);
        r = use(m + a + d);
    }
    return r;
}`
	f, res := analyzeRegion(t, src, "f")
	for _, name := range []string{"m", "a"} {
		found := false
		for _, b := range f.Blocks {
			if b.Region == nil {
				continue
			}
			for _, in := range b.Instrs {
				if in.Dst != 0 && f.ValueInfo(in.Dst).Name == name {
					found = true
					if !res.Const.Has(in.Dst) {
						t.Errorf("%s (pure builtin of const) should be constant", name)
					}
				}
			}
		}
		if !found {
			t.Fatalf("no value %s", name)
		}
	}
}

// Forced demotion must stick.
func TestForcedNonConst(t *testing.T) {
	src := `
int use(int v) { return v; }
int f(int c, int d) {
    int r;
    dynamicRegion (c) {
        int a = c + 1;
        r = use(a + d);
    }
    return r;
}`
	file, _ := parser.Parse(src)
	mod, _ := lower.Lower(file)
	f := mod.FuncIndex["f"]
	ir.BuildSSA(f)
	r := f.Regions[0]
	res, err := Analyze(f, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	var aVal ir.Value
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 && f.ValueInfo(in.Dst).Name == "a" {
				aVal = in.Dst
			}
		}
	}
	if !res.Const.Has(aVal) {
		t.Fatal("a should start constant")
	}
	res2, err := Analyze(f, r, map[ir.Value]bool{aVal: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Const.Has(aVal) {
		t.Error("forced demotion ignored")
	}
}
