package dyncc

import "testing"

// TestCompileStats checks the pipeline observability contract at the API
// surface: every registered pass reports a non-zero duration, the
// optimizer sub-passes appear individually, interposed verification is
// accounted, and DisablePasses/DumpIR round-trip through Config.
func TestCompileStats(t *testing.T) {
	src := `
int f(int c, int x) {
    int r = 0;
    dynamicRegion (c) {
        r = x * c + 2 * 3;
    }
    return r;
}`
	p, err := CompileDynamic(src)
	if err != nil {
		t.Fatal(err)
	}
	stats := p.CompileStats()
	byName := map[string]PassStat{}
	for _, st := range stats {
		byName[st.Pass] = st
		if st.Duration <= 0 {
			t.Errorf("pass %s: zero duration", st.Pass)
		}
		if st.Runs == 0 {
			t.Errorf("pass %s: zero runs", st.Pass)
		}
	}
	for _, want := range []string{"parse", "lower", "ssa", "const-fold", "simplify",
		"branch-fold", "copy-prop", "cse", "dce", "optimize", "split", "codegen", "verify"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("pass %s missing from CompileStats (have %d passes)", want, len(stats))
		}
	}
	if byName["const-fold"].Changes == 0 {
		t.Error("const-fold reported no changes for 2*3")
	}
	if byName["verify"].Runs < len(stats)-2 {
		t.Errorf("verify ran only %d times", byName["verify"].Runs)
	}
}

func TestConfigDisableAndDump(t *testing.T) {
	src := `int f(int x) { return x * 8; }`
	dumped := map[string]bool{}
	p, err := Compile(src, Config{Optimize: true,
		DisablePasses: []string{"simplify"},
		DumpIR:        func(pass, fn, text string) { dumped[pass] = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range p.CompileStats() {
		if st.Pass == "simplify" {
			t.Error("disabled pass present in stats")
		}
	}
	if !dumped["lower"] || !dumped["ssa"] || !dumped["split"] {
		t.Errorf("missing structural dumps: %v", dumped)
	}
	if dumped["simplify"] {
		t.Error("disabled pass dumped IR")
	}
	// x*8 stays a multiply without simplify's strength reduction, and the
	// program still computes the right answer.
	if got := runI(t, p, "f", 5); got != 40 {
		t.Errorf("f(5) = %d", got)
	}

	if _, err := Compile(src, Config{Optimize: true,
		DisablePasses: []string{"not-a-pass"}}); err == nil {
		t.Error("unknown pass name accepted")
	}
}
