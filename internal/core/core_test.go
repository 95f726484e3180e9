package core_test

import (
	"strings"
	"testing"

	"dyncc/internal/core"
)

func TestCompileErrorsPropagate(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"parse", `int f( {`, "expected"},
		{"lower", `int f() { return nope; }`, "undefined"},
		{"unroll", `
int f(int *a, int m) {
    int r = 0;
    dynamicRegion (a) {
        int i;
        unrolled for (i = 0; i < m; i++) { r += a[i]; }
    }
    return r;
}`, "unrolled"},
	}
	for _, tc := range cases {
		_, err := core.Compile(tc.src, core.DefaultConfig())
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestMultipleRegionsOneProgram(t *testing.T) {
	src := `
int fa(int c, int x) {
    int r;
    dynamicRegion (c) { r = x * c; }
    return r;
}
int fb(int d, int x) {
    int r;
    dynamicRegion (d) { r = x + d * 2; }
    return r;
}`
	c, err := core.Compile(src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Output.Regions) != 2 {
		t.Fatalf("regions: %d", len(c.Output.Regions))
	}
	m := c.NewMachine(0)
	if v, _ := m.Call("fa", 3, 10); v != 30 {
		t.Errorf("fa: %d", v)
	}
	if v, _ := m.Call("fb", 4, 10); v != 18 {
		t.Errorf("fb: %d", v)
	}
	if m.Region(0).Compiles != 1 || m.Region(1).Compiles != 1 {
		t.Error("both regions should have compiled once")
	}
}

func TestConfigMatrixAgrees(t *testing.T) {
	src := `
int f(int c, int x) {
    int r = 0;
    dynamicRegion (c) {
        int i;
        for (i = 0; i < c; i++) { r = r + x - i; }
    }
    return r;
}`
	want := int64(0)
	{
		c, x := int64(5), int64(9)
		for i := int64(0); i < c; i++ {
			want += x - i
		}
	}
	for _, cfg := range []core.Config{
		{Dynamic: false, Optimize: false},
		{Dynamic: false, Optimize: true},
		{Dynamic: true, Optimize: false},
		{Dynamic: true, Optimize: true},
	} {
		c, err := core.Compile(src, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		m := c.NewMachine(0)
		got, err := m.Call("f", 5, 9)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if got != want {
			t.Errorf("%+v: got %d want %d", cfg, got, want)
		}
	}
}

func TestOptStatsRecorded(t *testing.T) {
	c, err := core.Compile(`int f() { return 2 * 3 + 4; }`, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.PassStat("const-fold").Changes == 0 {
		t.Error("constant folding not recorded")
	}
	for _, st := range c.Stats {
		if st.Duration <= 0 {
			t.Errorf("pass %s: zero duration", st.Pass)
		}
		if st.Runs == 0 {
			t.Errorf("pass %s: zero runs", st.Pass)
		}
	}
	if c.PassStat("verify").Runs == 0 {
		t.Error("no interposed verification recorded")
	}
}

func TestDisablePasses(t *testing.T) {
	src := `int f() { return 2 * 3 + 4; }`
	cfg := core.DefaultConfig()
	cfg.DisablePasses = []string{"const-fold", "simplify"}
	c, err := core.Compile(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PassStat("const-fold"); got.Runs != 0 {
		t.Errorf("disabled pass ran %d times", got.Runs)
	}
	m := c.NewMachine(0)
	if v, _ := m.Call("f"); v != 10 {
		t.Errorf("f() = %d with const-fold disabled", v)
	}

	cfg.DisablePasses = []string{"no-such-pass"}
	if _, err := core.Compile(src, cfg); err == nil {
		t.Error("unknown pass name accepted")
	}
	// The stitcher consumes only stencils, so the stencil pass is
	// structural too.
	for _, pass := range []string{"codegen", "stencil"} {
		cfg.DisablePasses = []string{pass}
		if _, err := core.Compile(src, cfg); err == nil ||
			!strings.Contains(err.Error(), "is structural") {
			t.Errorf("disabling %s: err = %v, want the structural-pass error", pass, err)
		}
	}
}
