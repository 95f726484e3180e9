package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// testOps is each workload's operation count per window at reduced size.
var testOps = map[string]int{
	"compile": 36, // one pass over the small corpus
	"serve":   3000,
	"restart": 12,
}

// TestWorkloadsRepeat runs every workload at reduced size twice in one
// process, traced and with a fixed operation count, and requires every
// output to match the reference and every exact metric, the operation
// counts included, to repeat bit for bit.
func TestWorkloadsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, name := range []string{"compile", "serve", "restart"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				o := &options{seed: 3, ops: testOps[name], small: true, setups: 1,
					trace: true, traceDir: t.TempDir()}
				res, err := runWorkload(name, workloads[name], o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("run %d: outputs differ from the reference", i)
				}
				runs[i] = res
			}
			a, b := runs[0], runs[1]
			if a.Attempted != b.Attempted || a.Failed != b.Failed {
				t.Errorf("operations: %d attempted, %d failed, then %d and %d",
					a.Attempted, a.Failed, b.Attempted, b.Failed)
			}
			for _, d := range layerMetrics() {
				if d.workload != name {
					continue
				}
				va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
				switch {
				case d.exact || d.name == "vm.machine_replacements":
					if va != vb {
						t.Errorf("exact metric %s: %v, then %v", d.name, va, vb)
					}
				case va <= 0:
					t.Errorf("host metric %s = %v, want > 0", d.name, va)
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly the metrics and units this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v; perfbench has %d", names, len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []def) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, d := range want {
			w = append(w, d.name+" "+d.unit)
		}
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("BENCHMARK.json %s metrics:\n%s\nperfbench reports:\n%s",
				kind, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
	}
	same("end-to-end", cfg.EndToEnd, endToEnd)
	same("per-layer", cfg.PerLayer, layerMetrics())
}

// TestEmptyTrace checks the tracer's self-time arithmetic.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(4)
	root := tr.open("a", -1, 0, tr.epoch)
	tr.spans[root].end = 100
	child := tr.open("b", root, 0, tr.epoch)
	tr.spans[child].start, tr.spans[child].end = 10, 40
	if got := tr.selfTimes(); got["a"] != 70 || got["b"] != 30 {
		t.Errorf("self times %v, want a=70 b=30", got)
	}
	for i := 0; i < 4; i++ {
		tr.open("c", -1, 0, tr.epoch)
	}
	if tr.total() != 6 || len(tr.spans) != 4 {
		t.Errorf("kept %d of %d spans, want 4 of 6", len(tr.spans), tr.total())
	}
}
