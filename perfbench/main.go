// Command perfbench is the repository's end-to-end benchmark: one command
// that runs one of three workloads against the public functions of the
// compiler, the run-time stitcher, the stitch cache, the VM and the segment
// store, checks every output against a reference that is independent of the
// compiler under test, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (see endToEnd); with --trace 1 the run measures
// two windows of half the length, untraced and then traced, and reports
// every per-layer metric (see layerMetrics) plus the tracing overhead. The
// workloads, and which layers each exercises and bypasses, are described in
// README.md next to this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// options are one run's parameters.
type options struct {
	seed    int64
	seconds float64 // length of each timed window
	// ops, when positive, replaces the time limit: each timed window runs
	// exactly this many operations (whole corpus passes for compile). The
	// test uses it so exact metrics can be compared between runs.
	ops int
	// small shrinks the fleet and corpus sizes (test only).
	small bool
	// setups is how many times set-up is repeated; setup_s is their median.
	setups   int
	trace    bool
	traceDir string // where a traced run writes its spans
}

// window is what one timed window measured.
type window struct {
	attempted, failed int
	opsPerS           float64
	p50us, p99us      float64
	// layer holds the per-layer metrics the window measured; only traced
	// windows fill it.
	layer map[string]float64
}

// state is a set-up workload, ready to run timed windows.
type state interface {
	// run measures one timed window; tr is nil for an untraced window.
	run(o *options, tr *tracer) (*window, error)
	// check compares every output the last window recorded against the
	// reference and returns an error wrapping errMismatch for the first
	// mismatch. It runs outside the timed window, drops the recorded
	// outputs, and returns how many operations it found failed (their VM
	// call returned an error) that the window did not already count.
	check() (failed int, err error)
	// exact returns the per-layer metrics that are exact counts of the
	// modeled machine or of the compiler, measured outside the windows.
	exact() (map[string]float64, error)
	// close releases the workload's runtimes.
	close()
}

// workloads maps each workload name to its set-up function.
var workloads = map[string]func(o *options) (state, error){
	"compile": setupCompile,
	"serve":   setupServe,
	"restart": setupRestart,
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: compile, serve or restart")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from, in [0, 2^40)")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 to run traced and report the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setup, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seed < 0 || *seed >= 1<<40 {
		return fmt.Errorf("--seed must be in [0, 2^40), got %d", *seed)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	o := &options{seed: *seed, seconds: *seconds, setups: 3,
		trace: *trace == 1, traceDir: *traceDir}
	res, err := runWorkload(*name, setup, o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

var (
	// errMismatch marks a check failure: the run still reports its
	// metrics, with correct set to false.
	errMismatch = errors.New("output differs from the reference")
	// errTrap marks an operation whose VM call returned an error: a failed
	// operation, not a wrong answer.
	errTrap = errors.New("vm error")
)

// runWorkload sets the workload up o.setups times, runs its timed
// window(s), checks the outputs and assembles the result.
func runWorkload(name string, setup func(*options) (state, error), o *options) (*result, error) {
	var st state
	setupTimes := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		st = s
	}
	defer st.close()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	checked := func(w *window) error {
		failed, err := st.check()
		w.failed += failed
		if errors.Is(err, errMismatch) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			res.Correct = false
			return nil
		}
		return err
	}

	if o.trace {
		// The untraced and traced windows share the run's length, so a
		// traced run takes as long as an untraced one.
		half := *o
		half.seconds /= 2
		o = &half
	}
	t0 := time.Now()
	plain, err := st.run(o, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	t1 := time.Now()
	if err := checked(plain); err != nil {
		return nil, fmt.Errorf("%s check: %w", name, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: set-up %.2fs (median of %d), window %.2fs, check %.2fs\n",
		name, median(setupTimes), len(setupTimes), t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	e2e := endToEndValues(plain, median(setupTimes), liveHeapMB(st))
	if !o.trace {
		res.Attempted, res.Failed = plain.attempted, plain.failed
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
		return res, nil
	}

	tr := newTracer(traceSpanLimit)
	traced, err := st.run(o, tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", name, err)
	}
	if err := checked(traced); err != nil {
		return nil, fmt.Errorf("%s traced check: %w", name, err)
	}
	ex, err := st.exact()
	if err != nil {
		return nil, fmt.Errorf("%s exact metrics: %w", name, err)
	}
	res.Attempted, res.Failed = traced.attempted, traced.failed
	tracedE2E := endToEndValues(traced, 0, 0)
	vals := map[string]float64{"trace.spans": float64(tr.total())}
	for _, d := range endToEnd {
		if d.name != "setup_s" && d.name != "live_heap_mb" {
			vals["trace."+d.name+"_delta"] = tracedE2E[d.name] - e2e[d.name]
		}
	}
	for k, v := range traced.layer {
		vals[k] = v
	}
	for k, v := range ex {
		vals[k] = v
	}
	for _, d := range layerMetrics() {
		v, ok := vals[d.name]
		if ok && d.workload != "" && d.workload != name {
			return nil, fmt.Errorf("%s measured %s's metric %q", name, d.workload, d.name)
		}
		if !ok && d.workload == name {
			return nil, fmt.Errorf("%s did not measure its metric %q", name, d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
		delete(vals, d.name)
	}
	for k := range vals {
		return nil, fmt.Errorf("%s measured undeclared per-layer metric %q", name, k)
	}
	if err := tr.write(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, o.seed)); err != nil {
		return nil, err
	}
	return res, nil
}

func endToEndValues(w *window, setupS, heapMB float64) map[string]float64 {
	return map[string]float64{
		"setup_s":      setupS,
		"live_heap_mb": heapMB,
		"ops_per_s":    w.opsPerS,
		"op_us_p50":    w.p50us,
		"op_us_p99":    w.p99us,
	}
}

// liveHeapMB is the heap still in use after a forced collection, with the
// workload's state (machines, caches, compiled programs) live.
func liveHeapMB(st state) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(st)
	return float64(ms.HeapAlloc) / 1e6
}
