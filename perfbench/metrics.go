package main

import (
	"math"
	"sort"
)

// def names one reported metric and its unit. For a per-layer metric,
// workload is the workload that measures it (empty for the tracing
// overhead) and exact marks a count of the modeled machine or the compiler
// that repeats bit for bit for a given seed; the others are host timings.
type def struct {
	name, unit string
	workload   string
	exact      bool
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. An "operation" is the workload's unit of work:
// one program compiled (compile), one request served (serve) or one
// simulated process restart (restart).
var endToEnd = []def{
	{name: "setup_s", unit: "s"},
	{name: "live_heap_mb", unit: "MB"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "op_us_p50", unit: "us"},
	{name: "op_us_p99", unit: "us"},
}

// Table 2 sources in the compile corpus, in bench's order.
var compileKernels = []string{"calculator", "scalar_matrix", "sparse", "event_dispatcher", "sorter", "cache_lookup"}

// dispatcherPasses are the pipeline rows the event dispatcher's compile
// time is attributed to (pipeline.PassStat names).
var dispatcherPasses = []string{"parse", "lower", "ssa", "inline", "optimize", "split", "codegen", "stencil", "verify"}

// hostKernels are bench.HostKernels' subjects, in its order.
var hostKernels = []string{"calculator", "scalar_matrix", "sparse_small", "event_dispatcher", "sorter_4", "warm_dispatch"}

// table2Rows are bench.Table2's rows, in its order.
var table2Rows = []string{"calculator", "scalar_matrix", "sparse_large", "sparse_small", "event_dispatcher", "sorter_4", "sorter_32", "cache_lookup"}

// layerMetrics lists every per-layer metric a traced run reports. A
// workload reports 0 for the metrics of the other workloads: their layers
// do no work in it.
func layerMetrics() []def {
	var ds []def
	add := func(workload string, exact bool, unit string, names ...string) {
		for _, n := range names {
			ds = append(ds, def{name: n, unit: unit, workload: workload, exact: exact})
		}
	}
	const host, exact = false, true

	add("compile", host, "1/s", "lexer.tokens_per_s")
	add("compile", host, "us", "parser.us_per_compile", "lower.us_per_compile",
		"ir.ssa_us", "core.autoregion_us", "core.inline_us", "opt.us", "split.us",
		"codegen.us", "stencil.us", "pipeline.verify_us")
	add("compile", exact, "insts", "ir.insts_after_opt")
	add("compile", exact, "count", "opt.changes")
	add("compile", exact, "insts", "codegen.static_insts")
	for _, k := range compileKernels {
		add("compile", host, "us", "core.compile_us."+k)
	}
	for _, p := range dispatcherPasses {
		add("compile", host, "us", "core.dispatcher_pass_us."+p)
	}

	add("serve", host, "us", "serve.hit_us_p50", "serve.hit_us_p99",
		"serve.miss_us_p50", "serve.miss_us_p99")
	add("serve", exact, "ratio", "serve.miss_request_share", "rtr.lookups_per_request",
		"rtr.shared_hit_share", "rtr.miss_share", "rtr.evictions_per_request",
		"rtr.restitch_share")
	add("serve", exact, "bytes", "rtr.bytes_resident")
	add("serve", exact, "count", "rtr.peak_entries")
	add("serve", exact, "insts", "stitcher.insts_per_stitch")
	add("serve", exact, "cycles", "stitcher.cycles_per_inst")
	add("serve", exact, "ratio", "stitcher.stencil_share")
	add("serve", exact, "cycles", "vm.setup_cycles_per_miss")
	add("serve", exact, "insts", "vm.guest_insts_per_request")
	add("serve", exact, "cycles", "vm.guest_cycles_per_request")
	// Replacements depend on how many requests the window served: exact
	// only for a fixed request count.
	add("serve", host, "count", "vm.machine_replacements")

	// The Table 2 kernels, measured after serve's windows (kernels.go).
	for _, k := range hostKernels {
		add("serve", host, "ns", "vm.ns_per_guest_inst."+k)
	}
	for _, k := range table2Rows {
		add("serve", exact, "cycles", "vm.cycles_per_use."+k, "vm.setup_cycles."+k,
			"stitcher.stitch_cycles."+k)
		add("serve", exact, "insts", "stitcher.insts."+k)
	}
	add("serve", exact, "cycles", "vm.guest_cycles_per_use", "stitcher.dyncompile_cycles")
	add("serve", exact, "insts", "stitcher.stitched_insts")

	add("restart", host, "ms", "restart.compile_ms_p50", "restart.replay_ms_p50")
	add("restart", host, "us", "segio.get_us_p50", "segio.put_us_p50", "segio.decode_us_p50")
	add("restart", exact, "bytes", "segio.bytes_per_segment")
	add("restart", exact, "count", "rtr.store_hits", "rtr.store_misses", "rtr.store_errors")

	add("", host, "count", "trace.spans")
	for _, d := range endToEnd {
		if d.name != "setup_s" && d.name != "live_heap_mb" {
			add("", host, d.unit, "trace."+d.name+"_delta")
		}
	}
	return ds
}

// quantile returns the q-quantile of xs by the nearest-rank rule, sorting
// xs in place. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs (the mean of the middle pair for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies collects per-operation latencies in µs, cut into slices of
// the window. The reported median is the mean of the slice medians: on a
// shared host that alternates between fast and slow periods it moves in
// proportion to the time spent in each, where the median of all samples
// jumps from one mode to the other.
type latencies struct {
	all     []float64
	cur     []float64
	medians []float64
}

// add records one operation; a failed one is recorded as +Inf, so it
// counts as missing any latency limit.
func (l *latencies) add(us float64) {
	l.all = append(l.all, us)
	l.cur = append(l.cur, us)
}

// cut ends the current slice.
func (l *latencies) cut() {
	if len(l.cur) > 0 {
		l.medians = append(l.medians, median(l.cur))
		l.cur = l.cur[:0]
	}
}

func (l *latencies) p50() float64 {
	l.cut()
	sum := 0.0
	for _, m := range l.medians {
		sum += m
	}
	return ratio(sum, float64(len(l.medians)))
}

// tail is the highest percentile up to the 99th with at least ten samples
// beyond it.
func (l *latencies) tail() float64 {
	q := 0.99
	if n := float64(len(l.all)); n < 1000 {
		q = 1 - 10/n
	}
	return quantile(l.all, q)
}

// fill sets the window's throughput and latency figures; busy is the time
// the operations took, in seconds.
func (l *latencies) fill(w *window, busy float64) {
	w.opsPerS = float64(w.attempted-w.failed) / busy
	w.p50us = l.p50()
	w.p99us = l.tail()
}
