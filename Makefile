GO ?= go

.PHONY: all check check-passes race fuzz bench bench-host bench-cache bench-async bench-compile bench-stitch bench-serve bench-cold bench-auto bench-inline table2 clean

all: check

# Tier 1: everything builds, gofmt and vet are clean, the full suite
# passes (including the stencil ablation in the pass sweep), the
# cache/eviction/async-stitch machinery and the stencil/interpretive
# stitch differential pass under the race detector (fast enough for every
# check run; `race` still covers the whole tree), batch compilation gets a
# race-enabled Compile/CompileBatch stress run (with the dense-table
# passes checked against their map-based references, TestDenseMatchesReference
# and TestAllocateMatchesReference: those tables are allocated per call, so
# CompileBatch workers share none of them), a fixed-seed differential
# sweep smoke and a short race-enabled serving run, the differential sweep's
# inline, merged, async and merged+async subjects under the race detector
# (one publish tail serves the inline winner, background workers and store
# adoption, so its fencing is raced here), the bounded-cache churn
# test under the race detector with two procs (so the shared cache's cap
# admission races even on a one-vCPU box), a race-enabled
# automatic-promotion sweep smoke (annotation-stripped programs promoting,
# guarding and deoptimizing against the reference), a race-enabled
# call-boundary sweep smoke (call-bearing programs, inlined vs ablated,
# against the never-inlining reference), the differential and inline
# fuzzers get short smoke runs over their seed corpora plus fresh inputs,
# and the
# suite runs once more with ir.Verify forced between all compiler passes
# (check-passes), and the persistent-store round trip (compile → persist →
# fresh runtime serves byte-identical code from the store) runs under the
# race detector alongside a short store differential sweep. The vm and
# stitcher packages run whole under the race detector too: their pooled
# scratch (fusion's and the stitcher's) is shared by concurrent stitch
# workers and CompileBatch, and TestFuseConcurrent fuses from 8 goroutines
# against the reference pipeline.
check:
	$(GO) build ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race -timeout 120s ./internal/rtr
	$(GO) test -race -timeout 120s ./internal/vm ./internal/stitcher
	$(GO) test -race -short -timeout 120s -run 'TestStencil' ./internal/testgen
	$(GO) test -race -timeout 120s -run 'TestPersistentStoreRoundTrip' .
	$(GO) test -race -short -timeout 120s -run 'TestStoreFixedSeeds' ./internal/testgen
	$(GO) test -race -short -timeout 180s -run 'TestCompileBatch|TestCompileRaceBatchVsSerial|TestDenseMatchesReference|TestAllocateMatchesReference' ./internal/core ./internal/ir ./internal/regalloc
	$(GO) test -short -timeout 120s -run 'TestBatchSweepFixedSeeds' ./internal/testgen
	$(GO) test -race -short -timeout 180s -run 'TestServeSmall' ./internal/bench
	$(GO) test -race -short -timeout 180s -run 'TestDifferentialFixedSeeds' ./internal/testgen
	GOMAXPROCS=2 $(GO) test -race -count=3 -run TestCacheChurnBounded ./internal/bench
	$(GO) test -race -short -timeout 180s -run 'TestAutoFixedSeeds' ./internal/testgen
	$(GO) test -race -short -timeout 180s -run 'TestInlineFixedSeeds' ./internal/testgen
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime 10s ./internal/testgen
	$(GO) test -run '^$$' -fuzz FuzzInline -fuzztime 10s ./internal/testgen
	$(MAKE) check-passes

# Pipeline hardening: the whole suite with ir.Verify interposed after
# every pass (not just the module-mutating ones), so a pass that corrupts
# the IR is caught at the pass boundary, not three stages later.
check-passes:
	DYNCC_VERIFY_ALL=1 $(GO) test ./...

# Tier 2: static analysis plus the race-enabled suite (exercises the
# concurrent stitch cache under the race detector).
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Machine-readable benchmark results: Table 2 plus the parallel-machines
# sweep, written to BENCH_1.json.
bench:
	$(GO) run ./cmd/dynbench -parallel 8 -json BENCH_1.json

# Host-side interpreter benchmarks (ns of host time per modeled guest
# instruction), 5 samples each for benchstat. BenchmarkHostPerfNoFuse is
# the fusion ablation.
bench-host:
	$(GO) test -run '^$$' -bench HostPerf -count=5 .

# Bounded-cache churn under a Zipf key stream: benchstat-ready samples
# (pipe into benchstat old.txt new.txt) plus the machine-readable report.
bench-cache:
	$(GO) test -run '^$$' -bench CacheChurn -count=5 ./internal/bench
	$(GO) run ./cmd/dynbench -cachechurn -json BENCH_3.json

# Longer differential-fuzz session against the unoptimized-IR reference
# interpreter (check already runs a 10s smoke).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime 5m ./internal/testgen

# Cold-burst latency: inline vs background stitching, written to
# BENCH_4.json (the tiered-execution result).
bench-async:
	$(GO) run ./cmd/dynbench -asyncstitch -json BENCH_4.json

# Static compile latency per pipeline pass over the example corpus,
# written to BENCH_5.json.
bench-compile:
	$(GO) run ./cmd/dynbench -compiletime -json BENCH_5.json

# Stitcher emission paths: Go benchmarks (stencil vs interpretive, full and
# dry stitches) plus the machine-readable comparison in BENCH_6.json.
bench-stitch:
	$(GO) test -run '^$$' -bench Stitch -count=5 ./internal/stitcher
	$(GO) run ./cmd/dynbench -stitchperf -json BENCH_6.json

# Multi-tenant serving: the tenant fleet batch-compiled through
# CompileBatch (timed against serial compilation, byte-identity checked)
# and served under Zipf traffic, written to BENCH_7.json.
bench-serve:
	$(GO) run ./cmd/dynbench -serve -json BENCH_7.json

# Restart-to-warm against the persistent (level-0) code cache: populated
# vs empty on-disk store across working-set sizes, written to BENCH_8.json.
bench-cold:
	$(GO) run ./cmd/dynbench -coldstart -json BENCH_8.json

# Automatic region promotion: the annotation-stripped kernel under
# speculative promotion vs the static baseline vs the hand-annotated
# region, on a phased-key workload, written to BENCH_9.json.
bench-auto:
	$(GO) run ./cmd/dynbench -autoregion -json BENCH_9.json

# Demand-driven inlining: the helper-heavy keyed region inlined vs ablated
# (`-disable-pass inline`), plus the annotation-stripped subject promoting
# through its calls, written to BENCH_10.json.
bench-inline:
	$(GO) run ./cmd/dynbench -inline -json BENCH_10.json

# Regenerate the paper's tables on stdout.
table2:
	$(GO) run ./cmd/dynbench

clean:
	rm -f BENCH_1.json
