GO ?= go

.PHONY: all check check-passes race fuzz bench-host table2

all: check

# Tier 1, in the order run below:
# - everything builds, gofmt and vet are clean, and the full suite passes
#   (including the stencil ablation in the pass sweep and the paper-output
#   golden, TestPaperGolden);
# - the cache/eviction/async-stitch machinery (rtr) and the vm and
#   stitcher packages run whole under the race detector: their pooled
#   scratch (fusion's and the stitcher's) is shared by concurrent stitch
#   workers and CompileBatch, and TestFuseConcurrent fuses from 8
#   goroutines against the reference pipeline;
# - the stencil/interpretive stitch differential, the persistent-store
#   round trip (compile -> persist -> a fresh runtime serves byte-identical
#   code from the store) and a short store differential sweep, raced;
# - a race-enabled Compile/CompileBatch stress run, with the dense-table
#   passes checked against their map-based references
#   (TestDenseMatchesReference, TestAllocateMatchesReference: those tables
#   are allocated per call, so CompileBatch workers share none of them),
#   and a fixed-seed batch sweep smoke;
# - a short race-enabled multi-tenant serving run (TestServeSmall);
# - the differential sweep's inline, merged, async and merged+async
#   subjects under the race detector (one publish tail serves the inline
#   winner, background workers and store adoption, so its fencing is
#   raced here);
# - the bounded-cache churn test (TestCacheChurnBounded) under the race
#   detector with two procs, so the shared cache's cap admission races
#   even on a one-vCPU box;
# - race-enabled automatic-promotion (annotation-stripped programs
#   promoting, guarding and deoptimizing) and call-boundary (inlined vs
#   ablated) sweep smokes against the reference;
# - short smoke runs of the differential and inline fuzzers over their
#   seed corpora plus fresh inputs;
# - the suite once more with ir.Verify forced between all compiler passes
#   (check-passes).
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

# Host-side interpreter benchmarks (ns of host time per modeled guest
# instruction), 5 samples each for benchstat. BenchmarkHostPerfNoFuse is
# the fusion ablation.
bench-host:
	$(GO) test -run '^$$' -bench HostPerf -count=5 .

# Longer differential-fuzz session against the unoptimized-IR reference
# interpreter (check already runs a 10s smoke).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime 5m ./internal/testgen

# Print the paper's tables and walk-throughs (pinned by
# cmd/dynbench/testdata/paper.golden).
table2:
	$(GO) run ./cmd/dynbench
