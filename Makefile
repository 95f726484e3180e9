GO ?= go

.PHONY: all check check-passes race fuzz bench-host bench-stitch bench-restart table2

all: check

# Tier 1, in the order run below:
# - everything builds, gofmt and vet are clean, and the full suite passes
#   (including the pass-ablation sweep and the paper-output golden,
#   TestPaperGolden);
# - perfbench, its own Go module (so `go build ./...` skips it), vets and
#   passes its self-checks against the runtime API it reads (rtr.CacheStats);
# - the cache/eviction/async-stitch machinery (rtr) and the vm and
#   stitcher packages run whole under the race detector: their pooled
#   scratch (fusion's and the stitcher's) is shared by concurrent stitch
#   workers and CompileBatch, and TestFuseConcurrent fuses from 8
#   goroutines, through both entry points, against the reference
#   pipeline; these runs also pin the replaced code's references: the
#   dead-write sweep against the round loop
#   (TestDeadWriteSweepMatchesReference), stitched fusion and its plan
#   (TestFuseStitchedMatchesReference) and the evict log against its
#   map-indexed form (TestEvictLogMatchesMap);
# - rtr's shutdown tests (Close, WaitIdle, full queues, close drains,
#   backpressure) 20 more times under the race detector: one bounded work
#   queue type (workQueue, queue.go) serves both background pipelines,
#   async stitching and store publishing, differing only in what close
#   does with queued items (fail a stitch, execute a store op), so a
#   schedule-dependent failure of its push/close handshake shows up here;
# - the persistent-store round trip (compile -> persist -> a fresh
#   runtime serves byte-identical code from the store) and a short store
#   differential sweep, raced;
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
#   even on a one-vCPU box (its async run quiesces the stitch pool after
#   every call, so its hit-rate floor does not depend on worker speed);
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
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -timeout 120s ./internal/rtr
	$(GO) test -race -timeout 120s ./internal/vm ./internal/stitcher
	$(GO) test -race -count=20 -timeout 480s -run 'Close|WaitIdle|QueueFull|CloseDrains|Backpressure' ./internal/rtr
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

# Miss-path benchmarks, 5 samples each: a warm stitch of serving's median
# region shape (BenchmarkStitchServeShape), stitched and static fusion
# (BenchmarkFuse; the stitched case includes its exec plan) and exec-plan
# derivation (BenchmarkBuildPlan).
bench-stitch:
	$(GO) test -run '^$$' -bench 'StitchServeShape' -benchmem -count=5 ./internal/stitcher
	$(GO) test -run '^$$' -bench 'Fuse|BuildPlan' -benchmem -count=5 ./internal/vm

# Restart-path benchmarks, 5 samples each: the persistent store's region
# fingerprints, derived by rtr.New for a compile that configures a store
# (BenchmarkRegionFingerprint, one serving tenant of each flavor); the
# front end's streaming parse (BenchmarkParse); and a fresh tenant-sized
# machine (BenchmarkNewMachine).
bench-restart:
	$(GO) test -run '^$$' -bench 'RegionFingerprint' -benchmem -count=5 ./internal/rtr
	$(GO) test -run '^$$' -bench 'Parse' -benchmem -count=5 ./internal/parser
	$(GO) test -run '^$$' -bench 'NewMachine' -benchmem -count=5 ./internal/vm

# Longer differential-fuzz session against the unoptimized-IR reference
# interpreter (check already runs a 10s smoke).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime 5m ./internal/testgen

# Print the paper's tables and walk-throughs (pinned by
# cmd/dynbench/testdata/paper.golden).
table2:
	$(GO) run ./cmd/dynbench
