package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/testgen"
	"dyncc/internal/vm"
)

// A scaled-down multi-tenant serving run, inline and async: a fleet of
// generated tenant programs compiles byte-identically through CompileBatch
// and serially, then frontends serve Zipf traffic over tenants and over
// each tenant's keys with capped per-region caches. Every request
// succeeds, caches stay under their caps, and stitching happens (in the
// background pool or on the fallback tier when async). Run under -race by
// make check this also stresses the whole stack — concurrent batch
// compilation, then concurrent serving across frontends — in one pass.
func TestServeSmall(t *testing.T) {
	const frontends, cacheCap, workers = 3, 12, 4
	tenants, requests, keySpace := 30, 2400, 96
	if testing.Short() {
		tenants, requests, keySpace = 18, 1200, 64
	}
	srcs := make([]string, tenants)
	for i := range srcs {
		srcs[i] = testgen.Tenant(int64(i))
	}
	for _, async := range []bool{false, true} {
		cfg := core.Config{
			Dynamic: true, Optimize: true,
			Cache: rtr.CacheOptions{
				MaxEntries:        cacheCap,
				MachineMaxEntries: cacheCap,
				AsyncStitch:       async,
			},
		}
		serial := make([]string, tenants)
		for i, src := range srcs {
			c, err := core.Compile(src, cfg)
			if err != nil {
				t.Fatalf("async=%v: serial compile of tenant %d: %v", async, i, err)
			}
			serial[i] = testgen.Fingerprint(c)
			c.Runtime.Close()
		}
		bcfg := cfg
		bcfg.CompileWorkers = workers
		br, err := core.CompileBatch(srcs, bcfg)
		if err != nil {
			t.Fatalf("async=%v: batch compile: %v", async, err)
		}
		for i, c := range br.Programs {
			if testgen.Fingerprint(c) != serial[i] {
				t.Errorf("async=%v: tenant %d batch output diverges from serial compile", async, i)
			}
		}

		// One machine per (tenant, frontend), made on first use, holding
		// the tenant's six-word data table.
		type slot struct {
			m  *vm.Machine
			va int64
		}
		slots := make([][]slot, frontends)
		for f := range slots {
			slots[f] = make([]slot, tenants)
		}
		errs := make([]error, frontends)
		var wg sync.WaitGroup
		for f := 0; f < frontends; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(f)*7919 + 13))
				tz := rand.NewZipf(rng, 1.3, 1, uint64(tenants-1))
				kz := rand.NewZipf(rng, 1.3, 1, uint64(keySpace-1))
				for n := 0; n < requests/frontends; n++ {
					ti := tz.Uint64()
					s := &slots[f][ti]
					if s.m == nil {
						s.m = br.Programs[ti].NewMachine(1 << 16)
						va, err := s.m.Alloc(6)
						if err != nil {
							errs[f] = err
							return
						}
						r := rand.New(rand.NewSource(int64(ti)*2654435761 + 97))
						for j := int64(0); j < 6; j++ {
							s.m.Mem[va+j] = int64(r.Intn(200) - 100)
						}
						s.va = va
					}
					k, x := int64(kz.Uint64()), int64(n&1023)+1
					if _, err := s.m.Call(testgen.TenantEntry, s.va, 6, k, x); err != nil {
						errs[f] = fmt.Errorf("tenant %d k=%d x=%d: %w", ti, k, x, err)
						return
					}
				}
			}(f)
		}
		wg.Wait()
		for f, err := range errs {
			if err != nil {
				t.Fatalf("async=%v: frontend %d: %v", async, f, err)
			}
		}

		var total rtr.CacheStats
		for i, c := range br.Programs {
			c.Runtime.WaitIdle()
			cs := c.Runtime.CacheStats()
			if cs.PeakEntries > cacheCap {
				t.Errorf("async=%v: tenant %d peak entries %d exceed cap %d", async, i, cs.PeakEntries, cacheCap)
			}
			total.Stitches += cs.Stitches
			total.AsyncStitches += cs.AsyncStitches
			total.FallbackRuns += cs.FallbackRuns
			c.Runtime.Close()
		}
		t.Logf("async=%v: %d stitches, %d async stitches, %d fallback runs",
			async, total.Stitches, total.AsyncStitches, total.FallbackRuns)
		if total.Stitches == 0 {
			t.Errorf("async=%v: no stitches recorded", async)
		}
		if async && total.AsyncStitches == 0 && total.FallbackRuns == 0 {
			t.Error("async serve recorded no async stitches or fallback runs")
		}
	}
}
