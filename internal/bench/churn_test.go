package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
)

// churnSrc is a high-cardinality keyed kernel with a cheap specialization
// (one multiply folded per key), so the workload stresses the cache
// machinery — eviction, generation checks, re-stitch — rather than the
// stitcher itself.
const churnSrc = `
int scale(int s, int x) {
    int r;
    dynamicRegion key(s) () {
        r = x * s;
    }
    return r;
}`

// churnHotKeys is the Zipf head: the ranks whose hit rate measures
// eviction quality.
const churnHotKeys = 32

// churnRun drives `machines` machines, one goroutine each, over a Zipf
// (s=1.3) stream of keySpace distinct keys with both cache levels capped at
// maxEntries. The streams are seeded per machine. It returns the cache
// statistics, the per-region churn and the hot-set hit rate: the fraction
// of calls to the top churnHotKeys ranks that needed no stitch anywhere.
//
// Under async each machine quiesces the stitch pool after every call, so
// every stitch a call scheduled is published before that machine's next
// call. The hit rate then measures what the caches keep resident, not how
// far the background workers keep up with the machines.
func churnRun(t *testing.T, machines, uses, keySpace, maxEntries int, async bool) (rtr.CacheStats, []rtr.RegionChurn, float64) {
	t.Helper()
	c, err := core.Compile(churnSrc, core.Config{
		Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{
			MaxEntries:        maxEntries,
			MachineMaxEntries: maxEntries,
			ChurnStats:        true,
			AsyncStitch:       async,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Runtime.Close()
	ms := c.NewMachines(machines)
	// Prime the head, and under async drain the pool so it is published:
	// the measured phase then shows whether the cache keeps the hot set
	// resident under tail churn, not how fast a cold head promotes.
	for k := int64(1); k <= churnHotKeys; k++ {
		if _, err := ms[0].Call("scale", k, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.Runtime.WaitIdle()
	errs := make([]error, machines)
	hotCalls := make([]int, machines)
	hotHits := make([]int, machines)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := ms[i]
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(i)*7919+1)), 1.3, 1, uint64(keySpace-1))
			for n := 0; n < uses; n++ {
				rank := zipf.Uint64()
				k, x := int64(rank)+1, int64(n%1000)+1
				before := *m.Region(0)
				got, err := m.Call("scale", k, x)
				if err == nil && got != k*x {
					err = fmt.Errorf("scale(%d,%d) = %d, want %d", k, x, got, k*x)
				}
				if err != nil {
					errs[i] = err
					return
				}
				if async {
					c.Runtime.WaitIdle()
				}
				if rank >= churnHotKeys {
					continue
				}
				hotCalls[i]++
				// Inline, a hit is a call that charged this machine no
				// compile: warm dispatch, shared-cache adoption and
				// singleflight waits all count. Async, machines never
				// compile; a miss runs set-up before the fallback tier
				// and a hit runs none.
				after := m.Region(0)
				hit := after.Compiles == before.Compiles
				if async {
					hit = after.SetupCycles == before.SetupCycles
				}
				if hit {
					hotHits[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Runtime.WaitIdle()
	calls, hits := 0, 0
	for i := range hotCalls {
		calls += hotCalls[i]
		hits += hotHits[i]
	}
	if calls == 0 {
		t.Fatal("the key stream never drew a hot key")
	}
	return c.Runtime.CacheStats(), c.Runtime.Churn(), float64(hits) / float64(calls)
}

// TestCacheChurnBounded runs a churn workload in both stitch modes and
// checks the acceptance properties of the bounded cache: the cap holds at
// peak, the Zipf head stays hot despite tail churn, and the tail actually
// churns. The async variant additionally requires that stitching really
// moved to the background pool (machines never compile) and that cold
// calls ran on the fallback tier.
func TestCacheChurnBounded(t *testing.T) {
	const cap = 64
	for _, async := range []bool{false, true} {
		name := "inline"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			cs, churn, hotHitRate := churnRun(t, 2, 4000, 1024, cap, async)
			t.Logf("%d stitches, %d evictions, %d re-stitches, peak %d entries, hot-set hit rate %.3f",
				cs.Stitches, cs.Evictions, cs.Restitches, cs.PeakEntries, hotHitRate)
			if cs.PeakEntries > cap {
				t.Errorf("peak entries %d exceed cap %d", cs.PeakEntries, cap)
			}
			if cs.EntriesResident > cap {
				t.Errorf("resident entries %d exceed cap %d", cs.EntriesResident, cap)
			}
			if cs.Evictions == 0 {
				t.Error("no evictions despite key space 16x the cap")
			}
			// Eviction quality: a hot key evicted from both caches is
			// re-stitched on its very next miss (published before the
			// machine's next call under async too; see churnRun), so the
			// head stays ~99% hot. A thrashing cache would sit near zero.
			const minRate = 0.9
			if hotHitRate < minRate {
				t.Errorf("hot-set hit rate %.3f < %.2f: eviction is thrashing the head",
					hotHitRate, minRate)
			}
			if cs.Stitches <= uint64(cap) {
				t.Errorf("stitches %d: the tail should churn well past the cap", cs.Stitches)
			}
			if len(churn) == 0 || churn[0].Stitches != cs.Stitches {
				t.Errorf("per-region churn not collected: %+v", churn)
			}
			if async {
				if cs.AsyncStitches != cs.Stitches {
					t.Errorf("async stitches %d != stitches %d: something compiled inline",
						cs.AsyncStitches, cs.Stitches)
				}
				if cs.FallbackRuns == 0 {
					t.Error("no fallback-tier executions in async mode")
				}
			} else if cs.AsyncStitches != 0 || cs.FallbackRuns != 0 {
				t.Errorf("async counters moved in inline mode: %+v", cs)
			}
		})
	}
}
