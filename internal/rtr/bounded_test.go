package rtr_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
)

// TestEvictionBoundedUnderRace is the eviction-correctness test: N
// machines hammer a keyed region whose key cardinality (64) exceeds
// MaxEntries (8), in both stitch modes. Results must stay correct
// throughout, the resident-entry count must never exceed the cap (Shards:1
// makes the bound strict), and the lookup-accounting invariant must hold
// under full concurrency.
//
// The machines race within a round; between rounds the test waits for
// every machine and then for the stitch pool to drain. That schedule fixes
// the re-stitch verdict. Machine 0 walks all 64 keys in every round, so
// by the end of round 1 each key has been stitched once. At the start of
// round 2 nothing is in flight, and at most 8 keys sit in the shared cache
// and 8 in machine 0's private one. Each of the other 48 or more keys gets
// a fresh stitch in round 2, whoever triggers it.
func TestEvictionBoundedUnderRace(t *testing.T) {
	const (
		machines = 4
		rounds   = 6
		keyCard  = 64
		cap      = 8
	)
	for _, async := range []bool{false, true} {
		name := "inline"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			c := compileKeyed(t, rtr.CacheOptions{
				Shards:            1,
				MaxEntries:        cap,
				MachineMaxEntries: cap,
				AsyncStitch:       async,
			})
			defer c.Runtime.Close()
			ms := c.NewMachines(machines)
			for r := 0; r < rounds; r++ {
				var wg sync.WaitGroup
				errs := make([]error, machines)
				for i, m := range ms {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						// Each machine walks the key space at its own stride
						// so the interleavings differ across goroutines.
						for n := 0; n < keyCard; n++ {
							s := int64((n*(i+1))%keyCard) + 1
							x := int64(r*keyCard + n + 1)
							got, err := m.Call("scale", s, x)
							if err != nil {
								errs[i] = err
								return
							}
							if got != s*x {
								errs[i] = fmt.Errorf("scale(%d,%d) = %d, want %d", s, x, got, s*x)
								return
							}
						}
					}(i)
				}
				wg.Wait()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("round %d, machine %d: %v", r, i, err)
					}
				}
				c.Runtime.WaitIdle()
			}

			cs := c.Runtime.CacheStats()
			if cs.PeakEntries > cap {
				t.Errorf("peak resident entries %d exceeds cap %d", cs.PeakEntries, cap)
			}
			if cs.EntriesResident > cap {
				t.Errorf("resident entries %d exceeds cap %d", cs.EntriesResident, cap)
			}
			if cs.Evictions == 0 {
				t.Error("no evictions despite key cardinality 8x the cap")
			}
			if cs.Stitches <= keyCard {
				t.Errorf("stitches %d: churn should force re-stitches beyond the %d keys",
					cs.Stitches, keyCard)
			}
			if cs.Lookups != cs.SharedHits+cs.Waits+cs.FailedHits+cs.Misses {
				t.Errorf("lookup accounting invariant violated: %+v", cs)
			}
			if async && cs.AsyncStitches != cs.Stitches {
				t.Errorf("async stitches %d != stitches %d: something compiled inline",
					cs.AsyncStitches, cs.Stitches)
			}
		})
	}
}

// TestRestitchByteIdentical: after an eviction, re-stitching the same key
// must produce byte-identical code — stitched shareable code is a pure
// function of its key, which is exactly why capacity eviction is safe.
func TestRestitchByteIdentical(t *testing.T) {
	c := compileKeyed(t, rtr.CacheOptions{
		Shards:            1,
		MaxEntries:        1,
		MachineMaxEntries: 1,
		KeepStitched:      true,
	})
	m := c.NewMachine(0)
	// Key 3 is stitched, evicted by key 5 (cap 1), then re-stitched.
	for _, call := range []struct{ s, x int64 }{{3, 10}, {5, 10}, {3, 11}} {
		got, err := m.Call("scale", call.s, call.x)
		if err != nil {
			t.Fatal(err)
		}
		if got != call.s*call.x {
			t.Fatalf("scale(%d,%d) = %d", call.s, call.x, got)
		}
	}
	segs := c.Runtime.Stitched[0]
	if len(segs) != 3 {
		t.Fatalf("retained %d segments, want 3 (stitch, evicting stitch, re-stitch)", len(segs))
	}
	first, again := segs[0], segs[2]
	if !reflect.DeepEqual(first.Code, again.Code) {
		t.Error("re-stitched code differs from the evicted segment")
	}
	if !reflect.DeepEqual(first.Consts, again.Consts) {
		t.Error("re-stitched constant pool differs from the evicted segment")
	}
	if !reflect.DeepEqual(first.JumpTables, again.JumpTables) {
		t.Error("re-stitched jump tables differ from the evicted segment")
	}
	cs := c.Runtime.CacheStats()
	if cs.Evictions < 2 {
		t.Errorf("evictions: %d, want >= 2", cs.Evictions)
	}
	if cs.Restitches == 0 {
		t.Error("re-stitch of a recently evicted key was not detected")
	}
}

// TestUnboundedDefaultUnchanged: with zero-value CacheOptions nothing is
// ever evicted — the pre-bounded behavior callers may rely on.
func TestUnboundedDefaultUnchanged(t *testing.T) {
	c := compileKeyed(t, rtr.CacheOptions{})
	m := c.NewMachine(0)
	const keys = 40
	for s := int64(1); s <= keys; s++ {
		if got, err := m.Call("scale", s, 2); err != nil || got != 2*s {
			t.Fatalf("scale(%d,2) = %d, %v", s, got, err)
		}
	}
	cs := c.Runtime.CacheStats()
	if cs.Evictions != 0 || cs.L2Evictions != 0 {
		t.Errorf("unbounded cache evicted: %+v", cs)
	}
	if cs.EntriesResident != keys || cs.PeakEntries != keys {
		t.Errorf("resident %d / peak %d, want %d", cs.EntriesResident, cs.PeakEntries, keys)
	}
	if cs.BytesResident == 0 {
		t.Error("BytesResident not accounted")
	}
}

// TestMaxCodeBytesBounds: the byte cap limits resident code size the same
// way MaxEntries limits the entry count.
func TestMaxCodeBytesBounds(t *testing.T) {
	probe := compileKeyed(t, rtr.CacheOptions{})
	pm := probe.NewMachine(0)
	if _, err := pm.Call("scale", 1, 1); err != nil {
		t.Fatal(err)
	}
	per := int64(probe.Runtime.CacheStats().BytesResident)
	if per == 0 {
		t.Fatal("probe segment reports zero footprint")
	}

	budget := 3 * per
	c := compileKeyed(t, rtr.CacheOptions{Shards: 1, MaxCodeBytes: budget})
	m := c.NewMachine(0)
	for s := int64(1); s <= 12; s++ {
		if got, err := m.Call("scale", s, 5); err != nil || got != 5*s {
			t.Fatalf("scale(%d,5) = %d, %v", s, got, err)
		}
	}
	cs := c.Runtime.CacheStats()
	if int64(cs.BytesResident) > budget {
		t.Errorf("resident bytes %d exceed cap %d", cs.BytesResident, budget)
	}
	if cs.Evictions == 0 {
		t.Error("byte cap forced no evictions")
	}
}

// TestInvalidateForcesRestitch exercises the semantic-invalidation API on
// a data-dependent (non-shareable) region: after the underlying data
// changes, Invalidate must flush the stale specialization so the next
// entry re-stitches against the new data.
func TestInvalidateForcesRestitch(t *testing.T) {
	c, err := core.Compile(pointerSrc, core.Config{Dynamic: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMachine(0)
	addr, _ := m.Alloc(1)
	m.Mem[addr] = 21
	if v, _ := m.Call("first", addr); v != 42 {
		t.Fatalf("first run: %d", v)
	}
	// The data changes, but the cached specialization still has 21 folded
	// in: without invalidation the stale answer persists.
	m.Mem[addr] = 50
	if v, _ := m.Call("first", addr); v != 42 {
		t.Fatalf("expected the stale specialization before Invalidate, got %d", v)
	}
	c.Runtime.Invalidate(0)
	v, err := m.Call("first", addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Errorf("after Invalidate: %d, want 100 (re-specialized on new data)", v)
	}
	if got := m.Region(0).Compiles; got != 2 {
		t.Errorf("compiles: %d, want 2", got)
	}
	if cs := c.Runtime.CacheStats(); cs.Invalidations != 1 {
		t.Errorf("invalidations: %d, want 1", cs.Invalidations)
	}
}

// TestInvalidateKeyRestitchesOnlyThatKey: after InvalidateKey, untouched
// keys re-adopt their still-resident shared entries without a compile;
// only the invalidated key pays a re-stitch.
func TestInvalidateKeyRestitchesOnlyThatKey(t *testing.T) {
	c := compileKeyed(t, rtr.CacheOptions{})
	m := c.NewMachine(0)
	for _, s := range []int64{3, 7} {
		if got, err := m.Call("scale", s, 4); err != nil || got != 4*s {
			t.Fatalf("scale(%d,4) = %d, %v", s, got, err)
		}
	}
	if got := m.Region(0).Compiles; got != 2 {
		t.Fatalf("compiles before invalidation: %d", got)
	}
	c.Runtime.InvalidateKey(0, 3)

	// Key 7 was not invalidated: its shared entry is still resident, so
	// the machine re-adopts it with no compile charged.
	if got, err := m.Call("scale", 7, 6); err != nil || got != 42 {
		t.Fatalf("scale(7,6) = %d, %v", got, err)
	}
	if got := m.Region(0).Compiles; got != 2 {
		t.Errorf("compiles after untouched-key call: %d, want 2 (re-adopted)", got)
	}
	// Key 3 was invalidated: it must re-stitch.
	if got, err := m.Call("scale", 3, 6); err != nil || got != 18 {
		t.Fatalf("scale(3,6) = %d, %v", got, err)
	}
	if got := m.Region(0).Compiles; got != 3 {
		t.Errorf("compiles after invalidated-key call: %d, want 3 (re-stitched)", got)
	}
}
