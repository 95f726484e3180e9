package rtr

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

func testRuntime(cache CacheOptions, regions int) *Runtime {
	rs := make([]*tmpl.Region, regions)
	for i := range rs {
		rs[i] = &tmpl.Region{Name: fmt.Sprintf("r%d", i)}
	}
	return New(nil, rs, Options{Cache: cache})
}

// addCompleted plants a published (resident) entry through the real claim
// and publish tail, as a store adoption at the current generation would.
func addCompleted(rt *Runtime, region int, key string, seg *vm.Segment) *entry {
	e, gen, won := rt.claim(region, key)
	if !won {
		panic("addCompleted: key already claimed")
	}
	rt.publish(e, gen, seg, nil, nil)
	return e
}

// TestLookupAccountingInvariant pins the satellite fix: every lookup
// increments exactly one of hits, waits, failedHits or misses, so
// lookups == hits + waits + failedHits + misses at all times. The seed
// counted an in-flight or failed entry as a miss AND the follow-up stitch
// as a wait, double-counting the same dispatch.
func TestLookupAccountingInvariant(t *testing.T) {
	rt := testRuntime(CacheOptions{Shards: 1}, 1)
	seg := &vm.Segment{}

	// 1: true miss.
	if got := rt.lookupShared(0, "a"); got != nil {
		t.Fatal("lookup on empty cache returned a segment")
	}
	// 2: completed hit.
	addCompleted(rt, 0, "a", seg)
	if got := rt.lookupShared(0, "a"); got != seg {
		t.Fatal("completed entry not served")
	}
	// 3: in-flight entry counts as a wait, not a miss.
	shB := rt.shardFor(0, "b")
	shB.mu.Lock()
	shB.entries[cacheKey{0, "b"}] = &entry{key: cacheKey{0, "b"},
		done: make(chan struct{}), slot: -1}
	shB.mu.Unlock()
	if got := rt.lookupShared(0, "b"); got != nil {
		t.Fatal("in-flight entry must not be served")
	}
	// 4: completed-but-failed entry is a failedHit, not a miss.
	shC := rt.shardFor(0, "c")
	ec := &entry{key: cacheKey{0, "c"}, done: make(chan struct{}),
		err: errors.New("boom"), slot: -1}
	close(ec.done)
	shC.mu.Lock()
	shC.entries[cacheKey{0, "c"}] = ec
	shC.mu.Unlock()
	if got := rt.lookupShared(0, "c"); got != nil {
		t.Fatal("failed entry must not be served")
	}

	cs := rt.CacheStats()
	if cs.Lookups != 4 || cs.SharedHits != 1 || cs.Waits != 1 ||
		cs.FailedHits != 1 || cs.Misses != 1 {
		t.Errorf("counters: %+v, want 4 lookups = 1 hit + 1 wait + 1 failedHit + 1 miss", cs)
	}
	if cs.Lookups != cs.SharedHits+cs.Waits+cs.FailedHits+cs.Misses {
		t.Errorf("invariant violated: %+v", cs)
	}
}

// TestClockSecondChance checks the L1 CLOCK policy: an entry referenced
// since the hand last passed survives one sweep; unreferenced entries are
// evicted in hand order, and all resident accounting moves with them.
func TestClockSecondChance(t *testing.T) {
	rt := testRuntime(CacheOptions{Shards: 1, MaxEntries: 8}, 1)
	segA, segB, segC := &vm.Segment{}, &vm.Segment{}, &vm.Segment{}
	addCompleted(rt, 0, "a", segA)
	eb := addCompleted(rt, 0, "b", segB)
	addCompleted(rt, 0, "c", segC)
	if got := rt.resident.Load(); got != 3 {
		t.Fatalf("resident = %d, want 3", got)
	}

	// Touch b: its reference bit must buy it a second chance.
	if rt.lookupShared(0, "b") != segB {
		t.Fatal("lookup b")
	}
	if !eb.ref {
		t.Fatal("hit did not set the reference bit")
	}

	sh := &rt.shards[0]
	sh.mu.Lock()
	ok1 := sh.evictOneLocked(rt, -1)
	ok2 := sh.evictOneLocked(rt, -1)
	sh.mu.Unlock()
	if !ok1 || !ok2 {
		t.Fatal("evictions failed with non-empty ring")
	}
	if rt.lookupShared(0, "b") != segB {
		t.Error("referenced entry was evicted before unreferenced ones")
	}
	if rt.lookupShared(0, "a") != nil || rt.lookupShared(0, "c") != nil {
		t.Error("unreferenced entries should have been evicted")
	}
	cs := rt.CacheStats()
	if cs.Evictions != 2 || cs.EntriesResident != 1 {
		t.Errorf("stats after eviction: %+v", cs)
	}
}

// TestRegionFilteredEviction checks that per-region reclamation only takes
// entries of the requested region.
func TestRegionFilteredEviction(t *testing.T) {
	rt := testRuntime(CacheOptions{Shards: 1}, 2)
	addCompleted(rt, 0, "a", &vm.Segment{})
	addCompleted(rt, 1, "b", &vm.Segment{})
	sh := &rt.shards[0]
	sh.mu.Lock()
	ok := sh.evictOneLocked(rt, 1)
	sh.mu.Unlock()
	if !ok {
		t.Fatal("no eviction")
	}
	if rt.lookupShared(0, "a") == nil {
		t.Error("eviction filtered on region 1 took a region-0 entry")
	}
	if rt.regionResident[1].Load() != 0 || rt.regionResident[0].Load() != 1 {
		t.Errorf("per-region residents: r0=%d r1=%d",
			rt.regionResident[0].Load(), rt.regionResident[1].Load())
	}
}

// TestEvictLog checks the bounded restitch-detection log: recent evictions
// are remembered, removal forgets, and the ring wraps without growing.
func TestEvictLog(t *testing.T) {
	var l evictLog
	for i := 0; i < evictLogSize+50; i++ {
		l.add(cacheKey{region: 0, key: fmt.Sprintf("k%d", i)})
	}
	if len(l.keys) != evictLogSize {
		t.Fatalf("log grew to %d, cap %d", len(l.keys), evictLogSize)
	}
	if l.remove(cacheKey{0, "k0"}) {
		t.Error("oldest key should have been overwritten")
	}
	last := cacheKey{0, fmt.Sprintf("k%d", evictLogSize+49)}
	if !l.remove(last) {
		t.Error("recent key missing from log")
	}
	if l.remove(last) {
		t.Error("removed key still present")
	}
}

// TestL2SecondChanceCap checks the per-machine cache cap: the count never
// exceeds MachineMaxEntries, eviction is second-chance (a referenced slot
// outlives unreferenced older ones), and flushes keep the count honest.
func TestL2SecondChanceCap(t *testing.T) {
	rt := testRuntime(CacheOptions{MachineMaxEntries: 3}, 1)
	ms := newMachineState(rt)
	seg := &vm.Segment{}
	for i := 0; i < 10; i++ {
		ms.put(rt, 0, fmt.Sprintf("k%d", i), seg)
		if ms.count > 3 {
			t.Fatalf("L2 count %d exceeds cap 3 after insert %d", ms.count, i)
		}
		// Keep k-first hot: reference it whenever resident.
		if s, ok := ms.cache[0]["k0"]; ok {
			s.ref = true
		}
	}
	if _, ok := ms.cache[0]["k0"]; !ok {
		t.Error("referenced slot was evicted before unreferenced ones")
	}
	if got := len(ms.cache[0]); got != ms.count {
		t.Errorf("count %d disagrees with map size %d", ms.count, got)
	}
	if rt.l2Evictions.Load() == 0 {
		t.Error("no L2 evictions counted")
	}

	ms.flushRegion(0, 1)
	if ms.count != 0 || ms.cache[0] != nil {
		t.Errorf("flush left count=%d", ms.count)
	}
	// Stale FIFO refs from before the flush must not confuse later
	// eviction or break the cap.
	for i := 0; i < 6; i++ {
		ms.put(rt, 0, fmt.Sprintf("n%d", i), seg)
	}
	if ms.count > 3 {
		t.Errorf("count %d exceeds cap after flush+refill", ms.count)
	}
}

// TestL2FifoCompaction: repeated invalidation cycles must not grow the
// FIFO unboundedly even though every flush strands its queue entries.
func TestL2FifoCompaction(t *testing.T) {
	rt := testRuntime(CacheOptions{MachineMaxEntries: 4}, 1)
	ms := newMachineState(rt)
	seg := &vm.Segment{}
	for gen := uint64(1); gen <= 200; gen++ {
		for i := 0; i < 4; i++ {
			ms.put(rt, 0, fmt.Sprintf("g%dk%d", gen, i), seg)
		}
		ms.flushRegion(0, gen)
	}
	if len(ms.fifo) > 2*ms.count+64 {
		t.Errorf("fifo grew to %d refs for %d live slots", len(ms.fifo), ms.count)
	}
}

// TestKeepStitchedCap pins the satellite fix for diagnostic retention:
// set-based dedup (the seed scanned the slice per stitch) and a hard cap.
func TestKeepStitchedCap(t *testing.T) {
	rt := testRuntime(CacheOptions{KeepStitched: true, KeepStitchedCap: 3}, 1)
	segs := make([]*vm.Segment, 5)
	for i := range segs {
		segs[i] = &vm.Segment{}
		rt.keepStitched(0, segs[i])
		rt.keepStitched(0, segs[i]) // dedup: recording twice is a no-op
	}
	if got := len(rt.Stitched[0]); got != 3 {
		t.Errorf("retained %d segments, want cap 3", got)
	}
	for i, s := range rt.Stitched[0] {
		if s != segs[i] {
			t.Errorf("retention order broken at %d", i)
		}
	}
}

// TestInvalidateDropsResidents: Invalidate must empty the region's shared
// cache and bump its generation so machines flush their private copies.
func TestInvalidateDropsResidents(t *testing.T) {
	rt := testRuntime(CacheOptions{Shards: 4}, 2)
	for i := 0; i < 10; i++ {
		addCompleted(rt, 0, fmt.Sprintf("k%d", i), &vm.Segment{})
	}
	addCompleted(rt, 1, "other", &vm.Segment{})
	g := rt.Generation(0)
	rt.Invalidate(0)
	if rt.Generation(0) != g+1 {
		t.Error("generation not bumped")
	}
	if got := rt.regionResident[0].Load(); got != 0 {
		t.Errorf("region 0 still has %d resident entries", got)
	}
	if rt.lookupShared(1, "other") == nil {
		t.Error("invalidating region 0 dropped a region-1 entry")
	}
	if cs := rt.CacheStats(); cs.Invalidations != 1 || cs.Evictions != 0 {
		t.Errorf("invalidation must not count as eviction: %+v", cs)
	}
}

// TestInvalidateKeyTargets: InvalidateKey drops exactly one shared entry;
// the rest of the region stays resident for cheap re-adoption.
func TestInvalidateKeyTargets(t *testing.T) {
	rt := testRuntime(CacheOptions{Shards: 4}, 1)
	addCompleted(rt, 0, encodeKey([]int64{3}), &vm.Segment{})
	addCompleted(rt, 0, encodeKey([]int64{7}), &vm.Segment{})
	rt.InvalidateKey(0, 3)
	if rt.lookupShared(0, encodeKey([]int64{3})) != nil {
		t.Error("invalidated key still served")
	}
	if rt.lookupShared(0, encodeKey([]int64{7})) == nil {
		t.Error("untouched key was dropped")
	}
}

// TestAdmissionNeverExceedsCap publishes from every shard against small
// global and per-region entry caps. Checking a cap under one shard's lock
// and counting the entry later let two shards both take the last slot;
// admission claims the slot atomically, so no count may ever pass its cap,
// not even for an instant.
//
// The test sets the schedule in rounds. In each round every shard's
// publisher first publishes a burst at once, racing the others for slots
// and victims, and then the publishers take turns, one at a time. A
// publisher alone finds every sibling shard unlocked, and with a cap full
// some shard holds a victim, so each turn is admitted. The turns are half
// of all publishes, which fixes the admitted count's lower bound.
func TestAdmissionNeverExceedsCap(t *testing.T) {
	const shards, perShard, maxEntries, maxRegion = 8, 400, 4, 3
	const burst = 8
	rt := testRuntime(CacheOptions{Shards: shards, MaxEntries: maxEntries,
		MaxEntriesPerRegion: maxRegion}, 2)
	var admitted atomic.Int64
	// publish offers shard i's j-th entry and reports whether it was
	// admitted, or an error if a region count passed its cap.
	publish := func(i, j int) (bool, error) {
		sh := &rt.shards[i]
		ck := cacheKey{region: j % 2, key: fmt.Sprintf("s%d-%d", i, j)}
		e := &entry{key: ck, done: make(chan struct{}), seg: &vm.Segment{}, slot: -1}
		close(e.done)
		sh.mu.Lock()
		sh.entries[ck] = e
		ok := rt.admitLocked(sh, e)
		if ok {
			admitted.Add(1)
		} else {
			delete(sh.entries, ck)
		}
		sh.mu.Unlock()
		if n := rt.regionResident[ck.region].Load(); n > maxRegion {
			return ok, fmt.Errorf("region %d holds %d entries, cap %d", ck.region, n, maxRegion)
		}
		return ok, nil
	}
	for j := 0; j < perShard; j += 2 * burst {
		start := make(chan struct{})
		errs := make(chan error, shards)
		for i := 0; i < shards; i++ {
			go func(i int) {
				<-start
				for k := 0; k < burst; k++ {
					if _, err := publish(i, j+k); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(i)
		}
		close(start)
		for i := 0; i < shards; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		for k := burst; k < 2*burst; k++ {
			for i := 0; i < shards; i++ {
				ok, err := publish(i, j+k)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("shard %d entry %d declined with no publisher contending", i, j+k)
				}
			}
		}
	}
	if p := rt.peakEntries.Load(); p > maxEntries {
		t.Errorf("peak entries %d exceed cap %d", p, maxEntries)
	}
	if n := rt.resident.Load(); n > maxEntries {
		t.Errorf("resident entries %d exceed cap %d", n, maxEntries)
	}
	if admitted.Load() < shards*perShard/2 {
		t.Errorf("only %d of %d entries admitted", admitted.Load(), shards*perShard)
	}
}

// TestAdmissionDeclinesWhenVictimsLocked: a publisher whose region is at
// its cap, with the region's only victim in a locked sibling shard, must
// leave its entry uncached rather than wait. Two such publishers, each
// holding the shard with the other's victim, would otherwise wait forever.
func TestAdmissionDeclinesWhenVictimsLocked(t *testing.T) {
	rt := testRuntime(CacheOptions{Shards: 2, MaxEntriesPerRegion: 1}, 2)
	plant := func(sh *shard, region int, key string) *entry {
		ck := cacheKey{region: region, key: key}
		e := &entry{key: ck, done: make(chan struct{}), seg: &vm.Segment{}, slot: -1}
		close(e.done)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.entries[ck] = e
		if !rt.admitLocked(sh, e) {
			t.Fatalf("%v not admitted into an empty cache", ck)
		}
		return e
	}
	sh0, sh1 := &rt.shards[0], &rt.shards[1]
	plant(sh0, 1, "r1")
	plant(sh1, 0, "r0")

	e := &entry{key: cacheKey{region: 0, key: "new"}, done: make(chan struct{}), slot: -1}
	close(e.done)
	sh1.mu.Lock() // a sibling mid-publish holds region 0's only victim
	sh0.mu.Lock()
	if rt.admitLocked(sh0, e) {
		t.Error("admitted past region 0's cap while its victim was locked")
	}
	sh0.mu.Unlock()
	sh1.mu.Unlock()
	if n := rt.regionResident[0].Load(); n != 1 || rt.resident.Load() != 2 {
		t.Errorf("declined admission changed the counts: region 0 = %d, resident = %d",
			n, rt.resident.Load())
	}

	sh0.mu.Lock()
	ok := rt.admitLocked(sh0, e)
	sh0.mu.Unlock()
	if !ok {
		t.Fatal("not admitted once the victim's shard was free")
	}
	if n := rt.regionResident[0].Load(); n != 1 || sh1.evictions != 1 {
		t.Errorf("region 0 = %d entries, shard 1 evictions = %d; want 1 and 1", n, sh1.evictions)
	}
}
