package rtr

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"dyncc/internal/stitcher"
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
	rt.publish(e, gen, seg, stitcher.Stats{}, false, nil)
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
	shB.inflight[cacheKey{0, "b"}] = &entry{key: cacheKey{0, "b"}}
	shB.mu.Unlock()
	if got := rt.lookupShared(0, "b"); got != nil {
		t.Fatal("in-flight entry must not be served")
	}
	// 4: completed-but-failed entry is a failedHit, not a miss.
	shC := rt.shardFor(0, "c")
	ec := &entry{key: cacheKey{0, "c"}, done: true, err: errors.New("boom")}
	shC.mu.Lock()
	shC.inflight[cacheKey{0, "c"}] = ec
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
	addCompleted(rt, 0, "b", segB)
	addCompleted(rt, 0, "c", segC)
	if got := rt.resident.Load(); got != 3 {
		t.Fatalf("resident = %d, want 3", got)
	}

	// Touch b: its reference bit must buy it a second chance.
	if rt.lookupShared(0, "b") != segB {
		t.Fatal("lookup b")
	}
	sh := &rt.shards[0]
	if !sh.resident.slots[slotOf(&sh.resident, cacheKey{0, "b"})].ref {
		t.Fatal("hit did not set the reference bit")
	}

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
	if l.removeKey(cacheKey{0, "k0"}) {
		t.Error("oldest key should have been overwritten")
	}
	last := cacheKey{0, fmt.Sprintf("k%d", evictLogSize+49)}
	if !l.removeKey(last) {
		t.Error("recent key missing from log")
	}
	if l.removeKey(last) {
		t.Error("removed key still present")
	}
}

// indexed counts the log's occupied index slots.
func (l *evictLog) indexed() int {
	n := 0
	for _, p := range l.index {
		if p != 0 {
			n++
		}
	}
	return n
}

// removeKey is remove with k's hash taken here.
func (l *evictLog) removeKey(k cacheKey) bool {
	return l.remove(k, keyHash(k.region, k.key))
}

// has reports whether k is logged, without removing it.
func (l *evictLog) has(k cacheKey) bool {
	_, p := l.find(k, keyHash(k.region, k.key))
	return p >= 0
}

// refEvictLog is the map-indexed evict log the open-addressed index
// replaced, kept as the oracle for TestEvictLogMatchesMap.
type refEvictLog struct {
	keys []cacheKey
	idx  map[cacheKey]int
	next int
}

func (l *refEvictLog) add(k cacheKey) {
	if l.idx == nil {
		l.idx = make(map[cacheKey]int, evictLogSize)
	}
	if _, ok := l.idx[k]; ok {
		return
	}
	if len(l.keys) < evictLogSize {
		l.idx[k] = len(l.keys)
		l.keys = append(l.keys, k)
		return
	}
	delete(l.idx, l.keys[l.next])
	l.keys[l.next] = k
	l.idx[k] = l.next
	l.next = (l.next + 1) % evictLogSize
}

func (l *refEvictLog) remove(k cacheKey) bool {
	i, ok := l.idx[k]
	if !ok {
		return false
	}
	delete(l.idx, k)
	last := len(l.keys) - 1
	if i != last {
		l.keys[i] = l.keys[last]
		l.idx[l.keys[i]] = i
	}
	l.keys = l.keys[:last]
	return true
}

// TestEvictLogMatchesMap drives the log and the map-indexed reference
// through the same random evictions and restitches: every remove must
// agree, and the ring must hold the same keys in the same order, so
// restitch detection is unchanged. Keys come from a pool a little larger
// than the window, so the ring wraps, removals hit and miss, and the
// index sees long probe runs and back-shifted deletions.
func TestEvictLogMatchesMap(t *testing.T) {
	var l evictLog
	var ref refEvictLog
	rng := rand.New(rand.NewSource(1))
	hits := 0
	for i := 0; i < 100000; i++ {
		k := cacheKey{region: rng.Intn(3) - 1, key: fmt.Sprintf("k%d", rng.Intn(3*evictLogSize/2))}
		if rng.Intn(2) == 0 {
			l.add(k)
			ref.add(k)
		} else {
			got, want := l.removeKey(k), ref.remove(k)
			if got != want {
				t.Fatalf("op %d: remove(%v) = %v, reference %v", i, k, got, want)
			}
			if got {
				hits++
			}
		}
		if l.next != ref.next || !slices.Equal(l.keys, ref.keys) {
			t.Fatalf("op %d: ring diverged from the reference", i)
		}
		if l.indexed() != len(l.keys) {
			t.Fatalf("op %d: %d indexed for %d keys", i, l.indexed(), len(l.keys))
		}
	}
	for _, k := range l.keys {
		if !l.has(k) {
			t.Fatalf("logged key %v unreachable from its home slot", k)
		}
	}
	if hits == 0 {
		t.Error("no remove hit: the comparison never exercised restitches")
	}
}

// TestEvictLogZeroAllocs: once the ring is full, logging an eviction and
// detecting a restitch do not allocate.
func TestEvictLogZeroAllocs(t *testing.T) {
	var l evictLog
	keys := make([]cacheKey, 2*evictLogSize)
	for i := range keys {
		keys[i] = cacheKey{region: 0, key: fmt.Sprintf("k%d", i)}
		l.add(keys[i])
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		l.add(keys[i%len(keys)])
		l.removeKey(keys[(i+7)%len(keys)])
		i++
	}); n != 0 {
		t.Errorf("evict log allocates %.1f objects per add+remove, want 0", n)
	}
}

// TestL2SecondChanceCap checks the per-machine cache cap: the count never
// exceeds MachineMaxEntries, eviction is second-chance (a referenced slot
// outlives unreferenced older ones), and flushes keep the count honest.
func TestL2SecondChanceCap(t *testing.T) {
	rt := testRuntime(CacheOptions{MachineMaxEntries: 3}, 1)
	ms := newMachineState(rt)
	seg := &vm.Segment{}
	k0 := cacheKey{0, "k0"}
	for i := 0; i < 10; i++ {
		ms.put(rt, 0, fmt.Sprintf("k%d", i), seg)
		if ms.l2.len() > 3 {
			t.Fatalf("L2 count %d exceeds cap 3 after insert %d", ms.l2.len(), i)
		}
		// Keep k-first hot: reference it whenever resident.
		ms.l2.get(k0)
	}
	if _, ok := ms.l2.peek(k0); !ok {
		t.Error("referenced slot was evicted before unreferenced ones")
	}
	if got := indexed(&ms.l2); got != ms.l2.len() {
		t.Errorf("count %d disagrees with map size %d", ms.l2.len(), got)
	}
	if rt.l2Evictions.Load() == 0 {
		t.Error("no L2 evictions counted")
	}

	ms.flushRegion(0, 1)
	if ms.l2.len() != 0 || indexed(&ms.l2) != 0 {
		t.Errorf("flush left count=%d", ms.l2.len())
	}
	// Keys cached before the flush must not confuse later eviction or
	// break the cap.
	for i := 0; i < 6; i++ {
		ms.put(rt, 0, fmt.Sprintf("n%d", i), seg)
	}
	if ms.l2.len() > 3 {
		t.Errorf("count %d exceeds cap after flush+refill", ms.l2.len())
	}
}

// TestL2FlushCycles: repeated invalidation cycles must leave no slot
// storage behind: every flush removes its region's slots, so after 200
// fill-evict-flush cycles the table holds exactly its live slots.
func TestL2FlushCycles(t *testing.T) {
	rt := testRuntime(CacheOptions{MachineMaxEntries: 4}, 2)
	ms := newMachineState(rt)
	seg := &vm.Segment{}
	for gen := uint64(1); gen <= 200; gen++ {
		for i := 0; i < 6; i++ {
			ms.put(rt, 0, fmt.Sprintf("g%dk%d", gen, i), seg)
		}
		ms.flushRegion(0, gen)
	}
	ms.put(rt, 1, "a", seg)
	ms.put(rt, 1, "b", seg)
	if n := ms.l2.len(); n != 2 || indexed(&ms.l2) != 2 {
		t.Errorf("table holds %d slots and %d index entries, want the 2 live slots",
			n, indexed(&ms.l2))
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
		e := &entry{key: ck, done: true, seg: &vm.Segment{}}
		sh.mu.Lock()
		ok := rt.admitLocked(sh, e)
		if ok {
			admitted.Add(1)
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
		e := &entry{key: ck, done: true, seg: &vm.Segment{}}
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if !rt.admitLocked(sh, e) {
			t.Fatalf("%v not admitted into an empty cache", ck)
		}
		return e
	}
	sh0, sh1 := &rt.shards[0], &rt.shards[1]
	plant(sh0, 1, "r1")
	plant(sh1, 0, "r0")

	e := &entry{key: cacheKey{region: 0, key: "new"}, done: true}
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

// indexed counts a table's index entries across regions.
func indexed[V any](c *clock[V]) int {
	n := 0
	for _, m := range c.idx {
		n += len(m)
	}
	return n
}
