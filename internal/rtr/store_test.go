package rtr

import (
	"fmt"
	"testing"

	"dyncc/internal/segio"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// storeTestRuntime builds a runtime with a MemStore-backed level-0 tier
// and enough program scaffolding (one parent segment per region) for the
// digest fingerprint and parent relinking to work.
func storeTestRuntime(store segio.Store, regions int) *Runtime {
	parent := &vm.Segment{Name: "f", Code: []vm.Inst{{Op: vm.RET}}}
	prog := &vm.Program{Segs: []*vm.Segment{parent}}
	rs := make([]*tmpl.Region, regions)
	for i := range rs {
		rs[i] = &tmpl.Region{Name: fmt.Sprintf("r%d", i), FuncID: 0,
			KeyRegs: []vm.Reg{1}, Shareable: true}
	}
	return New(prog, rs, Options{Cache: CacheOptions{Store: store}})
}

// storedSeg is a minimal but non-trivial segment to persist.
func storedSeg() *vm.Segment {
	return &vm.Segment{
		Name: "r0.stitched", Region: 0, Stitched: true,
		Code:   []vm.Inst{{Op: vm.LI, Rd: 2, Imm: 42}, {Op: vm.RET, Rs: 2}},
		Consts: []int64{7},
	}
}

// plant persists seg in rt's store under (region, gen, key), the way the
// background publisher would.
func plant(t *testing.T, rt *Runtime, region int, gen uint64, key string, seg *vm.Segment) segio.Digest {
	t.Helper()
	d := rt.storeDigest(region, gen, key)
	if err := rt.Opts.Cache.Store.Put(d, segio.Encode(seg)); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStoreLoadHitMissError(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	// Miss on an empty store.
	if seg := rt.storeLoad(0, 0, "k"); seg != nil {
		t.Fatal("load from empty store returned a segment")
	}
	// Hit after planting; the parent must be relinked to this runtime's
	// program and the bytes identical to what was persisted.
	want := storedSeg()
	plant(t, rt, 0, 0, "k", want)
	got := rt.storeLoad(0, 0, "k")
	if got == nil {
		t.Fatal("planted segment not served")
	}
	if got.Parent != rt.Prog.Segs[0] {
		t.Error("loaded segment's parent not relinked")
	}
	if string(segio.Encode(got)) != string(segio.Encode(want)) {
		t.Error("loaded segment is not byte-identical to the persisted one")
	}
	// Corrupt blob: an error, and the entry is deleted so it cannot keep
	// failing.
	d := rt.storeDigest(0, 0, "bad")
	if err := store.Put(d, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if seg := rt.storeLoad(0, 0, "bad"); seg != nil {
		t.Fatal("corrupt blob decoded")
	}
	rt.WaitIdle()
	if data, _ := store.Get(d); data != nil {
		t.Error("corrupt store entry was not deleted")
	}

	cs := rt.CacheStats()
	if cs.StoreHits != 1 || cs.StoreMisses != 1 || cs.StoreErrors != 1 {
		t.Errorf("store counters: hits=%d misses=%d errors=%d, want 1/1/1",
			cs.StoreHits, cs.StoreMisses, cs.StoreErrors)
	}
	if cs.StoreHits+cs.StoreMisses+cs.StoreErrors != 3 {
		t.Errorf("3 consults must classify exactly once each: %+v", cs)
	}
}

func TestStorePutRoundTrip(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	seg := storedSeg()
	rt.storePut(0, 0, "k", seg)
	rt.WaitIdle()
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", store.Len())
	}
	got := rt.storeLoad(0, 0, "k")
	if got == nil || string(segio.Encode(got)) != string(segio.Encode(seg)) {
		t.Fatal("published segment does not round-trip byte-identically")
	}
	if cs := rt.CacheStats(); cs.StorePuts != 1 {
		t.Errorf("StorePuts = %d, want 1", cs.StorePuts)
	}
}

// TestStoreGenerationOrphans pins the invalidation contract: the digest
// includes the generation, so a bump makes every persisted digest of the
// old generation unreachable — never served, never resurrected.
func TestStoreGenerationOrphans(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	plant(t, rt, 0, 0, "k", storedSeg())
	rt.gens[0].Add(1)
	if seg := rt.storeLoad(0, rt.gens[0].Load(), "k"); seg != nil {
		t.Fatal("old-generation blob served after a generation bump")
	}
	if cs := rt.CacheStats(); cs.StoreMisses != 1 {
		t.Errorf("StoreMisses = %d, want 1", cs.StoreMisses)
	}
}

// TestInvalidateKeyDeletesPersisted: generation orphaning is process-local
// (counters restart at zero), so InvalidateKey must also delete the
// persisted digest of the invalidated specialization.
func TestInvalidateKeyDeletesPersisted(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	key := encodeKey([]int64{3})
	d := plant(t, rt, 0, 0, key, storedSeg())
	addCompleted(rt, 0, key, storedSeg())

	rt.InvalidateKey(0, 3)
	rt.WaitIdle()
	if data, _ := store.Get(d); data != nil {
		t.Fatal("invalidated key's persisted blob survived")
	}
}

// TestInvalidateDeletesResidentDigests: a region-wide Invalidate deletes
// the persisted digests of every resident entry it sweeps.
func TestInvalidateDeletesResidentDigests(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 2)
	defer rt.Close()

	var dropped []segio.Digest
	for i := 0; i < 4; i++ {
		key := encodeKey([]int64{int64(i)})
		dropped = append(dropped, plant(t, rt, 0, 0, key, storedSeg()))
		addCompleted(rt, 0, key, storedSeg())
	}
	keep := plant(t, rt, 1, 0, "other", storedSeg())
	addCompleted(rt, 1, "other", storedSeg())

	rt.Invalidate(0)
	rt.WaitIdle()
	for i, d := range dropped {
		if data, _ := store.Get(d); data != nil {
			t.Errorf("region-0 blob %d survived Invalidate", i)
		}
	}
	if data, _ := store.Get(keep); data == nil {
		t.Error("Invalidate(0) deleted a region-1 blob")
	}
}

// TestPublishAdoption: publishing a store-loaded segment (nil stats)
// makes it resident under the singleflight entry with generation fencing,
// counts no stitch and puts nothing back, and the adopted segment is then
// served by ordinary lookups.
func TestPublishAdoption(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	seg := storedSeg()
	e, gen, won := rt.claim(0, "k")
	if !won {
		t.Fatal("claim on an empty cache lost")
	}
	if !rt.publish(e, gen, seg, nil, nil) {
		t.Fatal("adoption declined with a live generation")
	}
	if rt.lookupShared(0, "k") != seg {
		t.Fatal("adopted segment not served by lookup")
	}
	if got := rt.regionResident[0].Load(); got != 1 {
		t.Errorf("regionResident = %d, want 1", got)
	}
	rt.WaitIdle()
	// No stitch happened: the Stitches counter must not move, and nothing
	// is persisted back.
	if cs := rt.CacheStats(); cs.Stitches != 0 || cs.StencilStitches != 0 || cs.StorePuts != 0 {
		t.Errorf("adoption counted as a stitch: %+v", cs)
	}
	if store.Len() != 0 {
		t.Errorf("adoption put %d blobs back", store.Len())
	}

	// Invalidated mid-load: the segment is still returned to this
	// attempt's waiters but never retained.
	e2, gen2, _ := rt.claim(0, "k2")
	rt.gens[0].Add(1)
	if rt.publish(e2, gen2, storedSeg(), nil, nil) {
		t.Fatal("stale-generation adoption was retained")
	}
	<-e2.done
	if e2.seg == nil || e2.err != nil {
		t.Fatal("waiters of the stale attempt got no segment")
	}
	if rt.lookupShared(0, "k2") != nil {
		t.Fatal("stale-generation segment served")
	}
}

// TestInvalidateKeyAfterSiblingDeletesPersisted: InvalidateKey's sibling
// sweep refreshes the generation of every key it spares, but their blobs
// stay persisted under the old one. A later InvalidateKey of such a key
// must delete the blob it was persisted under, or a restarted process,
// whose generation counter is back at 0, serves an invalidated
// specialization.
func TestInvalidateKeyAfterSiblingDeletesPersisted(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	k1, k2 := encodeKey([]int64{1}), encodeKey([]int64{2})
	d1 := plant(t, rt, 0, 0, k1, storedSeg())
	d2 := plant(t, rt, 0, 0, k2, storedSeg())
	addCompleted(rt, 0, k1, storedSeg())
	addCompleted(rt, 0, k2, storedSeg())

	rt.InvalidateKey(0, 2)
	rt.InvalidateKey(0, 1)
	rt.WaitIdle()
	if data, _ := store.Get(d2); data != nil {
		t.Error("first invalidated key's blob survived")
	}
	if data, _ := store.Get(d1); data != nil {
		t.Error("key invalidated after a sibling invalidation kept its gen-0 blob")
	}
}

// TestInvalidateAfterSiblingDeletesPersisted: the same for a region-wide
// Invalidate after a sibling InvalidateKey.
func TestInvalidateAfterSiblingDeletesPersisted(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	k1, k2 := encodeKey([]int64{1}), encodeKey([]int64{2})
	d1 := plant(t, rt, 0, 0, k1, storedSeg())
	plant(t, rt, 0, 0, k2, storedSeg())
	addCompleted(rt, 0, k1, storedSeg())
	addCompleted(rt, 0, k2, storedSeg())

	rt.InvalidateKey(0, 2)
	rt.Invalidate(0)
	rt.WaitIdle()
	if data, _ := store.Get(d1); data != nil {
		t.Error("Invalidate after a sibling invalidation kept a gen-0 blob")
	}
}

// TestStoreQueueFullDrops: a full publish queue drops the operation and
// counts a StoreError instead of blocking the stitch path.
func TestStoreQueueFullDrops(t *testing.T) {
	rt := storeTestRuntime(segio.NewMemStore(), 1)
	defer rt.Close()
	// Burn the once so the publisher goroutine never starts draining, then
	// overfill the queue.
	rt.storeOnce.Do(func() {})
	qcap := cap(rt.storeOps)
	for i := 0; i <= qcap; i++ {
		rt.storePut(0, 0, fmt.Sprintf("k%d", i), storedSeg())
	}
	if cs := rt.CacheStats(); cs.StoreErrors != 1 {
		t.Errorf("StoreErrors = %d, want 1 dropped op", cs.StoreErrors)
	}
}

// TestStoreCloseDrains: Close executes the still-queued puts (a clean
// shutdown persists everything accepted) and leaves no in-flight count.
func TestStoreCloseDrains(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	rt.storeOnce.Do(func() {}) // publisher never runs; Close must drain
	for i := 0; i < 5; i++ {
		rt.storePut(0, 0, fmt.Sprintf("k%d", i), storedSeg())
	}
	rt.Close()
	if store.Len() != 5 {
		t.Fatalf("store holds %d entries after Close, want 5", store.Len())
	}
	if n := rt.storeInflight.Load(); n != 0 {
		t.Errorf("storeInflight = %d after Close", n)
	}
	// Post-close operations are silently ignored, never enqueued.
	rt.storePut(0, 0, "late", storedSeg())
	if store.Len() != 5 {
		t.Error("post-Close put landed")
	}
	rt.Close() // idempotent
}

// TestFingerprintSensitivity: the digest must change with anything the
// stitched output could depend on — and nothing else.
func TestFingerprintSensitivity(t *testing.T) {
	store := segio.NewMemStore()
	a := storeTestRuntime(store, 1)
	defer a.Close()
	b := storeTestRuntime(store, 1)
	defer b.Close()
	if a.storeDigest(0, 0, "k") != b.storeDigest(0, 0, "k") {
		t.Fatal("identical runtimes derive different digests (no sharing possible)")
	}
	if a.storeDigest(0, 0, "k") == a.storeDigest(0, 0, "j") {
		t.Error("digest ignores the key")
	}
	if a.storeDigest(0, 0, "k") == a.storeDigest(0, 1, "k") {
		t.Error("digest ignores the generation")
	}
	c := storeTestRuntime(store, 1)
	defer c.Close()
	c.Opts.Stitcher.NoFuse = true
	if a.storeDigest(0, 0, "k") == c.storeDigest(0, 0, "k") {
		t.Error("digest ignores the stitcher options")
	}
	d := storeTestRuntime(store, 1)
	defer d.Close()
	d.Regions[0].TableSize = 99
	if a.storeDigest(0, 0, "k") == d.storeDigest(0, 0, "k") {
		t.Error("digest ignores the region templates")
	}
}

// TestEvictLogWindowAtCapacity is the regression test for the satellite
// fix: interleaved evict/restitch churn must keep the log's effective
// window at evictLogSize. The buggy remove left permanent dead holes
// (region -1 slots) that counted against the capacity, so every
// remove shrank the live window for the rest of the shard's life.
func TestEvictLogWindowAtCapacity(t *testing.T) {
	var l evictLog
	key := func(i int) cacheKey { return cacheKey{region: 0, key: fmt.Sprintf("k%d", i)} }

	for i := 0; i < evictLogSize; i++ {
		l.add(key(i))
	}
	// Restitch half the window (every other key)...
	for i := 0; i < evictLogSize; i += 2 {
		if !l.remove(key(i)) {
			t.Fatalf("key %d missing from full log", i)
		}
	}
	// ...then evict that many fresh keys again.
	for i := 0; i < evictLogSize/2; i++ {
		l.add(cacheKey{region: 0, key: fmt.Sprintf("fresh%d", i)})
	}

	if len(l.keys) != evictLogSize || len(l.idx) != evictLogSize {
		t.Fatalf("window = %d keys / %d indexed, want %d (dead holes?)",
			len(l.keys), len(l.idx), evictLogSize)
	}
	// Every surviving original and every fresh key must still be detected
	// as a restitch — nothing live was displaced by a hole.
	for i := 1; i < evictLogSize; i += 2 {
		if _, ok := l.idx[key(i)]; !ok {
			t.Fatalf("surviving key %d fell out of the window", i)
		}
	}
	for i := 0; i < evictLogSize/2; i++ {
		if _, ok := l.idx[cacheKey{region: 0, key: fmt.Sprintf("fresh%d", i)}]; !ok {
			t.Fatalf("fresh key %d fell out of the window", i)
		}
	}

	// Sustained churn: cycles of add/remove never degrade the window.
	for round := 0; round < 10; round++ {
		for i := 0; i < 32; i++ {
			k := cacheKey{region: 1, key: fmt.Sprintf("r%dc%d", round, i)}
			l.add(k)
			if i%2 == 0 {
				l.remove(k)
			}
		}
	}
	if len(l.keys) != len(l.idx) {
		t.Fatalf("keys (%d) and index (%d) diverged", len(l.keys), len(l.idx))
	}
	if len(l.keys) > evictLogSize {
		t.Fatalf("log overgrew to %d", len(l.keys))
	}
	for _, k := range l.keys {
		if k.region == -1 {
			t.Fatal("dead hole present in the log")
		}
		if _, ok := l.idx[k]; !ok {
			t.Fatal("ring key missing from index")
		}
	}
}

// TestNegativeRegionAccounting is the regression test for the region
// guard: an entry whose key carries the region -1 sentinel must not panic
// the per-region resident accounting on any of its sites.
func TestNegativeRegionAccounting(t *testing.T) {
	rt := testRuntime(CacheOptions{Shards: 1, MaxEntriesPerRegion: 1,
		MaxCodeBytesPerRegion: 1 << 20}, 1)
	sh := &rt.shards[0]
	var es []*entry
	for _, key := range []string{"x", "y"} {
		ck := cacheKey{region: -1, key: key}
		e := &entry{key: ck, done: make(chan struct{}), seg: &vm.Segment{},
			bytes: 64, slot: -1}
		close(e.done)
		es = append(es, e)
	}

	// Site 1: admission. The second entry exercises the per-region cap
	// checks with sh held; an untracked region has no cap to hit.
	sh.mu.Lock()
	for _, e := range es {
		sh.entries[e.key] = e
		if !rt.admitLocked(sh, e) {
			t.Fatalf("entry %v not admitted", e.key)
		}
	}
	sh.mu.Unlock()
	if rt.resident.Load() != 2 {
		t.Fatalf("resident = %d, want 2", rt.resident.Load())
	}

	// Site 3: the per-region byte predicate.
	if rt.regionOverBytes(-1, 128) {
		t.Error("regionOverBytes(-1) reported over-cap")
	}
	rt.reclaim(-1)

	sh.mu.Lock()
	for _, e := range es {
		sh.dropLocked(rt, e) // site 2: drop
	}
	sh.mu.Unlock()
	if rt.resident.Load() != 0 || rt.residentBytes.Load() != 0 {
		t.Errorf("accounting leaked: resident=%d bytes=%d",
			rt.resident.Load(), rt.residentBytes.Load())
	}
}
