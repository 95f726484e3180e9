package rtr

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dyncc/internal/segio"
	"dyncc/internal/stitcher"
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
	if !rt.publish(e, gen, seg, stitcher.Stats{}, false, nil) {
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
	if rt.publish(e2, gen2, storedSeg(), stitcher.Stats{}, false, nil) {
		t.Fatal("stale-generation adoption was retained")
	}
	e2.await()
	if !e2.done || e2.seg == nil || e2.err != nil {
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
	rt.storeQ.start.Do(func() {})
	qcap := cap(rt.storeQ.ch)
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
	rt.storeQ.start.Do(func() {}) // publisher never runs; Close must drain
	for i := 0; i < 5; i++ {
		rt.storePut(0, 0, fmt.Sprintf("k%d", i), storedSeg())
	}
	rt.Close()
	if store.Len() != 5 {
		t.Fatalf("store holds %d entries after Close, want 5", store.Len())
	}
	if n := rt.storeQ.inflight.Load(); n != 0 {
		t.Errorf("storeInflight = %d after Close", n)
	}
	// Post-close operations are silently ignored, never enqueued.
	rt.storePut(0, 0, "late", storedSeg())
	if store.Len() != 5 {
		t.Error("post-Close put landed")
	}
	rt.Close() // idempotent
}

// TestStoreCloseRacesPuts is the store side of the close race
// (TestCloseRacesScheduling is the stitch side): puts racing Close are
// either in the store when Close returns or dropped. None leaks into the
// closed queue, which would hang WaitIdle, and none lands afterwards.
func TestStoreCloseRacesPuts(t *testing.T) {
	const putters, puts = 4, 64
	for round := 0; round < 20; round++ {
		store := segio.NewMemStore()
		rt := storeTestRuntime(store, 1)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < putters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for k := 0; k < puts; k++ {
					rt.storePut(0, 0, fmt.Sprintf("p%d.%d", i, k), storedSeg())
				}
			}(i)
		}
		atClose := make(chan int)
		go func() {
			<-start
			rt.Close()
			atClose <- store.Len()
		}()
		close(start)
		landed := <-atClose
		wg.Wait()
		rt.WaitIdle()
		if !rt.storeQ.idle() {
			t.Fatalf("round %d: store queue holds %d ops after Close", round, rt.storeQ.inflight.Load())
		}
		if cs := rt.CacheStats(); cs.StorePuts != uint64(store.Len()) {
			t.Errorf("round %d: StorePuts = %d, store holds %d", round, cs.StorePuts, store.Len())
		}
		if n := store.Len(); n != landed {
			t.Errorf("round %d: %d puts landed after Close returned", round, n-landed)
		}
	}
}

// fpInputs returns fresh copies of everything a shareable region's digest
// depends on: a region exercising every template field (code, holes with
// and without Float, a constant switch, a loop) and its parent segment.
func fpInputs() (*tmpl.Region, *vm.Segment) {
	slot := tmpl.SlotRef{LoopID: -1, Slot: 2}
	r := &tmpl.Region{
		Name: "f.r0", FuncID: 0, TableSize: 6, Entry: 0,
		KeyRegs: []vm.Reg{1, 3}, Shareable: true, DeoptPC: 4,
		Blocks: []*tmpl.Block{
			{
				Code: []vm.Inst{
					{Op: vm.LI, Rd: 2, Imm: 5},
					{Op: vm.ADDI, Rd: 4, Rs: 2, Rt: 1, Sub: vm.ADD, XCost: 1, XInsts: 2, Imm: 9, Target: 3},
					{Op: vm.LDC, Rd: 5, Imm: 0},
				},
				Holes: []tmpl.Hole{{Pc: 0, Slot: slot}, {Pc: 2, Slot: tmpl.SlotRef{LoopID: 0, Slot: 1}, Float: true}},
				Term: tmpl.Term{Kind: tmpl.TermSwitch, CondReg: 6, ConstSlot: &slot,
					Cases: []int64{1, 2}, Succs: []tmpl.Edge{{Block: 1}, {Block: -1, ExitPC: 7}, {Block: 1}}},
				LoopID: -1,
			},
			{Code: []vm.Inst{{Op: vm.RET, Rs: 2}}, Term: tmpl.Term{Kind: tmpl.TermRet}, LoopID: 0},
		},
		Loops: []*tmpl.Loop{{ID: 0, ParentID: -1, HeaderSlot: tmpl.SlotRef{LoopID: -1, Slot: 3},
			NextSlot: 1, RecordSize: 2, HeadBlock: 1, LatchBlock: 1}},
	}
	parent := &vm.Segment{Name: "f", Code: []vm.Inst{{Op: vm.LI, Rd: 1, Imm: 3}, {Op: vm.RET}}}
	return r, parent
}

// fpDigest derives the digest of (region 0, generation 0, key "k") for a
// runtime over the given inputs.
func fpDigest(r *tmpl.Region, parent *vm.Segment, opts stitcher.Options) segio.Digest {
	prog := &vm.Program{Segs: []*vm.Segment{parent}}
	rt := New(prog, []*tmpl.Region{r}, Options{Stitcher: opts, Cache: CacheOptions{Store: segio.NewMemStore()}})
	defer rt.Close()
	return rt.storeDigest(0, 0, "k")
}

// TestFingerprintSensitivity: the digest must change with anything the
// stitched output could depend on, each input changed on its own, and
// identical inputs must derive identical digests (or no two processes
// could share the store).
func TestFingerprintSensitivity(t *testing.T) {
	r, parent := fpInputs()
	base := fpDigest(r, parent, stitcher.Options{})
	if r, parent := fpInputs(); fpDigest(r, parent, stitcher.Options{}) != base {
		t.Fatal("identical runtimes derive different digests (no sharing possible)")
	}
	a := storeTestRuntime(segio.NewMemStore(), 1)
	defer a.Close()
	if a.storeDigest(0, 0, "k") == a.storeDigest(0, 0, "j") {
		t.Error("digest ignores the key")
	}
	if a.storeDigest(0, 0, "k") == a.storeDigest(0, 1, "k") {
		t.Error("digest ignores the generation")
	}

	code := func(r *tmpl.Region) *vm.Inst { return &r.Blocks[0].Code[1] }
	hole := func(r *tmpl.Region) *tmpl.Hole { return &r.Blocks[0].Holes[1] }
	term := func(r *tmpl.Region) *tmpl.Term { return &r.Blocks[0].Term }
	loop := func(r *tmpl.Region) *tmpl.Loop { return r.Loops[0] }
	type change struct {
		name string
		tmpl func(r *tmpl.Region)
		seg  func(s *vm.Segment)
		opts stitcher.Options
	}
	changes := []change{
		{name: "name", tmpl: func(r *tmpl.Region) { r.Name = "f.r1" }},
		{name: "table size", tmpl: func(r *tmpl.Region) { r.TableSize++ }},
		{name: "entry", tmpl: func(r *tmpl.Region) { r.Entry = 1 }},
		{name: "inst op", tmpl: func(r *tmpl.Region) { code(r).Op = vm.SUBI }},
		{name: "inst rd", tmpl: func(r *tmpl.Region) { code(r).Rd++ }},
		{name: "inst rs", tmpl: func(r *tmpl.Region) { code(r).Rs++ }},
		{name: "inst rt", tmpl: func(r *tmpl.Region) { code(r).Rt++ }},
		{name: "inst sub", tmpl: func(r *tmpl.Region) { code(r).Sub = vm.SUB }},
		{name: "inst xcost", tmpl: func(r *tmpl.Region) { code(r).XCost++ }},
		{name: "inst xinsts", tmpl: func(r *tmpl.Region) { code(r).XInsts++ }},
		{name: "inst imm", tmpl: func(r *tmpl.Region) { code(r).Imm++ }},
		{name: "inst target", tmpl: func(r *tmpl.Region) { code(r).Target++ }},
		{name: "extra inst", tmpl: func(r *tmpl.Region) { r.Blocks[1].Code = append(r.Blocks[1].Code, vm.Inst{Op: vm.NOP}) }},
		{name: "hole pc", tmpl: func(r *tmpl.Region) { hole(r).Pc = 1 }},
		{name: "hole slot", tmpl: func(r *tmpl.Region) { hole(r).Slot.Slot++ }},
		{name: "hole slot loop", tmpl: func(r *tmpl.Region) { hole(r).Slot.LoopID = -1 }},
		{name: "hole float", tmpl: func(r *tmpl.Region) { hole(r).Float = false }},
		{name: "term kind", tmpl: func(r *tmpl.Region) { term(r).Kind = tmpl.TermBr }},
		{name: "term cond reg", tmpl: func(r *tmpl.Region) { term(r).CondReg++ }},
		{name: "term const slot", tmpl: func(r *tmpl.Region) { term(r).ConstSlot = &tmpl.SlotRef{LoopID: -1, Slot: 3} }},
		{name: "term no const slot", tmpl: func(r *tmpl.Region) { term(r).ConstSlot = nil }},
		{name: "term case", tmpl: func(r *tmpl.Region) { term(r).Cases[1]++ }},
		{name: "term edge block", tmpl: func(r *tmpl.Region) { term(r).Succs[2].Block = 0 }},
		{name: "term edge exit pc", tmpl: func(r *tmpl.Region) { term(r).Succs[1].ExitPC++ }},
		{name: "block loop id", tmpl: func(r *tmpl.Region) { r.Blocks[1].LoopID = -1 }},
		{name: "loop id", tmpl: func(r *tmpl.Region) { loop(r).ID++ }},
		{name: "loop parent", tmpl: func(r *tmpl.Region) { loop(r).ParentID = 0 }},
		{name: "loop header slot", tmpl: func(r *tmpl.Region) { loop(r).HeaderSlot.Slot++ }},
		{name: "loop next slot", tmpl: func(r *tmpl.Region) { loop(r).NextSlot++ }},
		{name: "loop record size", tmpl: func(r *tmpl.Region) { loop(r).RecordSize++ }},
		{name: "loop head block", tmpl: func(r *tmpl.Region) { loop(r).HeadBlock = 0 }},
		{name: "loop latch block", tmpl: func(r *tmpl.Region) { loop(r).LatchBlock = 0 }},
		{name: "key register", tmpl: func(r *tmpl.Region) { r.KeyRegs[1]++ }},
		{name: "auto", tmpl: func(r *tmpl.Region) { r.Auto = true }},
		{name: "deopt pc", tmpl: func(r *tmpl.Region) { r.DeoptPC++ }},
		{name: "parent inst", seg: func(s *vm.Segment) { s.Code[0].Imm++ }},
		{name: "NoStrengthReduction", opts: stitcher.Options{NoStrengthReduction: true}},
		{name: "NoFuse", opts: stitcher.Options{NoFuse: true}},
		{name: "RegisterActions", opts: stitcher.Options{RegisterActions: true}},
	}
	seen := map[segio.Digest]string{}
	for _, c := range changes {
		r, parent := fpInputs()
		if c.tmpl != nil {
			c.tmpl(r)
		}
		if c.seg != nil {
			c.seg(parent)
		}
		d := fpDigest(r, parent, c.opts)
		if d == base {
			t.Errorf("digest ignores the %s", c.name)
		}
		if prev, ok := seen[d]; ok {
			t.Errorf("changing the %s and the %s derive one digest", prev, c.name)
		}
		seen[d] = c.name
	}
}

// TestFingerprintFieldCensus: appendFingerprint names every field it
// hashes, so a field added to one of these types is silently left out of
// the digest. Each count below matches the fields hashed plus the ones left
// out on purpose; a new field fails here until appendFingerprint (or this
// list of exclusions) takes it in. Left out: Region.Index and FuncID
// (the parent segment's hash covers them), Stats (planning counts),
// Shareable (only shared regions are fingerprinted), Stencil (derived from
// the blocks and loops by the stencil pass) and Block.IRID (diagnostics).
func TestFingerprintFieldCensus(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{tmpl.Region{}, 13}, {tmpl.Block{}, 5}, {tmpl.Hole{}, 3},
		{tmpl.SlotRef{}, 2}, {tmpl.Term{}, 5}, {tmpl.Edge{}, 2},
		{tmpl.Loop{}, 7}, {vm.Inst{}, 9}, {stitcher.Options{}, 3},
	} {
		typ := reflect.TypeOf(c.v)
		if got := typ.NumField(); got != c.want {
			t.Errorf("%s has %d fields, the fingerprint accounts for %d", typ, got, c.want)
		}
	}
}

// TestFingerprintsOnlyWhenUsed: New derives fingerprints only for a
// runtime with a store, and only for the regions that consult it.
func TestFingerprintsOnlyWhenUsed(t *testing.T) {
	prog := &vm.Program{Segs: []*vm.Segment{{Name: "f", Code: []vm.Inst{{Op: vm.RET}}}}}
	regions := func() []*tmpl.Region {
		return []*tmpl.Region{{Name: "shared", Shareable: true}, {Name: "private"}}
	}
	if rt := New(prog, regions(), Options{}); rt.storeFp != nil {
		t.Error("a runtime without a store derived fingerprints")
	}
	rt := New(prog, regions(), Options{Cache: CacheOptions{Store: segio.NewMemStore()}})
	defer rt.Close()
	var zero [sha256.Size]byte
	if rt.storeFp[0] == zero {
		t.Error("the shared region has no fingerprint")
	}
	if rt.storeFp[1] != zero {
		t.Error("a region that never consults the store was fingerprinted")
	}
	noShare := New(prog, regions(), Options{Cache: CacheOptions{Store: segio.NewMemStore(), NoShare: true}})
	defer noShare.Close()
	if noShare.storeFp[0] != zero {
		t.Error("a NoShare runtime fingerprinted a region")
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
		if !l.removeKey(key(i)) {
			t.Fatalf("key %d missing from full log", i)
		}
	}
	// ...then evict that many fresh keys again.
	for i := 0; i < evictLogSize/2; i++ {
		l.add(cacheKey{region: 0, key: fmt.Sprintf("fresh%d", i)})
	}

	if len(l.keys) != evictLogSize || l.indexed() != evictLogSize {
		t.Fatalf("window = %d keys / %d indexed, want %d (dead holes?)",
			len(l.keys), l.indexed(), evictLogSize)
	}
	// Every surviving original and every fresh key must still be detected
	// as a restitch — nothing live was displaced by a hole.
	for i := 1; i < evictLogSize; i += 2 {
		if !l.has(key(i)) {
			t.Fatalf("surviving key %d fell out of the window", i)
		}
	}
	for i := 0; i < evictLogSize/2; i++ {
		if !l.has(cacheKey{region: 0, key: fmt.Sprintf("fresh%d", i)}) {
			t.Fatalf("fresh key %d fell out of the window", i)
		}
	}

	// Sustained churn: cycles of add/remove never degrade the window.
	for round := 0; round < 10; round++ {
		for i := 0; i < 32; i++ {
			k := cacheKey{region: 1, key: fmt.Sprintf("r%dc%d", round, i)}
			l.add(k)
			if i%2 == 0 {
				l.removeKey(k)
			}
		}
	}
	if len(l.keys) != l.indexed() {
		t.Fatalf("keys (%d) and index (%d) diverged", len(l.keys), l.indexed())
	}
	if len(l.keys) > evictLogSize {
		t.Fatalf("log overgrew to %d", len(l.keys))
	}
	for _, k := range l.keys {
		if k.region == -1 {
			t.Fatal("dead hole present in the log")
		}
		if !l.has(k) {
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
		e := &entry{key: ck, done: true, seg: &vm.Segment{},
			bytes: 64}
		es = append(es, e)
	}

	// Site 1: admission. The second entry exercises the per-region cap
	// checks with sh held; an untracked region has no cap to hit.
	sh.mu.Lock()
	for _, e := range es {
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
