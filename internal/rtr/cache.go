package rtr

import (
	"encoding/binary"
	"sync"

	"dyncc/internal/segio"
	"dyncc/internal/stitcher"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// DefaultShards is the shard count of the shared (level-1) stitch cache
// when CacheOptions.Shards is zero. 32 shards keep lock contention
// negligible for any realistic machine count while costing a few hundred
// bytes per runtime; the count is rounded up to a power of two so shard
// selection is a mask, not a modulo.
const DefaultShards = 32

// DefaultKeepStitchedCap bounds diagnostic segment retention when
// CacheOptions.KeepStitched is on and no explicit cap is given. Retention
// is a debugging aid; a few hundred segments cover every dump and golden
// test while keeping a long KeepStitched run from leaking.
const DefaultKeepStitchedCap = 512

// CacheOptions tune the runtime's two-level stitch cache. The zero value
// preserves the historical behaviour exactly: unbounded retention at both
// levels, cross-machine sharing on, no churn histogram.
type CacheOptions struct {
	// KeepStitched retains stitched segments in Runtime.Stitched for
	// diagnostics (golden tests, disassembly dumps). Off by default: a
	// long-running server would otherwise hold every segment it ever
	// stitched, even ones its machines have dropped.
	KeepStitched bool
	// KeepStitchedCap bounds KeepStitched retention (total segments across
	// regions; 0 = DefaultKeepStitchedCap). Once full, later segments are
	// simply not retained — diagnostics capture the beginning of a run.
	KeepStitchedCap int
	// Shards overrides the shared-cache shard count (0 = DefaultShards;
	// values are rounded up to a power of two).
	Shards int
	// NoShare disables the cross-machine shared cache: every machine
	// stitches its own segments, as if all regions were unshareable.
	// Stitch deduplication across goroutines is disabled with it.
	NoShare bool

	// MaxEntries bounds the number of resident segments in the shared
	// (level-1) cache across all regions and shards (0 = unbounded).
	// In-flight singleflight entries are pinned and do not count against
	// the cap; eviction uses a per-shard CLOCK (second-chance) policy.
	MaxEntries int
	// MaxCodeBytes bounds the resident stitched-code footprint of the
	// shared cache in bytes (0 = unbounded), using vm.Segment.MemFootprint
	// as the per-segment size. A single segment larger than the cap is
	// still cached (the cache must publish it to waiters) and evicted as
	// soon as anything else arrives.
	MaxCodeBytes int64
	// MaxEntriesPerRegion bounds the resident shared-cache segments of any
	// single region (0 = unbounded). Like MaxEntries it is strict across
	// shards: admission claims the slot atomically.
	MaxEntriesPerRegion int
	// MaxCodeBytesPerRegion bounds the resident code bytes of any single
	// region (0 = unbounded). Enforcement is best-effort across shards: a
	// region briefly overshoots while a concurrent publish in another
	// shard completes.
	MaxCodeBytesPerRegion int64
	// MachineMaxEntries bounds each machine's private (level-2) cache
	// (total segments across regions, 0 = unbounded). Eviction is
	// second-chance FIFO: a slot referenced since it was last considered
	// gets one more pass before it is dropped.
	MachineMaxEntries int

	// ChurnStats enables the optional per-region churn histogram
	// (Runtime.Churn): stitches, evictions and re-stitches per region.
	// The counters are touched only on the cold stitch/evict paths, but
	// they are off by default to keep the zero value allocation-free.
	ChurnStats bool

	// AsyncStitch routes shared-cache misses of key-driven shareable
	// regions to a bounded background worker pool instead of stitching
	// inline: the missing call (and every call until the stitch publishes)
	// executes the region on the generic fallback tier — set-up plus an
	// unspecialized rendering of the templates (stitcher.Generic) — so no
	// caller ever blocks on compilation. Requires a key set-up function
	// (Runtime.KeySetup, installed by the compiler front end for regions it
	// proved shareable); regions without one stitch inline as before.
	// See async.go for the pipeline and DESIGN.md "Tiered execution".
	AsyncStitch bool
	// StitchWorkers sizes the background stitcher pool
	// (0 = DefaultStitchWorkers). Workers are started lazily on the first
	// scheduled stitch and stopped by Runtime.Close.
	StitchWorkers int
	// StitchQueue bounds the pending-stitch queue
	// (0 = DefaultStitchQueue). When the queue is full, new cold keys are
	// not enqueued (backpressure, counted in CacheStats.QueueRejects);
	// their callers stay on the fallback tier and a later miss retries.
	StitchQueue int

	// Store, when non-nil, adds a persistent content-addressed level-0
	// tier behind the shared cache: on a keyed-shareable miss the stitch
	// site consults the store by digest before stitching, and successful
	// stitches are published back asynchronously, so a restarted server
	// (or another process sharing the store) skips re-stitching its hot
	// set. The hot path never blocks on store I/O. See store.go for the
	// digest derivation and invalidation interplay, and segio.OpenDir for
	// the on-disk implementation.
	Store segio.Store
	// StoreQueue bounds the pending store-publish queue
	// (0 = DefaultStoreQueue). A full queue drops the operation, counted
	// in CacheStats.StoreErrors.
	StoreQueue int
}

// cacheKey identifies one specialization in the shared cache.
type cacheKey struct {
	region int
	key    string // binary-encoded key-register values
}

// entry is one shared-cache slot with a singleflight latch: the goroutine
// that creates the entry stitches; later arrivals block on done and read
// seg/err. Entries whose stitch failed are removed so a later attempt can
// retry (the error is still delivered to every waiter of that attempt).
//
// Lifecycle: an entry is *in-flight* from creation until done is closed
// (pinned — the eviction clock never sees it, because only published
// entries join the shard ring), then *resident* once published into the
// ring, until evicted or invalidated. gen snapshots the region generation
// at claim time; lookups reject entries whose generation is stale, so a
// segment stitched against data invalidated mid-flight is served to its
// waiters (they began before the invalidation) but never retained.
// InvalidateKey refreshes gen on the keys it spares; storeGen, the
// generation the segment's store digest was derived under, is set once at
// publish and never refreshed, so invalidation deletes the right blob.
type entry struct {
	key  cacheKey
	gen  uint64 // region generation at claim time
	done chan struct{}
	seg  *vm.Segment
	err  error

	// Guarded by the owning shard's mutex.
	bytes    int64  // seg.MemFootprint(), cached at publish
	ref      bool   // CLOCK reference bit, set on every shared hit
	slot     int    // index in the shard's ring; -1 when not resident
	storeGen uint64 // generation the segment was persisted or loaded under
}

// shard is one lock domain of the shared cache. Stitcher statistics and
// cache counters are accumulated per shard and folded on read so the
// stitch path never takes a runtime-global lock.
type shard struct {
	mu      sync.Mutex
	entries map[cacheKey]*entry
	ring    []*entry         // resident entries, in CLOCK order
	hand    int              // CLOCK hand into ring
	stats   []stitcher.Stats // per region index
	churn   []RegionChurn    // per region index; only with ChurnStats
	evicted evictLog         // recent capacity evictions, for restitch detection

	// Monotonic counters (never decremented; see CacheStats for the
	// lookup invariant).
	lookups        uint64
	hits           uint64 // lookups served by a completed entry
	waits          uint64 // lookups that found an in-flight stitch to coalesce onto
	misses         uint64 // lookups that found nothing
	failedHits     uint64 // lookups that found a completed-but-failed entry
	stitches       uint64 // successful stitches (shared winners and private)
	failedStitches uint64 // stitches that returned an error
	evictions      uint64 // capacity evictions (invalidations are counted separately)
	restitches     uint64 // stitches of a key recently evicted for capacity
}

func numShards(opt int) int {
	n := opt
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// appendKey encodes the key-register values staged at DYNENTER into buf
// (varint-encoded, reusing buf's capacity). This replaces the seed's
// fmt.Sprintf key building, which allocated on every DYNENTER.
func appendKey(buf []byte, m *vm.Machine, r *tmpl.Region) []byte {
	for _, reg := range r.KeyRegs {
		buf = binary.AppendVarint(buf, m.Regs[reg])
	}
	return buf
}

// encodeKey renders explicit key values the way DYNENTER would stage them,
// for the InvalidateKey API.
func encodeKey(vals []int64) string {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.AppendVarint(buf, v)
	}
	return string(buf)
}

// shardFor picks the shard for (region, key) by FNV-1a over the region
// index and the encoded key bytes.
func (rt *Runtime) shardFor(region int, key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(region)) * prime64
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return &rt.shards[h&uint64(len(rt.shards)-1)]
}

// lookupShared returns the completed segment for (region, key), or nil.
// In-flight entries are not waited on here: DYNENTER falls through into
// set-up instead, and the wait happens at stitch time where the in-flight
// window is pure host code (see stitchNow).
//
// Accounting invariant: every lookup increments exactly one of hits,
// waits, failedHits or misses, so at all times
//
//	lookups == hits + waits + failedHits + misses
//
// (see TestLookupAccountingInvariant). A lookup that finds an in-flight
// entry is a wait — the caller will coalesce onto that stitch — not a
// miss; the seed double-counted it as both.
func (rt *Runtime) lookupShared(region int, key string) *vm.Segment {
	sh := rt.shardFor(region, key)
	ck := cacheKey{region: region, key: key}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.lookups++
	e, ok := sh.entries[ck]
	if !ok {
		sh.misses++
		return nil
	}
	select {
	case <-e.done:
		if e.err != nil {
			// Completed but failed (narrow window before the stitcher's
			// own cleanup removes it): not a true miss — the key was
			// present — but unusable, so the caller re-stitches.
			sh.failedHits++
			return nil
		}
		if e.gen != rt.gens[region].Load() {
			// Invalidated after publish; drop it now rather than serving
			// a segment from a dead generation.
			sh.dropLocked(rt, e)
			sh.misses++
			return nil
		}
		sh.hits++
		e.ref = true
		return e.seg
	default:
		sh.waits++
		return nil
	}
}

// claim maps a new in-flight entry for (region, key) unless the key already
// has one (in flight or resident). won reports whether the caller now owns
// producing the key: it must hand the entry to publish. gen is the region
// generation the claim snapshotted; once mapped, e.gen is shared with
// InvalidateKey's sibling sweep, so the winner reads this copy instead.
func (rt *Runtime) claim(region int, key string) (e *entry, gen uint64, won bool) {
	sh := rt.shardFor(region, key)
	ck := cacheKey{region: region, key: key}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[ck]; ok {
		return e, 0, false
	}
	gen = rt.gens[region].Load()
	e = &entry{key: ck, gen: gen, done: make(chan struct{}), slot: -1}
	sh.entries[ck] = e
	return e, gen, true
}

// tableSource is where a stitch reads its region's run-time constants
// table: a machine's memory at base (left in RScratch by inline set-up, or
// returned by the merged SetupFn), or, with mem nil, the table the
// region's KeySetup rebuilds from the key bytes in a private arena.
type tableSource struct {
	mem  []int64
	base int64
}

// produce makes the segment for (region, key), the one step every stitch
// site shares. A shared region with a persistent store consults it first,
// under gen: a persisted specialization comes back with nil stats, meaning
// nothing was stitched. Otherwise the table is resolved (only now, so a
// background worker's store hit skips key set-up) and stitched, and an
// Auto region's segment is wrapped in its deoptimization guards before
// anything caches, publishes or persists it (see promote.go).
func (rt *Runtime) produce(region int, key string, gen uint64,
	src tableSource) (*vm.Segment, *stitcher.Stats, error) {

	r := rt.Regions[region]
	if rt.shared(r) && rt.storeEnabled() {
		if seg := rt.storeLoad(region, gen, key); seg != nil {
			return seg, nil, nil
		}
	}
	mem, tbl := src.mem, src.base
	if mem == nil {
		keyVals, err := decodeKey(key, len(r.KeyRegs))
		if err != nil {
			return nil, nil, err
		}
		if mem, tbl, err = rt.KeySetup[region](keyVals); err != nil {
			return nil, nil, err
		}
	}
	seg, stats, err := stitcher.Stitch(r, mem, tbl, rt.Prog.Segs[r.FuncID], rt.Opts.Stitcher)
	if err == nil {
		seg, err = guardStitch(r, seg, key)
	}
	if err != nil {
		return nil, nil, err
	}
	rt.countStencil(stats)
	return seg, stats, nil
}

// publish completes the claimed entry e with produce's outcome: the one
// publish tail of every shared specialization, inline winner, background
// worker and store adoption alike. It releases e's waiters, then under the
// shard lock counts the outcome and makes e resident if the generation
// fence and the caps admit it, and persists a stitched segment back to the
// store. A segment loaded from the store (nil stats) is an adoption:
// nothing was stitched, so no stitch, restitch or stitcher statistic is
// counted and nothing is put back; gen, the generation the store was
// consulted under, names its blob. publish reports whether e was kept. A
// segment the fence declines (the region was invalidated or the key
// flushed while in flight) or the full cache cannot admit still serves
// this attempt's waiters, which began before the invalidation, but is
// neither retained nor persisted.
func (rt *Runtime) publish(e *entry, gen uint64, seg *vm.Segment,
	stats *stitcher.Stats, err error) bool {

	e.seg, e.err = seg, err
	close(e.done)
	region := e.key.region
	sh := rt.shardFor(region, e.key.key)
	sh.mu.Lock()
	if err != nil {
		sh.failedStitches++
		sh.dropLocked(rt, e)
		sh.mu.Unlock()
		return false
	}
	e.bytes = int64(seg.MemFootprint())
	// The key is resident again: forget any logged eviction. Only a real
	// stitch of such a key counts as a restitch.
	restitch := sh.evicted.remove(e.key)
	if stats != nil {
		sh.noteStitchLocked(rt, region, stats, restitch)
	}
	if e.gen != rt.gens[region].Load() || sh.entries[e.key] != e || !rt.admitLocked(sh, e) {
		sh.dropLocked(rt, e)
		sh.mu.Unlock()
		return false
	}
	e.storeGen = gen
	if stats != nil {
		// Persist under the generation the entry is resident at (a sibling
		// sweep may have refreshed it since the claim). Enqueued under the
		// lock, so an invalidation that sweeps e queues its delete after
		// this put.
		e.storeGen = e.gen
		rt.storePut(region, e.storeGen, e.key.key, seg)
	}
	sh.mu.Unlock()
	rt.reclaim(region)
	return true
}

// recordStats publishes one private stitch of a non-shareable region: its
// counts and statistics, folded into the shard of its (region, key); the
// segment never enters the level-1 cache.
func (rt *Runtime) recordStats(region int, key string, stats *stitcher.Stats) {
	sh := rt.shardFor(region, key)
	sh.mu.Lock()
	sh.noteStitchLocked(rt, region, stats, false)
	sh.mu.Unlock()
}

// noteStitchLocked counts one successful stitch of region in the shard:
// the stitch and restitch counters, the stitcher statistics and the churn
// histogram.
func (sh *shard) noteStitchLocked(rt *Runtime, region int, st *stitcher.Stats, restitch bool) {
	sh.stitches++
	if restitch {
		sh.restitches++
	}
	if rt.Opts.Cache.ChurnStats {
		c := sh.churnLocked(region)
		c.Stitches++
		if restitch {
			c.Restitches++
		}
	}
	for region >= len(sh.stats) {
		sh.stats = append(sh.stats, stitcher.Stats{})
	}
	s := &sh.stats[region]
	s.InstsStitched += st.InstsStitched
	s.HolesPatched += st.HolesPatched
	s.BranchesResolved += st.BranchesResolved
	s.LoopIterations += st.LoopIterations
	s.StrengthReductions += st.StrengthReductions
	s.LargeConsts += st.LargeConsts
	s.LoadsPromoted += st.LoadsPromoted
	s.StoresPromoted += st.StoresPromoted
	s.CyclesModeled += st.CyclesModeled
}

// churnLocked returns the shard's churn slot for region, growing the
// histogram on demand.
func (sh *shard) churnLocked(region int) *RegionChurn {
	for region >= len(sh.churn) {
		sh.churn = append(sh.churn, RegionChurn{Region: len(sh.churn)})
	}
	return &sh.churn[region]
}

// Stats folds the per-shard stitcher statistics for region r across every
// stitch performed by any attached machine. (Per-shard accumulation keeps
// the stitch path off any runtime-global lock; folding happens only here,
// on the cold read path.)
func (rt *Runtime) Stats(r int) stitcher.Stats {
	var out stitcher.Stats
	for i := range rt.shards {
		sh := &rt.shards[i]
		sh.mu.Lock()
		if r < len(sh.stats) {
			s := &sh.stats[r]
			out.InstsStitched += s.InstsStitched
			out.HolesPatched += s.HolesPatched
			out.BranchesResolved += s.BranchesResolved
			out.LoopIterations += s.LoopIterations
			out.StrengthReductions += s.StrengthReductions
			out.LargeConsts += s.LargeConsts
			out.LoadsPromoted += s.LoadsPromoted
			out.StoresPromoted += s.StoresPromoted
			out.CyclesModeled += s.CyclesModeled
		}
		sh.mu.Unlock()
	}
	return out
}
