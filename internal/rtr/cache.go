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

// CacheOptions tune the runtime's two-level stitch cache (DESIGN.md,
// "Runtime concurrency model" and "Cache lifecycle"). The zero value
// preserves the historical behaviour exactly: unbounded retention at both
// levels, cross-machine sharing on, no churn histogram. Servers with
// high-cardinality keys (user ids, query shapes) should set MaxEntries and
// MachineMaxEntries: without caps every distinct key is retained forever.
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
	// the cap. Both cache levels evict with one CLOCK policy (see clock.go):
	// a hit sets a segment's reference bit, and the hand clears set bits
	// and evicts the first clear segment, whose slot the newest segment
	// then takes, so an unhit newcomer is the next candidate.
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
	// (total segments across regions, 0 = unbounded), with MaxEntries'
	// CLOCK policy.
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
	// Runtime.WaitIdle quiesces the pool and Runtime.Close releases it.
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
}

// cacheKey identifies one specialization in the shared cache.
type cacheKey struct {
	region int
	key    string // binary-encoded key-register values
}

// entry is one shared-cache slot with a singleflight latch: the goroutine
// that creates the entry stitches; later arrivals block until it is done
// and read seg/err. Most entries never see a second caller, so the wait
// channel is made only by the first claim that finds the entry still in
// flight. Entries whose stitch failed are removed so a later attempt can
// retry (the error is still delivered to every waiter of that attempt).
//
// An entry is *in-flight* in its shard's inflight map (pinned: eviction
// never sees it) until publish makes it *resident* in the shard's clock
// table. gen snapshots the region generation at claim time and lookups
// reject stale ones, so a segment stitched against data invalidated
// mid-flight is served to its waiters but never retained; InvalidateKey
// refreshes gen on the keys it spares. storeGen, the generation the
// segment's store digest was derived under, is set once at publish and
// never refreshed, so invalidation deletes the right blob.
type entry struct {
	key cacheKey
	gen uint64 // region generation at claim time
	seg *vm.Segment
	err error

	// Guarded by the owning shard's mutex.
	done     bool          // seg and err are final
	wait     chan struct{} // made for the first waiter; closed when done
	bytes    int64         // seg.MemFootprint(), cached at publish
	storeGen uint64        // generation the segment was persisted or loaded under
}

// finishLocked makes e's outcome final and releases its waiters. The
// caller holds the shard lock of e's key.
func (e *entry) finishLocked(seg *vm.Segment, err error) {
	e.seg, e.err, e.done = seg, err, true
	if e.wait != nil {
		close(e.wait)
	}
}

// await blocks until e, which claim handed to a loser, is done. claim made
// the wait channel under the shard lock if e was still in flight, and it
// is never replaced, so reading it here needs no lock; a nil channel means
// e was already done.
func (e *entry) await() {
	if w := e.wait; w != nil {
		<-w
	}
}

// shard is one lock domain of the shared cache. A key is in at most one of
// inflight and resident. Stitcher statistics and cache counters are
// accumulated per shard and folded on read so the stitch path never takes
// a runtime-global lock.
type shard struct {
	mu       sync.Mutex
	inflight map[cacheKey]*entry // claimed, not yet published
	resident clock[*entry]       // published entries, evicted by CLOCK
	stats    []stitcher.Stats    // per region index
	churn    []RegionChurn       // per region index; only with ChurnStats
	evicted  *evictLog           // recent capacity evictions, for restitch detection

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
// (varint-encoded, reusing buf's capacity, so DYNENTER does not allocate).
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

// keyHash is FNV-1a over the region index and the encoded key bytes. Its
// low bits pick the key's shard; the shard's evict log indexes by it too.
func keyHash(region int, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(region)) * prime64
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return h
}

// shardFor picks the shard for (region, key).
func (rt *Runtime) shardFor(region int, key string) *shard {
	return rt.shardOf(keyHash(region, key))
}

// shardOf picks the shard for a key of hash h (see keyHash).
func (rt *Runtime) shardOf(h uint64) *shard {
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
// miss.
func (rt *Runtime) lookupShared(region int, key string) *vm.Segment {
	sh := rt.shardFor(region, key)
	ck := cacheKey{region: region, key: key}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.lookups++
	// A resident hit sets the reference bit. A completed entry can still
	// be in flight: its publish has not yet taken this lock.
	e, ok := sh.resident.get(ck)
	if !ok {
		e, ok = sh.inflight[ck]
	}
	if !ok {
		sh.misses++
		return nil
	}
	switch {
	case !e.done:
		sh.waits++
		return nil
	case e.err != nil:
		// Completed but failed (narrow window before the stitcher's own
		// cleanup removes it): not a true miss — the key was present —
		// but unusable, so the caller re-stitches.
		sh.failedHits++
		return nil
	case e.gen != rt.gens[region].Load():
		// Invalidated after publish; drop it now rather than serving a
		// segment from a dead generation.
		sh.dropLocked(rt, e)
		sh.misses++
		return nil
	}
	sh.hits++
	return e.seg
}

// claim maps a new in-flight entry for (region, key) unless the key already
// has one (in flight or resident). won reports whether the caller now owns
// producing the key: it must hand the entry to publish. A loser may wait
// for the entry with await. gen is the region generation the claim
// snapshotted; once mapped, e.gen is shared with InvalidateKey's sibling
// sweep, so the winner reads this copy instead.
func (rt *Runtime) claim(region int, key string) (e *entry, gen uint64, won bool) {
	sh := rt.shardFor(region, key)
	ck := cacheKey{region: region, key: key}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.inflight[ck]
	if !ok {
		e, ok = sh.resident.peek(ck)
	}
	if ok {
		if !e.done && e.wait == nil {
			e.wait = make(chan struct{})
		}
		return e, 0, false
	}
	gen = rt.gens[region].Load()
	e = &entry{key: ck, gen: gen}
	sh.inflight[ck] = e
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
// under gen: a persisted specialization comes back with stitched false,
// meaning nothing was stitched. Otherwise the table is resolved (only now,
// so a background worker's store hit skips key set-up) and stitched, and
// an Auto region's segment is wrapped in its deoptimization guards before
// anything caches, publishes or persists it (see promote.go).
func (rt *Runtime) produce(region int, key string, gen uint64,
	src tableSource) (seg *vm.Segment, stats stitcher.Stats, stitched bool, err error) {

	r := rt.Regions[region]
	if rt.shared(r) && rt.storeEnabled() {
		if seg := rt.storeLoad(region, gen, key); seg != nil {
			return seg, stats, false, nil
		}
	}
	mem, tbl := src.mem, src.base
	if mem == nil {
		keyVals, err := decodeKey(key, len(r.KeyRegs))
		if err != nil {
			return nil, stats, false, err
		}
		if mem, tbl, err = rt.KeySetup[region](keyVals); err != nil {
			return nil, stats, false, err
		}
	}
	seg, stats, err = stitcher.Stitch(r, mem, tbl, rt.Prog.Segs[r.FuncID], rt.Opts.Stitcher)
	if err == nil {
		seg, err = guardStitch(r, seg, key)
	}
	if err != nil {
		return nil, stats, false, err
	}
	rt.stencilStitches.Add(1)
	return seg, stats, true, nil
}

// publish completes the claimed entry e with produce's outcome: the one
// publish tail of every shared specialization, inline winner, background
// worker and store adoption alike. Under the shard lock it releases e's
// waiters, counts the outcome and makes e resident if the generation
// fence and the caps admit it, and persists a stitched segment back to the
// store. A segment loaded from the store (stitched false) is an adoption:
// nothing was stitched, so no stitch, restitch or stitcher statistic is
// counted and nothing is put back; gen, the generation the store was
// consulted under, names its blob. publish reports whether e was kept. A
// segment the fence declines (the region was invalidated or the key
// flushed while in flight) or the full cache cannot admit still serves
// this attempt's waiters, which began before the invalidation, but is
// neither retained nor persisted.
func (rt *Runtime) publish(e *entry, gen uint64, seg *vm.Segment,
	stats stitcher.Stats, stitched bool, err error) bool {

	region := e.key.region
	h := keyHash(region, e.key.key)
	sh := rt.shardOf(h)
	sh.mu.Lock()
	e.finishLocked(seg, err)
	// Whatever the outcome, e is no longer in flight (a flush while it was
	// has already unmapped it).
	mapped := sh.inflight[e.key] == e
	sh.dropLocked(rt, e)
	if err != nil {
		sh.failedStitches++
		sh.mu.Unlock()
		return false
	}
	e.bytes = int64(seg.MemFootprint())
	// The key is resident again: forget any logged eviction. Only a real
	// stitch of such a key counts as a restitch.
	restitch := sh.evicted.remove(e.key, h)
	if stitched {
		sh.noteStitchLocked(rt, region, &stats, restitch)
	}
	if !mapped || e.gen != rt.gens[region].Load() || !rt.admitLocked(sh, e) {
		sh.mu.Unlock()
		return false
	}
	e.storeGen = gen
	if stitched {
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
func (rt *Runtime) recordStats(region int, key string, stats stitcher.Stats) {
	sh := rt.shardFor(region, key)
	sh.mu.Lock()
	sh.noteStitchLocked(rt, region, &stats, false)
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
	addStats(&sh.stats[region], st)
}

// addStats adds st's counters into s.
func addStats(s, st *stitcher.Stats) {
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
			addStats(&out, &sh.stats[r])
		}
		sh.mu.Unlock()
	}
	return out
}
