// Package rtr is the run-time half of the system: it wires the VM's
// dynamic-region hooks, manages the cache of stitched code (keyed by the
// values of the region's key variables, paper section 2), invokes the
// stitcher, and accounts its modeled cost.
//
// # Concurrency model
//
// A Runtime may be attached to any number of machines, each driven by its
// own goroutine. The code cache has two levels:
//
//   - Level 2, per machine: a plain map per region from encoded key bytes
//     to stitched segment. A machine is single-goroutine by the VM's
//     contract, so this level takes no locks and — because keys are
//     varint-encoded into a reusable scratch buffer — the steady-state
//     DYNENTER lookup performs zero allocations. (A plain goroutine-
//     confined map beats both sync.Map and an atomically swapped snapshot
//     here: there is no cross-goroutine access to synchronize at all; see
//     BenchmarkL2MapStrategies.) Bounded by CacheOptions.MachineMaxEntries
//     with second-chance FIFO eviction.
//
//   - Level 1, per runtime: a sharded map shared by all attached machines,
//     holding segments for regions the static compiler proved Shareable
//     (the stitched output is a pure function of the key bytes — see
//     tmpl.Region.Shareable for the aliasing rule). Each shard guards its
//     entries and its slice of stitcher statistics with its own mutex; a
//     singleflight latch per entry ensures K goroutines hitting a cold
//     (region, key) pay for exactly one stitch and K−1 channel waits.
//     Bounded by CacheOptions.MaxEntries/MaxCodeBytes with a per-shard
//     CLOCK policy (see evict.go).
//
// Non-shareable regions (set-up reads machine memory) bypass level 1
// entirely and behave exactly as in the single-machine system: each
// machine stitches its own copy against its own tables.
//
// # Generations and invalidation
//
// Every region carries a monotonic generation number. Invalidate and
// InvalidateKey bump it; each machine snapshots the generation per region
// and compares its snapshot against the live value with one atomic load on
// the DYNENTER fast path (no locks, no allocations). A mismatch flushes
// that machine's level-2 map for the region, so a dropped specialization
// is re-fetched from level 1 (cheap, for keys that were not invalidated)
// or re-stitched (for the key that was) instead of being served stale.
// Capacity evictions do NOT bump generations: a shareable region's
// stitched code is a pure function of its key, so a level-2 copy of an
// evicted level-1 entry is still correct — coherence is only needed for
// semantic invalidation.
package rtr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dyncc/internal/stitcher"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// Options configure a Runtime.
type Options struct {
	Stitcher stitcher.Options
	Cache    CacheOptions
	// Auto tunes speculative promotion of Auto regions (see promote.go);
	// inert for programs without them.
	Auto AutoOptions
}

// Runtime manages stitched code for one program across any number of
// attached machines.
type Runtime struct {
	Prog    *vm.Program
	Regions []*tmpl.Region
	Opts    Options

	// Stitched records stitched segments per region, for diagnostics
	// (disassembly dumps, golden tests). Populated only when
	// Opts.Cache.KeepStitched is set — unbounded retention is a leak for
	// long-running servers — and capped at KeepStitchedCap segments.
	// Guarded by stitchedMu.
	Stitched     map[int][]*vm.Segment
	stitchedMu   sync.Mutex
	stitchedSeen map[*vm.Segment]struct{} // set-dedup for Stitched
	stitchedN    int                      // total retained across regions

	// SetupFn, when present for a region, evaluates the region's set-up
	// host-side (the paper's section 7 merged set-up+stitch mode): it
	// builds the run-time constants table directly in the machine's memory
	// and returns its base address plus the modeled cycle cost. With a
	// SetupFn installed, stitching happens immediately at DYNENTER and the
	// inline VM set-up code is never executed. SetupFn must be fully
	// populated before the first Attach; it is read without locks after.
	SetupFn map[int]func(m *vm.Machine) (int64, uint64, error)

	// KeySetup, when present for a region, rebuilds the region's run-time
	// constants table from the key values alone, in a private arena (no
	// machine involved): it returns the arena and the table base within it.
	// The compiler installs one for every region it proved Shareable —
	// exactly the proof that set-up depends on nothing but the keys — and
	// the async stitching pipeline uses it to stitch on background workers
	// (see async.go). Like SetupFn it must be fully populated before the
	// first Attach and is read without locks after.
	KeySetup map[int]func(keyVals []int64) (mem []int64, tbl int64, err error)

	// shards is the level-1 shared cache (see package comment).
	shards []shard

	// gens holds the per-region generation numbers (see package comment).
	// Read on the DYNENTER fast path with a single atomic load.
	gens []atomic.Uint64

	// Resident accounting for the level-1 caps (see evict.go).
	resident       atomic.Int64
	residentBytes  atomic.Int64
	peakEntries    atomic.Int64
	regionResident []atomic.Int64
	regionBytes    []atomic.Int64

	invalidations atomic.Uint64
	l2Evictions   atomic.Uint64
	// stencilStitches counts stitches — inline, singleflighted, or
	// background — that ran on the stitcher's copy-and-patch fast path
	// (region had a precompiled stencil). Stitches minus StencilStitches
	// is the interpretive-fallback count.
	stencilStitches atomic.Uint64

	// Asynchronous stitching state (see async.go). jobs and quit are nil
	// unless CacheOptions.AsyncStitch is set; everything here is inert
	// otherwise.
	jobs       chan stitchJob
	quit       chan struct{}
	workerOnce sync.Once
	closeOnce  sync.Once
	// closeMu serializes job enqueues against Close: schedule holds the
	// read side across its quit-check and channel send, Close holds the
	// write side while closing quit. Without it a send could land after
	// Close drained the queue, leaking the claim and the inflight count
	// (WaitIdle would spin forever).
	closeMu   sync.RWMutex
	inflight  atomic.Int64 // queued + running background stitches
	genericMu sync.Mutex
	generics  []genericSlot

	asyncStitches atomic.Uint64
	fallbackRuns  atomic.Uint64
	queueRejects  atomic.Uint64
	asyncDiscards atomic.Uint64
	promoteHist   [PromoteBuckets]atomic.Uint64

	// Speculative promotion state for Auto regions (see promote.go).
	// auto is nil unless the program has at least one Auto region;
	// everything here is inert otherwise.
	auto       []autoState
	promotions atomic.Uint64
	deopts     atomic.Uint64

	// Persistent (level-0) store state (see store.go). storeOps and
	// storeQuit are nil unless CacheOptions.Store is set; everything here
	// is inert otherwise.
	storeOps       chan storeOp
	storeQuit      chan struct{}
	storeOnce      sync.Once
	storeCloseOnce sync.Once
	// storeCloseMu serializes publish enqueues against closeStore, exactly
	// as closeMu does for the async stitch queue.
	storeCloseMu  sync.RWMutex
	storeInflight atomic.Int64 // queued + running store operations
	storeFpMu     sync.Mutex
	storeFp       [][]byte // per-region template fingerprints, lazily derived

	storeHits     atomic.Uint64
	storeMisses   atomic.Uint64
	storePutCount atomic.Uint64
	storeErrors   atomic.Uint64
}

// New creates a runtime for prog with the given region metadata.
func New(prog *vm.Program, regions []*tmpl.Region, opts Options) *Runtime {
	rt := &Runtime{
		Prog:           prog,
		Regions:        regions,
		Opts:           opts,
		Stitched:       map[int][]*vm.Segment{},
		stitchedSeen:   map[*vm.Segment]struct{}{},
		SetupFn:        map[int]func(m *vm.Machine) (int64, uint64, error){},
		KeySetup:       map[int]func(keyVals []int64) (mem []int64, tbl int64, err error){},
		shards:         make([]shard, numShards(opts.Cache.Shards)),
		gens:           make([]atomic.Uint64, len(regions)),
		regionResident: make([]atomic.Int64, len(regions)),
		regionBytes:    make([]atomic.Int64, len(regions)),
	}
	for i := range rt.shards {
		rt.shards[i].entries = map[cacheKey]*entry{}
	}
	if opts.Cache.AsyncStitch {
		q := opts.Cache.StitchQueue
		if q <= 0 {
			q = DefaultStitchQueue
		}
		rt.jobs = make(chan stitchJob, q)
		rt.quit = make(chan struct{})
		rt.generics = make([]genericSlot, len(regions))
	}
	if opts.Cache.Store != nil {
		q := opts.Cache.StoreQueue
		if q <= 0 {
			q = DefaultStoreQueue
		}
		rt.storeOps = make(chan storeOp, q)
		rt.storeQuit = make(chan struct{})
		rt.storeFp = make([][]byte, len(regions))
	}
	if hasAuto(regions) {
		rt.initAuto()
	}
	return rt
}

// Invalidate flushes every cached specialization of region, across the
// shared cache and (via the generation check on their next DYNENTER) every
// attached machine's private cache. Use it when data a non-shareable
// region specialized on has changed, or to force re-stitching after an
// external table update. In-flight stitches complete and are delivered to
// their waiters — they began before the invalidation — but are not
// retained.
func (rt *Runtime) Invalidate(region int) {
	if region < 0 || region >= len(rt.gens) {
		return
	}
	rt.gens[region].Add(1)
	rt.invalidations.Add(1)
	// Persisted digests of the old generation become unreachable (the
	// generation participates in the digest), but generation counters are
	// process-local: delete the digest each resident entry was persisted or
	// loaded under, so a future process restarting at that generation
	// cannot resurrect it (best-effort; see store.go). In-flight entries
	// are just unmapped: publish sees the flush and declines to retain.
	var stale []storeOp
	for i := range rt.shards {
		sh := &rt.shards[i]
		sh.mu.Lock()
		for ck, e := range sh.entries {
			if ck.region != region {
				continue
			}
			if e.slot >= 0 && rt.storeEnabled() {
				stale = append(stale, storeOp{region: region, gen: e.storeGen, key: ck.key})
			}
			sh.dropLocked(rt, e)
		}
		sh.mu.Unlock()
	}
	for _, op := range stale {
		rt.enqueueStore(op)
	}
}

// InvalidateKey flushes one specialization of region, identified by its
// key-register values (the values the region's key variables had when it
// was stitched). The region's generation is bumped, so machines drop their
// private copies of *all* the region's specializations on next entry — but
// every key except this one is still resident in the shared cache and is
// re-adopted without a stitch; only the invalidated key pays a re-stitch.
func (rt *Runtime) InvalidateKey(region int, keyVals ...int64) {
	if region < 0 || region >= len(rt.gens) {
		return
	}
	ck := cacheKey{region: region, key: encodeKey(keyVals)}
	// Bump before unmapping so a racing publish observes the new
	// generation and declines to retain.
	gen := rt.gens[region].Add(1)
	rt.invalidations.Add(1)
	// Orphaning by generation only protects this process; the persisted
	// blob must go too, or a restarted process (generation counter back at
	// an old value) could serve the invalidated specialization. A resident
	// key's blob is named by the generation it was persisted or loaded
	// under; any other key's, by the previous generation.
	del := gen - 1
	for i := range rt.shards {
		sh := &rt.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.region != region {
				continue
			}
			if k == ck {
				if e.slot >= 0 {
					del = e.storeGen
				}
				sh.dropLocked(rt, e)
				continue
			}
			// Sibling keys were not invalidated: refresh their
			// generation snapshot so lookups keep serving them and an
			// in-flight stitch still publishes. (A lookup racing ahead
			// of this sweep may drop one as stale; that only costs a
			// re-stitch, never a wrong result.)
			e.gen = gen
		}
		sh.mu.Unlock()
	}
	rt.enqueueStore(storeOp{region: region, gen: del, key: ck.key})
}

// Generation returns region's current generation number (diagnostics).
func (rt *Runtime) Generation(region int) uint64 {
	if region < 0 || region >= len(rt.gens) {
		return 0
	}
	return rt.gens[region].Load()
}

// l2slot is one level-2 cache slot; ref is the second-chance bit, set on
// every warm hit and consumed by the eviction scan.
type l2slot struct {
	seg *vm.Segment
	ref bool
}

// l2ref names a level-2 slot in the machine's FIFO eviction queue.
type l2ref struct {
	region int
	key    string
}

// machineState is the level-2 cache plus scratch state of one attached
// machine. It is touched only by the machine's own goroutine.
type machineState struct {
	cache    []map[string]*l2slot // region -> key bytes -> slot
	pending  []string             // region -> key awaiting DYNSTITCH
	fallback []bool               // region -> DYNSTITCH takes the generic tier
	mono     []*vm.Segment        // region -> monomorphic segment (promoted Auto regions)
	keyBuf   []byte               // reusable key-encoding buffer
	gen      []uint64             // per-region generation snapshot
	fifo     []l2ref              // insertion order for second-chance eviction
	count    int                  // live slots across regions
	max      int                  // CacheOptions.MachineMaxEntries (0 = unbounded)
}

func newMachineState(rt *Runtime) *machineState {
	n := len(rt.Regions)
	ms := &machineState{
		cache:    make([]map[string]*l2slot, n),
		pending:  make([]string, n),
		fallback: make([]bool, n),
		mono:     make([]*vm.Segment, n),
		keyBuf:   make([]byte, 0, 64),
		gen:      make([]uint64, n),
		max:      rt.Opts.Cache.MachineMaxEntries,
	}
	for i := range ms.gen {
		ms.gen[i] = rt.gens[i].Load()
	}
	return ms
}

func (ms *machineState) put(rt *Runtime, region int, key string, seg *vm.Segment) {
	if ms.cache[region] == nil {
		ms.cache[region] = map[string]*l2slot{}
	}
	if _, ok := ms.cache[region][key]; !ok {
		if ms.max > 0 {
			for ms.count >= ms.max && ms.evictOne(rt) {
			}
		}
		ms.count++
		ms.fifo = append(ms.fifo, l2ref{region: region, key: key})
	}
	ms.cache[region][key] = &l2slot{seg: seg}
}

// evictOne drops one level-2 slot with second-chance FIFO: the oldest slot
// is evicted unless it has been referenced since it was queued, in which
// case its bit is cleared and it goes to the back. Queue entries whose
// slot is gone (region flush, Reset) are skipped and discarded.
func (ms *machineState) evictOne(rt *Runtime) bool {
	limit := 2*len(ms.fifo) + 1
	for scanned := 0; scanned < limit && len(ms.fifo) > 0; scanned++ {
		ref := ms.fifo[0]
		ms.fifo = ms.fifo[1:]
		slot, ok := ms.cache[ref.region][ref.key]
		if !ok {
			continue // stale: flushed or already evicted
		}
		if slot.ref {
			slot.ref = false
			ms.fifo = append(ms.fifo, ref)
			continue
		}
		delete(ms.cache[ref.region], ref.key)
		ms.count--
		rt.l2Evictions.Add(1)
		return true
	}
	return false
}

// flushRegion drops the machine's cached specializations of one region
// (generation mismatch). Queue entries go stale and are skipped by
// evictOne; compact() bounds their accumulation.
func (ms *machineState) flushRegion(region int, gen uint64) {
	ms.count -= len(ms.cache[region])
	ms.cache[region] = nil
	ms.pending[region] = ""
	ms.fallback[region] = false
	ms.mono[region] = nil
	ms.gen[region] = gen
	ms.compact()
}

// compact rebuilds the FIFO without stale references once they could
// outnumber live slots; without it, repeated invalidation cycles would
// grow the queue unboundedly even though the cache itself is bounded.
func (ms *machineState) compact() {
	if len(ms.fifo) <= 2*ms.count+64 {
		return
	}
	live := ms.fifo[:0]
	for _, ref := range ms.fifo {
		if _, ok := ms.cache[ref.region][ref.key]; ok {
			live = append(live, ref)
		}
	}
	ms.fifo = live
}

// Attach wires the runtime into machine m. Each attached machine may be
// driven by its own goroutine; Attach itself must not race with that
// machine's execution.
func (rt *Runtime) Attach(m *vm.Machine) {
	ms := newMachineState(rt)
	m.OnDynEnter = func(m *vm.Machine, region int) (*vm.Segment, error) {
		// Hot path: one atomic generation load, then encode the key into
		// the reusable buffer and look it up in the per-machine cache.
		// Zero locks, zero allocations (TestDynEnterZeroAlloc).
		r := rt.Regions[region]
		if g := rt.gens[region].Load(); g != ms.gen[region] {
			ms.flushRegion(region, g) // invalidated since we last looked
		}
		if r.Auto && rt.auto != nil {
			return rt.autoEnter(m, ms, region, r)
		}
		key := appendKey(ms.keyBuf[:0], m, r)
		ms.keyBuf = key
		if slot, ok := ms.cache[region][string(key)]; ok {
			slot.ref = true
			return slot.seg, nil
		}
		return rt.enterCold(m, ms, region, key)
	}
	m.OnDynStitch = func(m *vm.Machine, region int) (*vm.Segment, error) {
		key := ms.pending[region]
		ms.pending[region] = ""
		if ms.fallback[region] {
			// The stitch is happening (or queued) on a background worker:
			// run this call on the generic tier. The table base the inline
			// set-up left in RScratch is exactly what the generic segment's
			// preamble expects.
			ms.fallback[region] = false
			rt.fallbackRuns.Add(1)
			return rt.generic(region), nil
		}
		if r := rt.Regions[region]; r.Auto && rt.auto != nil && !rt.isPromoted(region) {
			// Profiling state of an Auto region: run on the generic tier so
			// an unstable region never pays specialization costs. Regions
			// the generic renderer cannot express stitch inline as always.
			if gseg := rt.generic(region); gseg != nil {
				rt.fallbackRuns.Add(1)
				return gseg, nil
			}
		}
		return rt.stitchNow(m, ms, region, key, m.Regs[vm.RScratch])
	}
	m.OnReset = func(m *vm.Machine) {
		// The machine's memory (and so its constants tables and input data
		// structures) is being wiped: this machine's cached specializations
		// are stale. Shared (level-1) segments survive — a Shareable
		// region's stitched code depends only on its key bytes, never on
		// the memory being wiped.
		for i := range ms.cache {
			ms.cache[i] = nil
			ms.pending[i] = ""
			ms.fallback[i] = false
			ms.mono[i] = nil
			ms.gen[i] = rt.gens[i].Load()
		}
		ms.fifo = nil
		ms.count = 0
	}
	if rt.auto != nil {
		m.OnDeopt = func(m *vm.Machine, region int) {
			// A GUARD failed in this machine's stitched copy: demote the
			// region runtime-wide (bumping its generation so stale stitches
			// are orphaned everywhere), then flush this machine's copies
			// immediately — its next DYNENTER must not resurrect the
			// segment the guard just rejected.
			rt.onDeopt(region)
			ms.flushRegion(region, rt.gens[region].Load())
		}
	}
}

// enterCold handles a DYNENTER whose key missed the per-machine cache:
// consult the shared cache, then fall back to set-up + stitch.
func (rt *Runtime) enterCold(m *vm.Machine, ms *machineState, region int,
	key []byte) (*vm.Segment, error) {

	ks := string(key)
	var gseg *vm.Segment
	if rt.shared(rt.Regions[region]) {
		if seg := rt.lookupShared(region, ks); seg != nil {
			// Another machine already stitched this exact specialization.
			// Adopt it: no set-up runs, no stitch cost is charged — the
			// paper's overhead was paid once, program-wide.
			ms.put(rt, region, ks, seg)
			return seg, nil
		}
		// Async stitching: the stitch is queued (or in flight) on a
		// background worker; this call runs on the generic tier and the
		// next call after publish adopts the stitched segment via the
		// shared-cache lookup above. The generic segment is never
		// installed in the level-2 map — it must not shadow promotion.
		gseg = rt.asyncFallback(region, ks)
	}
	setup := rt.SetupFn[region]
	if setup == nil {
		// Run inline set-up; DYNSTITCH then stitches, or takes the generic
		// tier when a background worker does.
		ms.pending[region] = ks
		ms.fallback[region] = gseg != nil
		return nil, nil
	}
	// Merged set-up: build the table host-side; the inline VM set-up code
	// never runs.
	tbl, cost, err := setup(m)
	if err != nil {
		return nil, fmt.Errorf("merged set-up %s: %w", rt.Regions[region].Name, err)
	}
	rc := m.Region(region)
	rc.SetupCycles += cost
	m.Cycles += cost
	if gseg != nil {
		// The generic segment's preamble reads the table from RScratch,
		// exactly where inline set-up would have left it.
		m.Regs[vm.RScratch] = tbl
		rt.fallbackRuns.Add(1)
		return gseg, nil
	}
	return rt.stitchNow(m, ms, region, ks, tbl)
}

// shared reports whether region r participates in the cross-machine cache.
func (rt *Runtime) shared(r *tmpl.Region) bool {
	return r.Shareable && !rt.Opts.Cache.NoShare
}

// stitchNow produces the stitched segment for (region, key) against the
// table at tbl in m's memory, caches it, and accounts the modeled stitcher
// cost to m. A non-shareable region stitches privately. A shared region's
// stitch is singleflighted across machines: only the claim's winner
// produces (and is charged for) the segment; the others wait and adopt
// the result for free, exactly like a shared-cache hit. The window between
// claim and publish contains only host code (no VM execution), so waiters
// cannot be abandoned.
func (rt *Runtime) stitchNow(m *vm.Machine, ms *machineState, region int,
	key string, tbl int64) (*vm.Segment, error) {

	r := rt.Regions[region]
	var (
		seg   *vm.Segment
		stats *stitcher.Stats
		err   error
	)
	src := tableSource{mem: m.Mem, base: tbl}
	if !rt.shared(r) {
		seg, stats, err = rt.produce(region, key, 0, src)
		if err == nil {
			rt.recordStats(region, key, stats)
		}
	} else if e, gen, won := rt.claim(region, key); won {
		seg, stats, err = rt.produce(region, key, gen, src)
		rt.publish(e, gen, seg, stats, err)
	} else {
		<-e.done
		// A failed stitch is deterministic for a shareable region (the
		// output depends only on the key), so propagate the winner's error
		// rather than re-running a stitch that would fail identically.
		seg, err = e.seg, e.err
	}
	if err != nil {
		return nil, fmt.Errorf("stitch region %s: %w", r.Name, err)
	}
	ms.put(rt, region, key, seg)
	rt.keepStitched(region, seg)

	if stats != nil {
		// This goroutine ran the stitcher: account the modeled cost.
		rc := m.Region(region)
		rc.StitchCycles += stats.CyclesModeled
		rc.StitchedInsts += uint64(stats.InstsStitched)
		rc.Compiles++
		m.Cycles += stats.CyclesModeled
	}
	return seg, nil
}

// countStencil tallies which emission path a successful stitch ran on, so
// CacheStats.StencilStitches covers every tier (produce is its one caller).
func (rt *Runtime) countStencil(stats *stitcher.Stats) {
	if stats != nil && stats.StencilPath {
		rt.stencilStitches.Add(1)
	}
}

// keepStitched retains seg for diagnostics. Dedup is a set membership test
// (the seed scanned the region's whole slice per stitch — O(n) and
// unbounded), and total retention is capped at KeepStitchedCap: once full,
// later segments are not retained.
func (rt *Runtime) keepStitched(region int, seg *vm.Segment) {
	if !rt.Opts.Cache.KeepStitched {
		return
	}
	rt.stitchedMu.Lock()
	defer rt.stitchedMu.Unlock()
	if _, ok := rt.stitchedSeen[seg]; ok {
		return // adopted from the shared cache; already recorded
	}
	max := rt.Opts.Cache.KeepStitchedCap
	if max <= 0 {
		max = DefaultKeepStitchedCap
	}
	if rt.stitchedN >= max {
		return
	}
	rt.stitchedSeen[seg] = struct{}{}
	rt.stitchedN++
	rt.Stitched[region] = append(rt.Stitched[region], seg)
}
