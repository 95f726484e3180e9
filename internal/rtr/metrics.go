// Observability for the two-level stitch cache: monotonic lifecycle
// counters folded across shards (CacheStats), the optional per-region
// churn histogram (Churn), and resident-footprint gauges. Everything here
// is a cold read path — the counters themselves are maintained under the
// per-shard locks the stitch path already takes (publish, recordStats), so
// observation adds no cost to dispatch.
package rtr

// CacheStats summarizes shared-cache behaviour across all shards. All
// counters are monotonic over the runtime's lifetime except the Resident
// gauges. The lookup counters obey
//
//	Lookups == SharedHits + Waits + FailedHits + Misses
//
// at every instant: each lookup is classified exactly once under its
// shard's lock (the seed counted an in-flight or failed entry as a miss
// *and* later as a wait, so misses overcounted and no invariant held).
type CacheStats struct {
	// Lookup classification (level-1 lookups by machines that missed
	// their private cache).
	Lookups    uint64 // total shared-cache lookups
	SharedHits uint64 // served by another machine's completed stitch
	Waits      uint64 // found an in-flight stitch to coalesce onto
	FailedHits uint64 // found a completed-but-failed entry (will retry)
	Misses     uint64 // found nothing (true misses)

	// Stitch outcomes. Stitches is a monotonic counter incremented at
	// stitch time (singleflight winners plus private stitches of
	// non-shareable regions); the seed derived it by scanning resident
	// entries, so failed stitches were never counted and every eviction
	// would have silently decremented it.
	Stitches       uint64
	FailedStitches uint64
	// StencilStitches counts successful stitches that ran on the
	// copy-and-patch fast path (counted in produce, so inline,
	// singleflighted and background stitches alike). Stitches -
	// StencilStitches ran the interpretive fallback — nonzero when
	// `-disable-pass stencil` is set or a region declined precompilation.
	StencilStitches uint64

	// Churn and lifecycle.
	Evictions     uint64 // capacity evictions from the shared cache
	Restitches    uint64 // stitches of keys recently evicted (lower bound; see evictLog)
	Invalidations uint64 // Invalidate/InvalidateKey calls
	L2Evictions   uint64 // per-machine (level-2) cache evictions, fleet-wide

	// Resident footprint of the shared cache (gauges, not counters).
	EntriesResident uint64 // completed segments currently cached
	BytesResident   uint64 // their code footprint (vm.Segment.MemFootprint)
	PeakEntries     uint64 // high-water mark of EntriesResident

	// Tiered execution (CacheOptions.AsyncStitch; all zero without it).
	// FallbackRuns is additive observability — it counts region executions
	// on the generic tier, not lookups, so the lookup invariant above is
	// untouched: a fallback run's lookup was already classified as a Miss
	// (it scheduled the stitch) or a Wait (it coalesced onto one).
	AsyncStitches uint64 // stitches completed by background workers
	FallbackRuns  uint64 // region executions on the generic fallback tier
	QueueRejects  uint64 // cold keys not enqueued because the queue was full
	AsyncDiscards uint64 // background stitches discarded by invalidation

	// PromoteLatency histograms the schedule-to-publish latency of
	// background stitches: bucket i counts publishes in [2^(i-1), 2^i) ns.
	PromoteLatency [PromoteBuckets]uint64

	// Speculative promotion of Auto regions (all zero without them; see
	// promote.go). Like FallbackRuns these are additive observability —
	// promotion happens at DYNENTER before any level-1 lookup and
	// deoptimization at a GUARD, so the lookup invariant above is
	// untouched. A deopt increments Invalidations too (demotion orphans
	// stale stitches through the regular invalidation path).
	Promotions uint64 // profiling→promoted transitions of Auto regions
	Deopts     uint64 // guard-failure demotions back to profiling

	// Persistent (level-0) store tier (CacheOptions.Store; all zero
	// without it). These extend — they do not alter — the lookup invariant
	// above: store consults happen in produce, after the level-1
	// lookup was already classified, and each consult increments exactly
	// one of StoreHits / StoreMisses / StoreErrors. A StoreHit is a stitch
	// avoided, so Stitches does not count it.
	StoreHits   uint64 // stitch sites served by a persisted segment
	StoreMisses uint64 // store consults that found nothing
	StorePuts   uint64 // segments successfully published to the store
	StoreErrors uint64 // store I/O or decode failures, plus dropped queue ops
}

// PromoteQuantile returns an upper bound on the q-quantile (0 < q <= 1) of
// the publish latency, from the power-of-two histogram. Zero if nothing
// was published.
func (cs *CacheStats) PromoteQuantile(q float64) uint64 {
	var total uint64
	for _, n := range cs.PromoteLatency {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want < 1 {
		want = 1
	}
	var seen uint64
	for i, n := range cs.PromoteLatency {
		seen += n
		if seen >= want {
			return uint64(1) << uint(i) // bucket upper bound in ns
		}
	}
	return uint64(1) << (PromoteBuckets - 1)
}

// RegionChurn is one row of the optional per-region churn histogram
// (CacheOptions.ChurnStats): how many stitches, capacity evictions and
// post-eviction re-stitches a region has seen. A region whose Evictions
// and Restitches both climb is thrashing — its working set of
// specializations exceeds the configured caps.
type RegionChurn struct {
	Region     int    `json:"region"`
	Stitches   uint64 `json:"stitches"`
	Evictions  uint64 `json:"evictions"`
	Restitches uint64 `json:"restitches"`
}

// CacheStats folds the shared-cache counters across shards.
func (rt *Runtime) CacheStats() CacheStats {
	var cs CacheStats
	for i := range rt.shards {
		sh := &rt.shards[i]
		sh.mu.Lock()
		cs.Lookups += sh.lookups
		cs.SharedHits += sh.hits
		cs.Waits += sh.waits
		cs.FailedHits += sh.failedHits
		cs.Misses += sh.misses
		cs.Stitches += sh.stitches
		cs.FailedStitches += sh.failedStitches
		cs.Evictions += sh.evictions
		cs.Restitches += sh.restitches
		sh.mu.Unlock()
	}
	cs.StencilStitches = rt.stencilStitches.Load()
	cs.Invalidations = rt.invalidations.Load()
	cs.L2Evictions = rt.l2Evictions.Load()
	cs.EntriesResident = uint64(rt.resident.Load())
	cs.BytesResident = uint64(rt.residentBytes.Load())
	cs.PeakEntries = uint64(rt.peakEntries.Load())
	cs.AsyncStitches = rt.asyncStitches.Load()
	cs.FallbackRuns = rt.fallbackRuns.Load()
	cs.QueueRejects = rt.queueRejects.Load()
	cs.AsyncDiscards = rt.asyncDiscards.Load()
	cs.StoreHits = rt.storeHits.Load()
	cs.StoreMisses = rt.storeMisses.Load()
	cs.StorePuts = rt.storePutCount.Load()
	cs.StoreErrors = rt.storeErrors.Load()
	cs.Promotions = rt.promotions.Load()
	cs.Deopts = rt.deopts.Load()
	for i := range rt.promoteHist {
		cs.PromoteLatency[i] = rt.promoteHist[i].Load()
	}
	return cs
}

// Churn folds the per-region churn histogram across shards. It returns nil
// unless CacheOptions.ChurnStats was set; rows are indexed by region.
func (rt *Runtime) Churn() []RegionChurn {
	if !rt.Opts.Cache.ChurnStats {
		return nil
	}
	out := make([]RegionChurn, len(rt.Regions))
	for i := range out {
		out[i].Region = i
	}
	for i := range rt.shards {
		sh := &rt.shards[i]
		sh.mu.Lock()
		for r := range sh.churn {
			if r >= len(out) {
				break
			}
			out[r].Stitches += sh.churn[r].Stitches
			out[r].Evictions += sh.churn[r].Evictions
			out[r].Restitches += sh.churn[r].Restitches
		}
		sh.mu.Unlock()
	}
	return out
}
