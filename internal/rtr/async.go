// Asynchronous background stitching (CacheOptions.AsyncStitch): the
// tiered-execution pipeline that takes stitching off the caller's critical
// path (DESIGN.md "Tiered execution").
//
// A shared-cache miss of an eligible region claims the (region, key)
// singleflight entry, so concurrent missers schedule one stitch, and
// pushes a job on the runtime's stitch queue, a workQueue (queue.go)
// served by StitchWorkers workers; a full queue withdraws the claim
// (CacheStats.QueueRejects) and a later miss retries. The call itself runs
// on the generic fallback tier (set-up code plus the region's
// stitcher.Generic segment). A worker rebuilds the region's run-time
// constants table from the key bytes alone (Runtime.KeySetup, installed
// for regions proved Shareable), then runs the inline winner's own produce
// and publish steps, so the store consult, the generation fence and the
// caps are the same code; an entry invalidated in flight is discarded
// (CacheStats.AsyncDiscards). The next lookup of the key adopts the
// published segment into its machine's level-2 cache
// (TestAsyncPromotionNextCall); PromoteLatency histograms the
// schedule-to-publish time. Close fails the jobs still queued, withdrawing
// their claims.
//
// Eligibility is per region: AsyncStitch on, a KeySetup function present,
// and the generic segment buildable; any other region stitches inline.
package rtr

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"dyncc/internal/stitcher"
	"dyncc/internal/vm"
)

// DefaultStitchWorkers sizes the background stitcher pool when
// CacheOptions.StitchWorkers is zero. Two workers keep cold-burst queues
// draining even while one stitch is long (a deeply unrolled region)
// without competing with the machines for more than a sliver of CPU.
const DefaultStitchWorkers = 2

// DefaultStitchQueue bounds the pending-stitch queue when
// CacheOptions.StitchQueue is zero.
const DefaultStitchQueue = 64

// PromoteBuckets is the size of the PromoteLatency histogram: bucket i
// counts publishes whose schedule-to-publish latency was in
// [2^(i-1), 2^i) nanoseconds (bucket 0: < 1ns).
const PromoteBuckets = 40

// stitchJob is one queued background stitch of e.key. The entry was
// already claimed (mapped in its shard) by the scheduling machine.
type stitchJob struct {
	e   *entry
	enq time.Time
}

// genericSlot lazily caches a region's generic-tier segment, built once.
// seg stays nil when the region cannot be rendered generically; the region
// then stitches inline.
type genericSlot struct {
	once sync.Once
	seg  *vm.Segment
}

// asyncFallback decides whether a cold (region, key) takes the async path.
// If so it ensures a background stitch is scheduled (or already in flight)
// and returns the generic segment the caller should execute; nil means
// "stitch inline as always".
func (rt *Runtime) asyncFallback(region int, ks string) *vm.Segment {
	if rt.stitchQ == nil || rt.KeySetup[region] == nil {
		return nil
	}
	gseg := rt.generic(region)
	if gseg == nil {
		return nil
	}
	rt.schedule(region, ks)
	return gseg
}

// generic returns the region's generic-tier segment, building it on first
// use (nil if the region cannot be rendered generically).
func (rt *Runtime) generic(region int) *vm.Segment {
	gs := &rt.generics[region]
	gs.once.Do(func() {
		r := rt.Regions[region]
		gs.seg, _ = stitcher.Generic(r, rt.Prog.Segs[r.FuncID], rt.Opts.Stitcher)
	})
	return gs.seg
}

// schedule claims the singleflight entry for (region, key) and enqueues a
// background stitch. If the key is already resident, in flight or queued,
// it coalesces (no-op). If the queue is full or closed, the claim is
// withdrawn (backpressure): callers stay on the fallback tier and a later
// miss retries.
func (rt *Runtime) schedule(region int, ks string) {
	e, _, won := rt.claim(region, ks)
	if !won {
		return
	}
	if err := rt.stitchQ.push(stitchJob{e: e, enq: time.Now()}); err != nil {
		if err == errQueueFull {
			rt.queueRejects.Add(1)
		}
		rt.withdraw(e, err)
	}
}

// withdraw fails a claimed entry that will never be produced (queue full,
// runtime closed) and unmaps it, so a later miss can claim the key again.
func (rt *Runtime) withdraw(e *entry, reason error) {
	sh := rt.shardFor(e.key.region, e.key.key)
	sh.mu.Lock()
	e.finishLocked(nil, reason)
	sh.dropLocked(rt, e)
	sh.mu.Unlock()
}

// runJob performs one background stitch through the inline winner's own
// produce and publish steps. The table source is the region's KeySetup,
// resolved only after a store miss. The store is consulted under a fresh
// generation load, not e.gen: e is shared with InvalidateKey's sibling
// sweep, which refreshes e.gen under the shard lock. A store adoption
// counts as neither an async stitch nor a discard — nothing was stitched.
func (rt *Runtime) runJob(job stitchJob) {
	region := job.e.key.region
	gen := rt.gens[region].Load()
	seg, stats, stitched, err := rt.produce(region, job.e.key.key, gen, tableSource{})
	kept := rt.publish(job.e, gen, seg, stats, stitched, err)
	if err != nil {
		return
	}
	if stitched {
		rt.asyncStitches.Add(1)
	}
	if !kept {
		// Invalidated (or explicitly flushed) while in flight, or the full
		// cache had nothing to evict. Unlike the inline path there are no
		// waiters to serve — fallback callers never block on the latch.
		if stitched {
			rt.asyncDiscards.Add(1)
		}
		return
	}
	rt.notePromote(time.Since(job.enq))
	rt.keepStitched(region, seg)
}

// decodeKey reverses appendKey/encodeKey: n varint-encoded key-register
// values.
func decodeKey(key string, n int) ([]int64, error) {
	vals := make([]int64, 0, n)
	buf := []byte(key)
	for len(buf) > 0 {
		v, sz := binary.Varint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("rtr: malformed key encoding")
		}
		vals = append(vals, v)
		buf = buf[sz:]
	}
	if len(vals) != n {
		return nil, fmt.Errorf("rtr: key has %d values, region wants %d", len(vals), n)
	}
	return vals, nil
}

// notePromote records one publish latency in the power-of-two histogram.
func (rt *Runtime) notePromote(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	b := bits.Len64(uint64(n))
	if b >= PromoteBuckets {
		b = PromoteBuckets - 1
	}
	rt.promoteHist[b].Add(1)
}

// WaitIdle blocks until no background stitch or store operation is queued
// or running. Jobs scheduled after WaitIdle starts are waited on too;
// quiesce the machines first if you need a stable point. It is a
// diagnostics/test aid, not a synchronization primitive. Safe to call
// concurrently from any number of goroutines and before, during or after
// Close: Close drains both queues, so a WaitIdle racing it still
// terminates.
func (rt *Runtime) WaitIdle() {
	for !rt.stitchQ.idle() || !rt.storeQ.idle() {
		time.Sleep(20 * time.Microsecond)
	}
}

// Close stops the background workers and fails every still-queued stitch
// (their entries are withdrawn so the keys can stitch again if the runtime
// keeps being used inline), then shuts down the persistent-store publisher,
// draining its queue by *executing* the pending writes — a clean Close
// persists every stitch the store accepted (see closeStore). Close is
// idempotent and a no-op for runtimes without AsyncStitch or a Store; it
// is safe to call concurrently from any number of goroutines, concurrently
// with WaitIdle, and while attached machines are still scheduling (late
// schedulers observe the closed runtime and stay on the fallback tier).
// Jobs already being stitched by a worker finish and publish normally.
func (rt *Runtime) Close() {
	rt.stitchQ.close(func(job stitchJob) { rt.withdraw(job.e, errRuntimeClosed) })
	rt.closeStore()
}

// Peek returns the resident shared-cache segment for (region, key-values)
// without touching the lookup counters or reference bits — a diagnostics
// accessor (is this specialization resident?) used by the byte-identity
// tests.
func (rt *Runtime) Peek(region int, keyVals ...int64) *vm.Segment {
	ks := encodeKey(keyVals)
	sh := rt.shardFor(region, ks)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.resident.peek(cacheKey{region: region, key: ks}); ok {
		return e.seg
	}
	return nil
}
