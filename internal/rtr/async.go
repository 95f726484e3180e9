// Asynchronous background stitching (CacheOptions.AsyncStitch): the
// tiered-execution pipeline that takes stitching off the caller's critical
// path.
//
// With async stitching on, a shared-cache miss of an eligible region does
// not stitch inline. Instead the missing machine:
//
//  1. claims the (region, key) singleflight entry (coalescing with the
//     existing latch: concurrent missers of the same key schedule exactly
//     one stitch) and enqueues a job on a bounded queue served by a small
//     worker pool — with backpressure: a full queue withdraws the claim,
//     counts a QueueReject, and leaves the key for a later miss to retry;
//  2. runs this call on the generic fallback tier (set-up code plus the
//     region's unspecialized stitcher.Generic segment), so the call
//     completes at roughly statically-compiled speed while the stitch
//     happens elsewhere.
//
// A worker re-derives the region's run-time constants table from the key
// bytes alone (Runtime.KeySetup, installed by the compiler for regions it
// proved Shareable — set-up provably depends only on the key values, so
// the worker needs no machine), stitches against a private arena, and
// publishes: it runs the inline winner's own produce and publish steps, so
// the store consult and the generation fencing are the same code. An entry
// invalidated (or explicitly flushed) while in flight is discarded, never
// published (CacheStats.AsyncDiscards).
// Eviction interacts as always — in-flight entries are pinned because only
// published entries join the CLOCK ring, and publishing makes room first.
//
// Promotion: the published entry is found by the very next lookupShared of
// that key, and the adopting machine installs it in its level-2 map, so
// the call after publish takes the warm zero-alloc DYNENTER path
// (TestAsyncPromotionNextCall). PromoteLatency histograms the
// schedule-to-publish time.
//
// Eligibility is per region: AsyncStitch on, a KeySetup function present,
// and the generic segment buildable (regions with more unrolled loops than
// the reserved record registers, or holes the generic renderer cannot
// defer, fall back to inline stitching — never to a wrong result).
package rtr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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

var (
	errAsyncQueueFull = errors.New("rtr: async stitch queue full")
	errRuntimeClosed  = errors.New("rtr: runtime closed")
)

// stitchJob is one queued background stitch. The entry was already claimed
// (mapped in its shard) by the scheduling machine.
type stitchJob struct {
	region int
	key    string
	e      *entry
	enq    time.Time
}

// genericSlot lazily caches a region's generic-tier segment (guarded by
// Runtime.genericMu). seg stays nil when the region cannot be rendered
// generically; the region then stitches inline.
type genericSlot struct {
	built bool
	seg   *vm.Segment
}

// asyncFallback decides whether a cold (region, key) takes the async path.
// If so it ensures a background stitch is scheduled (or already in flight)
// and returns the generic segment the caller should execute; nil means
// "stitch inline as always".
func (rt *Runtime) asyncFallback(region int, ks string) *vm.Segment {
	if rt.jobs == nil || rt.KeySetup[region] == nil {
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
	rt.genericMu.Lock()
	defer rt.genericMu.Unlock()
	if !gs.built {
		gs.built = true
		r := rt.Regions[region]
		seg, err := stitcher.Generic(r, rt.Prog.Segs[r.FuncID], rt.Opts.Stitcher)
		if err == nil {
			gs.seg = seg
		}
	}
	return gs.seg
}

// schedule claims the singleflight entry for (region, key) and enqueues a
// background stitch. If the key is already resident, in flight or queued,
// it coalesces (no-op). If the queue is full, the claim is withdrawn
// (backpressure): callers stay on the fallback tier and a later miss
// retries.
func (rt *Runtime) schedule(region int, ks string) {
	e, _, won := rt.claim(region, ks)
	if !won {
		return
	}
	// The quit-check and the send happen under closeMu's read side so they
	// are atomic with respect to Close: either the job is enqueued before
	// Close closes quit (and Close's drain fails it), or the closed quit is
	// observed here and the claim is withdrawn. Without this a send racing
	// Close could land after the drain, leaking the claim and the inflight
	// count forever (WaitIdle would never return).
	rt.closeMu.RLock()
	select {
	case <-rt.quit:
		// Closed: the queue is no longer drained, so enqueueing would leak
		// the claim forever. Withdraw it; callers keep running on the
		// fallback tier.
		rt.closeMu.RUnlock()
		rt.withdraw(e, errRuntimeClosed)
		return
	default:
	}
	rt.startWorkers()
	rt.inflight.Add(1)
	select {
	case rt.jobs <- stitchJob{region: region, key: ks, e: e, enq: time.Now()}:
		rt.closeMu.RUnlock()
	default:
		rt.closeMu.RUnlock()
		rt.inflight.Add(-1)
		rt.queueRejects.Add(1)
		rt.withdraw(e, errAsyncQueueFull)
	}
}

// withdraw fails a claimed entry that will never be produced (queue full,
// runtime closed) and unmaps it, so a later miss can claim the key again.
func (rt *Runtime) withdraw(e *entry, reason error) {
	e.err = reason
	sh := rt.shardFor(e.key.region, e.key.key)
	sh.mu.Lock()
	sh.dropLocked(rt, e)
	sh.mu.Unlock()
	close(e.done)
}

// startWorkers spawns the worker pool on first use (so a runtime that
// never schedules a stitch never owns a goroutine).
func (rt *Runtime) startWorkers() {
	rt.workerOnce.Do(func() {
		n := rt.Opts.Cache.StitchWorkers
		if n <= 0 {
			n = DefaultStitchWorkers
		}
		for i := 0; i < n; i++ {
			go rt.worker()
		}
	})
}

func (rt *Runtime) worker() {
	for {
		select {
		case <-rt.quit:
			return
		case job := <-rt.jobs:
			rt.runJob(job)
		}
	}
}

// runJob performs one background stitch through the inline winner's own
// produce and publish steps. The table source is the region's KeySetup,
// resolved only after a store miss. The store is consulted under a fresh
// generation load, not e.gen: e is shared with InvalidateKey's sibling
// sweep, which refreshes e.gen under the shard lock. A store adoption
// counts as neither an async stitch nor a discard — nothing was stitched.
func (rt *Runtime) runJob(job stitchJob) {
	defer rt.inflight.Add(-1)
	gen := rt.gens[job.region].Load()
	seg, stats, err := rt.produce(job.region, job.key, gen, tableSource{})
	kept := rt.publish(job.e, gen, seg, stats, err)
	if err != nil {
		return
	}
	if stats != nil {
		rt.asyncStitches.Add(1)
	}
	if !kept {
		// Invalidated (or explicitly flushed) while in flight, or the full
		// cache had nothing to evict. Unlike the inline path there are no
		// waiters to serve — fallback callers never block on the latch.
		if stats != nil {
			rt.asyncDiscards.Add(1)
		}
		return
	}
	rt.notePromote(time.Since(job.enq))
	rt.keepStitched(job.region, seg)
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
// Close: Close fails queued jobs (decrementing the in-flight count) and
// drains the store queue, so a WaitIdle racing it still terminates.
func (rt *Runtime) WaitIdle() {
	for (rt.jobs != nil && rt.inflight.Load() > 0) ||
		(rt.storeOps != nil && rt.storeInflight.Load() > 0) {
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
	rt.closeAsync()
	rt.closeStore()
}

func (rt *Runtime) closeAsync() {
	if rt.quit == nil {
		return
	}
	rt.closeOnce.Do(func() {
		// Exclude in-flight enqueues (see schedule): after this unlock,
		// every job that won the race is in the queue and every loser has
		// withdrawn its claim, so the drain below is complete.
		rt.closeMu.Lock()
		close(rt.quit)
		rt.closeMu.Unlock()
		for {
			select {
			case job := <-rt.jobs:
				rt.withdraw(job.e, errRuntimeClosed)
				rt.inflight.Add(-1)
			default:
				return
			}
		}
	})
}

// Peek returns the published shared-cache segment for (region, key-values)
// without touching the lookup counters or reference bits — a diagnostics
// accessor (is this specialization resident?) used by the byte-identity
// tests.
func (rt *Runtime) Peek(region int, keyVals ...int64) *vm.Segment {
	ks := encodeKey(keyVals)
	sh := rt.shardFor(region, ks)
	ck := cacheKey{region: region, key: ks}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[ck]
	if !ok {
		return nil
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil
		}
		return e.seg
	default:
		return nil
	}
}
