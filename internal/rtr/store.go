// Persistent (level-0) cache tier: a content-addressed segio.Store
// consulted behind the sharded level-1 cache, so a restarted server — or a
// different process sharing the store — adopts previously stitched
// segments instead of re-stitching its whole hot set.
//
// # Digest derivation
//
// A stitched shareable segment is a pure function of (region templates,
// stitcher options, parent segment, key tuple). The digest that names it
// in the store is SHA-256 over
//
//	fingerprint(region) || generation || key bytes
//
// where fingerprint(region) is itself SHA-256 over the segio encoding
// version, the stitcher options, the region's key registers, the full
// template dump, and the segio encoding of the region's parent segment —
// everything the stitcher's output depends on besides the key. Two
// processes compiled from the same source derive the same fingerprint and
// so share entries; any divergence (different optimization flags, a
// recompiled program, a segio format bump) changes the fingerprint and
// simply misses — the store can never serve bytes stitched under different
// assumptions.
//
// # Generations
//
// The per-region generation participates in the digest, so Invalidate /
// InvalidateKey orphan every persisted digest of the old generation: the
// new generation derives new digests and the old blobs become unreachable
// garbage (never resurrected within the process). Because generation
// counters are process-local and restart at zero, InvalidateKey
// additionally enqueues a best-effort Delete of the invalidated digest —
// otherwise a pre-invalidation blob persisted at generation g could be
// served by a *future* process whose counter is back at g. Invalidate
// likewise deletes the digests of the resident entries it sweeps. Each
// resident entry records the generation its blob was persisted or loaded
// under (entry.storeGen), which sibling sweeps never refresh, so both
// delete the blob that exists. Both are
// best-effort (a full publish queue drops them); callers that need
// stronger cross-restart coherence should fold a data version into the
// region key itself.
//
// # Hot-path discipline
//
// The store is consulted only in produce — after a singleflight claim
// (inline winner) or at the head of a background job — never on the
// DYNENTER lookup path, so the warm path is untouched and concurrent
// missers of one key pay one store read. Publishes back to the store
// (and deletes) run on the runtime's store queue, a workQueue (queue.go)
// of DefaultStoreQueue pending operations served by one publisher: the
// stitch path enqueues and moves on, never blocking on I/O. A full queue
// drops the operation (counted in StoreErrors). Close drains the queue
// executing the pending writes, then waits for the one the publisher is
// running, so a clean shutdown persists everything that was accepted.
package rtr

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"dyncc/internal/segio"
	"dyncc/internal/vm"
)

// DefaultStoreQueue bounds the pending store-publish queue. The stitch
// path never blocks on store I/O, so an operation beyond the bound is
// dropped (counted in CacheStats.StoreErrors) rather than held.
const DefaultStoreQueue = 256

// storeOp is one queued store operation: a segment publish (put) or a
// digest delete. Digests are derived by the publisher goroutine, off the
// stitch path.
type storeOp struct {
	put    bool
	region int
	gen    uint64
	key    string
	seg    *vm.Segment // put only; immutable once published
}

// storeEnabled reports whether the level-0 tier is configured.
func (rt *Runtime) storeEnabled() bool { return rt.storeQ != nil }

// fingerprint returns the region's template fingerprint, computing it on
// first use (guarded by storeFpMu; the result is immutable after).
func (rt *Runtime) fingerprint(region int) []byte {
	rt.storeFpMu.Lock()
	defer rt.storeFpMu.Unlock()
	if fp := rt.storeFp[region]; fp != nil {
		return fp
	}
	r := rt.Regions[region]
	h := sha256.New()
	fmt.Fprintf(h, "segio v%d\n", segio.Version)
	fmt.Fprintf(h, "stitcher %+v\n", rt.Opts.Stitcher)
	fmt.Fprintf(h, "keyregs %v\n", r.KeyRegs)
	io.WriteString(h, r.Dump())
	h.Write(segio.Encode(rt.Prog.Segs[r.FuncID]))
	fp := h.Sum(nil)
	rt.storeFp[region] = fp
	return fp
}

// storeDigest names one (region, generation, key) specialization in the
// store.
func (rt *Runtime) storeDigest(region int, gen uint64, key string) segio.Digest {
	h := sha256.New()
	h.Write(rt.fingerprint(region))
	var g [8]byte
	binary.BigEndian.PutUint64(g[:], gen)
	h.Write(g[:])
	io.WriteString(h, key)
	var d segio.Digest
	h.Sum(d[:0])
	return d
}

// storeLoad consults the store for (region, gen, key) and returns the
// decoded, parent-relinked segment, or nil on miss or any error. Exactly
// one of StoreHits / StoreMisses / StoreErrors is incremented per call. A
// blob that fails to decode (corruption, format drift the digest somehow
// missed) is deleted so it cannot keep failing.
func (rt *Runtime) storeLoad(region int, gen uint64, key string) *vm.Segment {
	d := rt.storeDigest(region, gen, key)
	data, err := rt.Opts.Cache.Store.Get(d)
	if err != nil {
		rt.storeErrors.Add(1)
		return nil
	}
	if data == nil {
		rt.storeMisses.Add(1)
		return nil
	}
	seg, err := segio.Decode(data)
	if err != nil {
		rt.storeErrors.Add(1)
		rt.enqueueStore(storeOp{region: region, gen: gen, key: key})
		return nil
	}
	seg.Parent = rt.Prog.Segs[rt.Regions[region].FuncID]
	rt.storeHits.Add(1)
	return seg
}

// storePut schedules an asynchronous publish of seg to the store.
func (rt *Runtime) storePut(region int, gen uint64, key string, seg *vm.Segment) {
	rt.enqueueStore(storeOp{put: true, region: region, gen: gen, key: key, seg: seg})
}

// enqueueStore hands op to the publisher. An op pushed after Close is
// dropped; a full queue drops the op and counts a StoreError.
func (rt *Runtime) enqueueStore(op storeOp) {
	if rt.storeEnabled() && rt.storeQ.push(op) == errQueueFull {
		rt.storeErrors.Add(1)
	}
}

// runStoreOp executes one queued operation (publisher goroutine, or the
// closeStore drain).
func (rt *Runtime) runStoreOp(op storeOp) {
	d := rt.storeDigest(op.region, op.gen, op.key)
	if !op.put {
		if err := rt.Opts.Cache.Store.Delete(d); err != nil {
			rt.storeErrors.Add(1)
		}
		return
	}
	if err := rt.Opts.Cache.Store.Put(d, segio.Encode(op.seg)); err != nil {
		rt.storeErrors.Add(1)
		return
	}
	rt.storePutCount.Add(1)
}

// closeStore stops the publisher and drains the queue, *executing* the
// pending operations (a queued put represents a stitch the process paid
// for; dropping it on shutdown would forfeit the warm restart this tier
// exists for). It then waits out any operation the publisher had already
// dequeued, so when Close returns every accepted put is in the store.
func (rt *Runtime) closeStore() {
	rt.storeQ.close(rt.runStoreOp)
	for !rt.storeQ.idle() {
		time.Sleep(20 * time.Microsecond)
	}
}
