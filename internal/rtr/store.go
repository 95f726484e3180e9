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
// where fingerprint(region) is itself SHA-256 over a binary encoding of
// everything the stitcher's output depends on besides the key, in this
// order: the segio encoding version; the region's name, table size and
// entry block; each template block's code (every vm.Inst field), holes
// (pc, slot, Float), terminator (kind, condition register, constant slot,
// cases, successor edges) and loop id; the unrolled loops' table linkage;
// the key registers; the Auto flag and deoptimization pc (guard wrapping);
// the three stitcher.Options switches as bits; and the SHA-256 of the
// parent function's segio encoding. Integers are varints and every list is
// length-prefixed, so distinct inputs never encode to the same bytes.
//
// New derives the fingerprints once, and only when a store is configured
// and only for regions that consult it (shared ones), hashing each parent
// segment once per function. A compile that never configures a store pays
// nothing. Two processes compiled from the same source derive the same
// fingerprint and so share entries; any divergence (different
// optimization flags, a recompiled program, a segio format bump) changes
// the fingerprint and simply misses — the store can never serve bytes
// stitched under different assumptions.
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
	"time"

	"dyncc/internal/segio"
	"dyncc/internal/stitcher"
	"dyncc/internal/tmpl"
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

// regionFingerprints derives the fingerprint (see "Digest derivation") of
// every region that consults the store; the others' entries stay zero.
// Each parent segment is encoded and hashed once, however many regions it
// holds.
func (rt *Runtime) regionFingerprints() [][sha256.Size]byte {
	fps := make([][sha256.Size]byte, len(rt.Regions))
	parents := map[int][sha256.Size]byte{}
	b := make([]byte, 0, 1024) // reused for every region
	for i, r := range rt.Regions {
		if !rt.shared(r) {
			continue
		}
		parent, ok := parents[r.FuncID]
		if !ok {
			parent = sha256.Sum256(segio.Encode(rt.Prog.Segs[r.FuncID]))
			parents[r.FuncID] = parent
		}
		b = appendFingerprint(b[:0], r, rt.Opts.Stitcher)
		b = append(b, parent[:]...)
		fps[i] = sha256.Sum256(b)
	}
	return fps
}

// appendFingerprint appends the binary encoding of r's templates and the
// stitcher options that the fingerprint hashes, in the order "Digest
// derivation" lists.
func appendFingerprint(b []byte, r *tmpl.Region, opts stitcher.Options) []byte {
	b = binary.AppendUvarint(b, segio.Version)
	b = binary.AppendUvarint(b, uint64(len(r.Name)))
	b = append(b, r.Name...)
	b = binary.AppendVarint(b, int64(r.TableSize))
	b = binary.AppendVarint(b, int64(r.Entry))
	b = binary.AppendUvarint(b, uint64(len(r.Blocks)))
	for _, blk := range r.Blocks {
		b = binary.AppendUvarint(b, uint64(len(blk.Code)))
		for _, in := range blk.Code {
			b = append(b, byte(in.Op), byte(in.Rd), byte(in.Rs), byte(in.Rt),
				byte(in.Sub), in.XCost, in.XInsts)
			b = binary.AppendVarint(b, in.Imm)
			b = binary.AppendVarint(b, int64(in.Target))
		}
		b = binary.AppendUvarint(b, uint64(len(blk.Holes)))
		for _, h := range blk.Holes {
			b = binary.AppendVarint(b, int64(h.Pc))
			b = appendSlot(b, h.Slot)
			b = appendBits(b, h.Float)
		}
		t := &blk.Term
		b = binary.AppendVarint(b, int64(t.Kind))
		b = append(b, byte(t.CondReg))
		b = appendBits(b, t.ConstSlot != nil)
		if t.ConstSlot != nil {
			b = appendSlot(b, *t.ConstSlot)
		}
		b = binary.AppendUvarint(b, uint64(len(t.Cases)))
		for _, c := range t.Cases {
			b = binary.AppendVarint(b, c)
		}
		b = binary.AppendUvarint(b, uint64(len(t.Succs)))
		for _, e := range t.Succs {
			b = binary.AppendVarint(b, int64(e.Block))
			b = binary.AppendVarint(b, int64(e.ExitPC))
		}
		b = binary.AppendVarint(b, int64(blk.LoopID))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Loops)))
	for _, l := range r.Loops {
		b = binary.AppendVarint(b, int64(l.ID))
		b = binary.AppendVarint(b, int64(l.ParentID))
		b = appendSlot(b, l.HeaderSlot)
		b = binary.AppendVarint(b, int64(l.NextSlot))
		b = binary.AppendVarint(b, int64(l.RecordSize))
		b = binary.AppendVarint(b, int64(l.HeadBlock))
		b = binary.AppendVarint(b, int64(l.LatchBlock))
	}
	b = binary.AppendUvarint(b, uint64(len(r.KeyRegs)))
	for _, k := range r.KeyRegs {
		b = append(b, byte(k))
	}
	b = appendBits(b, r.Auto)
	b = binary.AppendVarint(b, int64(r.DeoptPC))
	return appendBits(b, opts.NoStrengthReduction, opts.NoFuse, opts.RegisterActions)
}

func appendSlot(b []byte, s tmpl.SlotRef) []byte {
	b = binary.AppendVarint(b, int64(s.LoopID))
	return binary.AppendVarint(b, int64(s.Slot))
}

// appendBits appends up to eight flags as the bits of one byte, the first
// flag in the lowest bit.
func appendBits(b []byte, flags ...bool) []byte {
	var v byte
	for i, f := range flags {
		if f {
			v |= 1 << i
		}
	}
	return append(b, v)
}

// storeDigest names one (region, generation, key) specialization in the
// store: one SHA-256 over fingerprint || generation || key, assembled in a
// stack buffer.
func (rt *Runtime) storeDigest(region int, gen uint64, key string) segio.Digest {
	var buf [128]byte
	b := append(buf[:0], rt.storeFp[region][:]...)
	b = binary.BigEndian.AppendUint64(b, gen)
	b = append(b, key...)
	return sha256.Sum256(b)
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
