// Eviction machinery for the shared (level-1) stitch cache: a per-shard
// CLOCK (second-chance) policy enforcing the global and per-region entry
// and code-byte caps, plus a bounded log of recent evictions so re-stitches
// of previously evicted keys are observable (CacheStats.Restitches).
//
// Resident accounting lives in runtime-global atomics (resident,
// residentBytes and their per-region slices) so a publishing shard can
// check the caps without touching any other shard's lock. Room is made
// *before* a new entry is published: while over a cap, the publishing
// shard evicts from its own ring; if its ring is empty it steals an
// eviction from a sibling shard via TryLock, which cannot deadlock.
// Admission against the entry caps is atomic: a publisher claims its slot
// with a compare-and-swap that never takes a count past its cap, so two
// shards publishing at once cannot both take the last slot, and a
// publisher that finds nothing to evict leaves its entry uncached. The
// byte caps are best effort before publish and restored by reclaim after
// it.
// In-flight singleflight entries never join a ring, so they are pinned by
// construction.
package rtr

import "sync/atomic"

// evictLogSize bounds the per-shard memory of restitch detection: a stitch
// counts as a re-stitch when its key is among the shard's most recent
// evictLogSize capacity evictions. The log is deliberately bounded — exact
// forever-detection would need a tombstone per evicted key, re-creating
// the unbounded growth the cache caps exist to prevent — so Restitches is
// a lower bound under extreme churn.
const evictLogSize = 256

// evictLog is a fixed-capacity ring of recently evicted keys with an index
// for O(1) membership tests.
type evictLog struct {
	keys []cacheKey
	idx  map[cacheKey]int
	next int
}

func (l *evictLog) add(k cacheKey) {
	if l.idx == nil {
		l.idx = make(map[cacheKey]int, evictLogSize)
	}
	if _, ok := l.idx[k]; ok {
		return
	}
	if len(l.keys) < evictLogSize {
		l.idx[k] = len(l.keys)
		l.keys = append(l.keys, k)
		return
	}
	delete(l.idx, l.keys[l.next])
	l.keys[l.next] = k
	l.idx[k] = l.next
	l.next = (l.next + 1) % evictLogSize
}

// remove reports whether k was logged, forgetting it (a re-stitched key is
// resident again; it re-enters the log if evicted again). The freed slot is
// reclaimed by swapping the last key in — an earlier version left a
// permanent dead hole counting against evictLogSize, so a shard cycling
// restitches shrank the log's effective window (and undercounted
// Restitches) a little more with every removal.
func (l *evictLog) remove(k cacheKey) bool {
	i, ok := l.idx[k]
	if !ok {
		return false
	}
	delete(l.idx, k)
	last := len(l.keys) - 1
	if i != last {
		l.keys[i] = l.keys[last]
		l.idx[l.keys[i]] = i
	}
	l.keys = l.keys[:last]
	// next only indexes the ring when it is full (len == evictLogSize), and
	// removal just shrank it, so any next in [0, evictLogSize) stays valid
	// by the time the ring refills; no adjustment needed.
	return true
}

// dropLocked removes a resident entry without counting an eviction
// (invalidation and stale-generation cleanup).
func (sh *shard) dropLocked(rt *Runtime, e *entry) {
	if sh.entries[e.key] == e {
		delete(sh.entries, e.key)
	}
	if e.slot < 0 {
		return
	}
	last := len(sh.ring) - 1
	sh.ring[e.slot] = sh.ring[last]
	sh.ring[e.slot].slot = e.slot
	sh.ring = sh.ring[:last]
	if sh.hand > last {
		sh.hand = 0
	}
	e.slot = -1
	rt.resident.Add(-1)
	rt.residentBytes.Add(-e.bytes)
	if r := e.key.region; r >= 0 && r < len(rt.regionResident) {
		rt.regionResident[r].Add(-1)
		rt.regionBytes[r].Add(-e.bytes)
	}
}

// evictOneLocked runs the CLOCK hand over the shard's ring and evicts one
// resident entry, honouring reference bits (an entry hit since the hand
// last passed gets a second chance). region restricts candidates to one
// region (-1 = any). Reports whether anything was evicted; false only if
// the ring holds no candidate at all.
func (sh *shard) evictOneLocked(rt *Runtime, region int) bool {
	n := len(sh.ring)
	if n == 0 {
		return false
	}
	// Two sweeps suffice: the first clears every candidate's reference
	// bit, so the second must find a victim (if any candidate exists).
	for scanned := 0; scanned < 2*n; scanned++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		if region >= 0 && e.key.region != region {
			sh.hand++
			continue
		}
		if e.ref {
			e.ref = false
			sh.hand++
			continue
		}
		sh.dropLocked(rt, e)
		sh.evictions++
		sh.evicted.add(e.key)
		if rt.Opts.Cache.ChurnStats {
			sh.churnLocked(e.key.region).Evictions++
		}
		return true
	}
	return false
}

// overBytes / regionOverBytes report whether publishing one more entry of
// `add` bytes would leave the shared cache above a code-byte cap.
func (rt *Runtime) overBytes(add int64) bool {
	max := rt.Opts.Cache.MaxCodeBytes
	return max > 0 && rt.residentBytes.Load()+add > max
}

func (rt *Runtime) regionOverBytes(region int, add int64) bool {
	max := rt.Opts.Cache.MaxCodeBytesPerRegion
	return max > 0 && region >= 0 && region < len(rt.regionBytes) &&
		rt.regionBytes[region].Load()+add > max
}

// claimSlot adds one to n unless that would take it past max (0: no cap).
func claimSlot(n *atomic.Int64, max int) bool {
	for {
		cur := n.Load()
		if max > 0 && cur >= int64(max) {
			return false
		}
		if n.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// admitLocked makes a completed entry resident if room can be made: it
// evicts until the caps admit e, then joins e to the shard's CLOCK ring
// and the resident counters. It runs with sh.mu held (the publishing
// shard). The global caps are satisfied first, then the region's, and each
// eviction prefers the local ring over stealing from a sibling. Entry slots
// are claimed atomically (see claimSlot), so the entry caps are never
// exceeded. When an entry cap is full and no shard it can lock holds a
// victim, it reports false and e is not cached; the caller serves e's
// waiters without retaining it, as for an entry invalidated in flight.
// Waiting for a locked sibling instead could deadlock two publishers that
// each hold the shard with the other's victims. The byte caps are best
// effort here, and reclaim restores them after publish.
func (rt *Runtime) admitLocked(sh *shard, e *entry) bool {
	c := &rt.Opts.Cache
	// r >= 0: region -1 is a documented segment sentinel; an entry carrying
	// it must not panic the accounting (it simply isn't tracked per region).
	r := e.key.region
	tracked := r >= 0 && r < len(rt.regionResident)
	for {
		for rt.overBytes(e.bytes) && rt.evictFor(sh, -1) {
		}
		if !claimSlot(&rt.resident, c.MaxEntries) {
			if !rt.evictFor(sh, -1) {
				return false
			}
			continue
		}
		for rt.regionOverBytes(r, e.bytes) && rt.evictFor(sh, r) {
		}
		if !tracked || claimSlot(&rt.regionResident[r], c.MaxEntriesPerRegion) {
			break
		}
		rt.resident.Add(-1)
		if !rt.evictFor(sh, r) {
			return false
		}
	}
	e.slot = len(sh.ring)
	sh.ring = append(sh.ring, e)
	rt.residentBytes.Add(e.bytes)
	if tracked {
		rt.regionBytes[r].Add(e.bytes)
	}
	rt.notePeak()
	return true
}

// evictFor evicts one entry of region (-1: any), from sh's own ring if it
// holds a candidate and otherwise from a sibling's. It reports false when
// no shard it could lock had a candidate.
func (rt *Runtime) evictFor(sh *shard, region int) bool {
	return sh.evictOneLocked(rt, region) || rt.stealEviction(sh, region)
}

// stealEviction evicts one entry from some shard other than sh, using
// TryLock so a publisher holding its own shard lock can never deadlock
// against another publisher doing the same.
func (rt *Runtime) stealEviction(sh *shard, region int) bool {
	for i := range rt.shards {
		o := &rt.shards[i]
		if o == sh || !o.mu.TryLock() {
			continue
		}
		ok := o.evictOneLocked(rt, region)
		o.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// reclaim restores the byte caps after a publish, sweeping shards with
// full locks (the caller holds none). It bounds the transient overshoot
// left when admitLocked could not evict enough bytes — the publishing
// shard's ring was empty and every sibling was mid-publish — to the
// duration of those publishes. The entry caps need no reclaim: admission
// never exceeds them.
func (rt *Runtime) reclaim(region int) {
	c := &rt.Opts.Cache
	if c.MaxCodeBytes == 0 && c.MaxCodeBytesPerRegion == 0 {
		return
	}
	for pass := 0; pass < 2*len(rt.shards); pass++ {
		overGlobal := rt.overBytes(0)
		overRegion := rt.regionOverBytes(region, 0)
		if !overGlobal && !overRegion {
			return
		}
		target := -1
		if overRegion && !overGlobal {
			target = region
		}
		sh := &rt.shards[pass%len(rt.shards)]
		sh.mu.Lock()
		sh.evictOneLocked(rt, target)
		sh.mu.Unlock()
	}
}

// notePeak records a new resident-entry high-water mark.
func (rt *Runtime) notePeak() {
	n := rt.resident.Load()
	for {
		p := rt.peakEntries.Load()
		if n <= p || rt.peakEntries.CompareAndSwap(p, n) {
			return
		}
	}
}
