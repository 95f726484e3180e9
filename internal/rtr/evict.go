// Eviction machinery for the shared (level-1) stitch cache: admission
// against the global and per-region entry and code-byte caps, eviction
// from each shard's clock table (clock.go, the policy both cache tiers
// share), and a bounded log of recent evictions so re-stitches of evicted
// keys are observable (CacheStats.Restitches).
//
// Resident accounting lives in runtime-global atomics (resident,
// residentBytes and their per-region slices) so a publishing shard can
// check the caps without touching any other shard's lock (see
// admitLocked). In-flight singleflight entries live in the shard's
// inflight map, never in its table, so they are pinned by construction.
package rtr

import "sync/atomic"

// evictLogSize bounds the per-shard memory of restitch detection: a stitch
// counts as a re-stitch when its key is among the shard's most recent
// evictLogSize capacity evictions. The log is deliberately bounded — exact
// forever-detection would need a tombstone per evicted key, re-creating
// the unbounded growth the cache caps exist to prevent — so Restitches is
// a lower bound under extreme churn.
const evictLogSize = 256

// evictLogBits sizes the log's index at 1<<evictLogBits slots: a power of
// two at least twice the ring, so linear probes stay short.
const (
	evictLogBits  = 9
	evictLogSlots = 1 << evictLogBits
)

// The index must hold at least twice the ring, and a ring position (plus
// one) must fit an index slot's uint16; either check fails to compile
// (a negative constant converted to uint) when the sizes disagree.
const (
	_ = uint(evictLogSlots - 2*evictLogSize)
	_ = uint(1<<16 - 1 - evictLogSize)
)

// evictLog is a fixed-capacity ring of recently evicted keys with an
// open-addressed index for O(1) membership tests. The index holds ring
// positions (plus one; 0 is empty) and is probed by a 64-bit hash of the
// key, kept beside the ring; a probe confirms the full key on a hash
// match. Every publish and every eviction consults the log, so it is
// built to do that without hashing a struct key into a Go map. A shard
// makes its log on its first eviction; a nil log holds no key.
type evictLog struct {
	keys   []cacheKey // ring of logged keys
	hashes []uint64   // hashes[i] is keys[i]'s hash
	index  [evictLogSlots]uint16
	next   int
}

// home is the index slot a probe for hash h starts at: the hash's top
// bits after a multiplicative mix (its low bits also pick the shard, so
// they are the same for every key a shard logs).
func (l *evictLog) home(h uint64) int {
	return int((h * 0x9e3779b97f4a7c15) >> (64 - evictLogBits))
}

// find returns the index slot and ring position of k (hash h), or -1s.
func (l *evictLog) find(k cacheKey, h uint64) (slot, pos int) {
	for i := l.home(h); ; i = (i + 1) & (evictLogSlots - 1) {
		p := int(l.index[i]) - 1
		if p < 0 {
			return -1, -1
		}
		if l.hashes[p] == h && l.keys[p] == k {
			return i, p
		}
	}
}

// slotOf returns the index slot holding ring position pos.
func (l *evictLog) slotOf(pos int) int {
	i := l.home(l.hashes[pos])
	for int(l.index[i])-1 != pos {
		i = (i + 1) & (evictLogSlots - 1)
	}
	return i
}

// insert indexes ring position pos.
func (l *evictLog) insert(pos int) {
	i := l.home(l.hashes[pos])
	for l.index[i] != 0 {
		i = (i + 1) & (evictLogSlots - 1)
	}
	l.index[i] = uint16(pos + 1)
}

// unindex empties index slot i, shifting later members of its probe run
// back so every remaining position stays reachable from its home slot.
func (l *evictLog) unindex(i int) {
	const mask = evictLogSlots - 1
	for j := i; ; {
		l.index[i] = 0
		for {
			j = (j + 1) & mask
			if l.index[j] == 0 {
				return
			}
			// The member at j may fill the hole at i unless its home
			// lies cyclically in (i, j].
			h := l.home(l.hashes[l.index[j]-1])
			if (j-h)&mask >= (j-i)&mask {
				l.index[i] = l.index[j]
				i = j
				break
			}
		}
	}
}

func (l *evictLog) add(k cacheKey) {
	h := keyHash(k.region, k.key)
	if _, p := l.find(k, h); p >= 0 {
		return
	}
	if len(l.keys) < evictLogSize {
		l.keys = append(l.keys, k)
		l.hashes = append(l.hashes, h)
		l.insert(len(l.keys) - 1)
		return
	}
	l.unindex(l.slotOf(l.next))
	l.keys[l.next], l.hashes[l.next] = k, h
	l.insert(l.next)
	l.next = (l.next + 1) % evictLogSize
}

// remove reports whether k (hash h, see keyHash) was logged, forgetting it
// (a re-stitched key is resident again; it re-enters the log if evicted
// again). The freed slot is reclaimed by swapping the last key in, so
// removals never shrink the log's window.
func (l *evictLog) remove(k cacheKey, h uint64) bool {
	if l == nil || len(l.keys) == 0 {
		return false
	}
	slot, p := l.find(k, h)
	if p < 0 {
		return false
	}
	l.unindex(slot)
	last := len(l.keys) - 1
	if p != last {
		l.index[l.slotOf(last)] = uint16(p + 1)
		l.keys[p], l.hashes[p] = l.keys[last], l.hashes[last]
	}
	l.keys, l.hashes = l.keys[:last], l.hashes[:last]
	// next only indexes the ring when it is full (len == evictLogSize), and
	// removal just shrank it, so any next in [0, evictLogSize) stays valid
	// by the time the ring refills; no adjustment needed.
	return true
}

// dropLocked forgets e, in flight or resident, without counting an
// eviction (failed or declined publishes, stale generations). An entry a
// later claim has replaced is left alone.
func (sh *shard) dropLocked(rt *Runtime, e *entry) {
	if sh.inflight[e.key] == e {
		delete(sh.inflight, e.key)
		return
	}
	if v, ok := sh.resident.peek(e.key); ok && v == e {
		sh.resident.remove(e.key)
		rt.release(e)
	}
}

// release takes an entry that left a shard's table off the counters.
func (rt *Runtime) release(e *entry) {
	rt.resident.Add(-1)
	rt.residentBytes.Add(-e.bytes)
	if r := e.key.region; r >= 0 && r < len(rt.regionResident) {
		rt.regionResident[r].Add(-1)
		rt.regionBytes[r].Add(-e.bytes)
	}
}

// evictOneLocked evicts one resident entry of region (-1 = any) from the
// shard's table and counts it. Reports whether anything was evicted; false
// only if the table holds no candidate at all.
func (sh *shard) evictOneLocked(rt *Runtime, region int) bool {
	e, ok := sh.resident.evict(region)
	if !ok {
		return false
	}
	rt.release(e)
	sh.evictions++
	if sh.evicted == nil {
		sh.evicted = new(evictLog)
	}
	sh.evicted.add(e.key)
	if rt.Opts.Cache.ChurnStats {
		sh.churnLocked(e.key.region).Evictions++
	}
	return true
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

// admitLocked makes a completed entry resident if room can be made: with
// sh.mu held (the publishing shard), it evicts until the caps admit e,
// global caps first, each eviction preferring sh's own table over stealing
// from a sibling, then puts e in sh's table and on the resident counters.
// Entry slots are claimed atomically (see claimSlot), so the entry caps are
// never exceeded. When an entry cap is full and no shard it can lock holds
// a victim, it reports false and e is not cached: waiting for a locked
// sibling could deadlock two publishers that each hold the shard with the
// other's victims. The byte caps are best effort here; reclaim restores
// them after publish.
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
	sh.resident.put(e.key, e)
	rt.residentBytes.Add(e.bytes)
	if tracked {
		rt.regionBytes[r].Add(e.bytes)
	}
	rt.notePeak()
	return true
}

// evictFor evicts one entry of region (-1: any), from sh's own table if it
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
// shard's table was empty and every sibling was mid-publish — to the
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
