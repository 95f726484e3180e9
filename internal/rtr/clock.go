package rtr

// clock is the bounded-cache table of both stitch-cache tiers: each
// shared-cache (level-1) shard keeps its resident entries in one, and each
// machine its private (level-2) cache. The caller evicts when it needs room.
//
// Slots live in a dense slice, each with a reference bit. The policy is
// CLOCK: get sets the bit and put appends a new key with the bit clear;
// evict advances the hand, clearing set bits, and removes the first clear
// slot. Every removal moves the last slot into the hole and the hand stays
// there, so after an eviction the newest resident is the next candidate:
// with room for four and no hits, putting k0..k11 leaves [k10 k1 k2 k11].
// DESIGN.md "Cache bounds and CLOCK eviction" gives the measurement that
// chose this policy for both tiers.
//
// A clock is not safe for concurrent use; the zero value is empty.
type clock[V any] struct {
	// idx finds slots by region+1 (region -1 is a sentinel), then key.
	// String-keyed maps hash only the key bytes; one map keyed by the
	// cacheKey struct costs about twice as much per DYNENTER hit.
	idx   []map[string]int
	slots []clockSlot[V]
	hand  int
}

type clockSlot[V any] struct {
	key cacheKey
	val V
	ref bool
}

func (c *clock[V]) len() int { return len(c.slots) }

// find returns k's slot index.
func (c *clock[V]) find(k cacheKey) (int, bool) {
	if r := k.region + 1; r < len(c.idx) {
		i, ok := c.idx[r][k.key]
		return i, ok
	}
	return 0, false
}

// get returns k's value and sets its reference bit.
func (c *clock[V]) get(k cacheKey) (v V, ok bool) {
	i, ok := c.find(k)
	if !ok {
		return v, false
	}
	s := &c.slots[i]
	s.ref = true
	return s.val, true
}

// peek returns k's value without touching its reference bit.
func (c *clock[V]) peek(k cacheKey) (v V, ok bool) {
	i, ok := c.find(k)
	if !ok {
		return v, false
	}
	return c.slots[i].val, true
}

// put stores v under k: a new key is appended with its reference bit
// clear; a present key keeps its slot and takes the new value.
func (c *clock[V]) put(k cacheKey, v V) {
	if i, ok := c.find(k); ok {
		c.slots[i].val = v
		return
	}
	r := k.region + 1
	for r >= len(c.idx) {
		c.idx = append(c.idx, nil)
	}
	if c.idx[r] == nil {
		c.idx[r] = map[string]int{}
	}
	c.idx[r][k.key] = len(c.slots)
	c.slots = append(c.slots, clockSlot[V]{key: k, val: v})
}

// remove deletes k, reporting its value.
func (c *clock[V]) remove(k cacheKey) (v V, ok bool) {
	i, ok := c.find(k)
	if !ok {
		return v, false
	}
	v = c.slots[i].val
	c.removeAt(i)
	return v, true
}

// removeAt deletes slot i by moving the last slot into it.
func (c *clock[V]) removeAt(i int) {
	k := c.slots[i].key
	delete(c.idx[k.region+1], k.key)
	last := len(c.slots) - 1
	if i != last {
		c.slots[i] = c.slots[last]
		k = c.slots[i].key
		c.idx[k.region+1][k.key] = i
	}
	c.slots[last] = clockSlot[V]{} // drop the references
	c.slots = c.slots[:last]
	if c.hand > last {
		c.hand = 0
	}
}

// evict runs the hand and removes one slot of region (-1: any region),
// giving every slot hit since the hand last passed a second chance. It
// reports false only when no slot of region is present.
func (c *clock[V]) evict(region int) (v V, ok bool) {
	n := len(c.slots)
	// Two sweeps suffice: the first clears every candidate's reference
	// bit, so the second must find a victim if any candidate exists.
	for scanned := 0; scanned < 2*n; scanned++ {
		if c.hand >= len(c.slots) {
			c.hand = 0
		}
		s := &c.slots[c.hand]
		if region >= 0 && s.key.region != region {
			c.hand++
			continue
		}
		if s.ref {
			s.ref = false
			c.hand++
			continue
		}
		v = s.val
		c.removeAt(c.hand)
		return v, true
	}
	return v, false
}

// removeRegion removes every slot of region (-1: all), passing each value
// to fn when fn is non-nil.
func (c *clock[V]) removeRegion(region int, fn func(V)) {
	// Backwards, so the slot moved into each hole was already visited.
	for i := len(c.slots) - 1; i >= 0; i-- {
		if region >= 0 && c.slots[i].key.region != region {
			continue
		}
		v := c.slots[i].val
		c.removeAt(i)
		if fn != nil {
			fn(v)
		}
	}
}
