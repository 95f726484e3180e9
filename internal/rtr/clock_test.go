package rtr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyncc/internal/vm"
)

// refRing is the reference model of the clock table: the level-1 CLOCK
// ring as it stood before both tiers shared one table type (a ring of
// entries with a reference bit and their ring index, appended on admit,
// swap-removed on drop, scanned by a hand on eviction).
type refRing struct {
	ring []*refSlot
	hand int
	idx  map[cacheKey]*refSlot
}

type refSlot struct {
	key  cacheKey
	ref  bool
	slot int
}

func (r *refRing) put(k cacheKey) {
	s := &refSlot{key: k, slot: len(r.ring)}
	r.ring = append(r.ring, s)
	r.idx[k] = s
}

func (r *refRing) hit(k cacheKey) {
	if s, ok := r.idx[k]; ok {
		s.ref = true
	}
}

func (r *refRing) remove(k cacheKey) {
	s, ok := r.idx[k]
	if !ok {
		return
	}
	delete(r.idx, k)
	last := len(r.ring) - 1
	r.ring[s.slot] = r.ring[last]
	r.ring[s.slot].slot = s.slot
	r.ring = r.ring[:last]
	if r.hand > last {
		r.hand = 0
	}
}

func (r *refRing) evict(region int) (cacheKey, bool) {
	n := len(r.ring)
	for scanned := 0; scanned < 2*n; scanned++ {
		if r.hand >= len(r.ring) {
			r.hand = 0
		}
		s := r.ring[r.hand]
		if region >= 0 && s.key.region != region {
			r.hand++
			continue
		}
		if s.ref {
			s.ref = false
			r.hand++
			continue
		}
		r.remove(s.key)
		return s.key, true
	}
	return cacheKey{}, false
}

// TestClockMatchesReference drives the clock table and the reference ring
// with the same seeded random sequences of puts, hits, removals and
// region-filtered evictions: every eviction must take the same victim, and
// after every operation both must hold the same keys, in the same slot
// order, with the same reference bits.
func TestClockMatchesReference(t *testing.T) {
	const regions, keys, ops = 3, 12, 4000
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c clock[cacheKey]
		ref := &refRing{idx: map[cacheKey]*refSlot{}}
		for op := 0; op < ops; op++ {
			k := cacheKey{region: rng.Intn(regions), key: fmt.Sprintf("k%d", rng.Intn(keys))}
			switch rng.Intn(4) {
			case 0: // put a new key; a present one is a hit, as on a lookup
				if _, ok := c.peek(k); ok {
					c.get(k)
					ref.hit(k)
				} else {
					c.put(k, k)
					ref.put(k)
				}
			case 1:
				c.get(k)
				ref.hit(k)
			case 2:
				c.remove(k)
				ref.remove(k)
			case 3:
				region := rng.Intn(regions+1) - 1
				got, gotOK := c.evict(region)
				want, wantOK := ref.evict(region)
				if gotOK != wantOK || got != want {
					t.Fatalf("seed %d op %d: evict(%d) = %v %v, reference %v %v",
						seed, op, region, got, gotOK, want, wantOK)
				}
			}
			if len(c.slots) != len(ref.ring) || indexed(&c) != len(ref.idx) {
				t.Fatalf("seed %d op %d: %d slots (%d indexed), reference %d",
					seed, op, len(c.slots), indexed(&c), len(ref.ring))
			}
			for i, s := range c.slots {
				r := ref.ring[i]
				if s.key != r.key || s.val != r.key || s.ref != r.ref || slotOf(&c, s.key) != i {
					t.Fatalf("seed %d op %d: slot %d holds %v (ref %v), reference %v (ref %v)",
						seed, op, i, s.key, s.ref, r.key, r.ref)
				}
			}
		}
	}
}

// TestClockNewcomerIsNextVictim pins the policy's one surprising order on
// both tiers: an eviction moves the newest resident into the hole and the
// hand stays there, so with room for four and no hits, k4..k11 each evict
// the previous newcomer and k1, k2 survive.
func TestClockNewcomerIsNextVictim(t *testing.T) {
	want := []string{"k10", "k1", "k2", "k11"}

	rt := testRuntime(CacheOptions{MachineMaxEntries: 4}, 1)
	ms := newMachineState(rt)
	for i := 0; i < 12; i++ {
		ms.put(rt, 0, fmt.Sprintf("k%d", i), &vm.Segment{})
	}
	var l2 []string
	for _, s := range ms.l2.slots {
		l2 = append(l2, s.key.key)
	}
	if !slices.Equal(l2, want) {
		t.Errorf("level 2 holds %v, want %v", l2, want)
	}

	rt = testRuntime(CacheOptions{Shards: 1, MaxEntries: 4}, 1)
	for i := 0; i < 12; i++ {
		addCompleted(rt, 0, fmt.Sprintf("k%d", i), &vm.Segment{})
	}
	var l1 []string
	for _, s := range rt.shards[0].resident.slots {
		l1 = append(l1, s.key.key)
	}
	if !slices.Equal(l1, want) {
		t.Errorf("level 1 holds %v, want %v", l1, want)
	}
}

// TestClockRemoveRegion checks the flush path: removing one region keeps
// every other region's slots, indexed, and removing -1 empties the table.
func TestClockRemoveRegion(t *testing.T) {
	var c clock[int]
	for i := 0; i < 9; i++ {
		c.put(cacheKey{region: i % 3, key: fmt.Sprint(i)}, i)
	}
	var removed []int
	c.removeRegion(1, func(v int) { removed = append(removed, v) })
	slices.Sort(removed)
	if !slices.Equal(removed, []int{1, 4, 7}) {
		t.Errorf("removed %v, want [1 4 7]", removed)
	}
	if len(c.slots) != 6 || indexed(&c) != 6 {
		t.Fatalf("%d slots, %d indexed after removing region 1; want 6", len(c.slots), indexed(&c))
	}
	for i, s := range c.slots {
		if s.key.region == 1 || slotOf(&c, s.key) != i {
			t.Errorf("slot %d holds %v, indexed at %d", i, s.key, slotOf(&c, s.key))
		}
	}
	c.removeRegion(-1, nil)
	if len(c.slots) != 0 || indexed(&c) != 0 {
		t.Errorf("%d slots, %d indexed after removing every region", len(c.slots), indexed(&c))
	}
}

// slotOf returns k's slot index, or -1 when k is absent.
func slotOf[V any](c *clock[V], k cacheKey) int {
	if i, ok := c.find(k); ok {
		return i
	}
	return -1
}
