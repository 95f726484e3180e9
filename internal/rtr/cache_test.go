package rtr

import (
	"encoding/binary"
	"sync"
	"testing"

	"dyncc/internal/stitcher"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// TestAppendKeyRoundTrip checks that binary key encoding distinguishes
// values the seed's "%d," encoding distinguished, including negatives and
// values whose decimal renderings collide when concatenated.
func TestAppendKeyRoundTrip(t *testing.T) {
	r := &tmpl.Region{KeyRegs: []vm.Reg{1, 2}}
	m := &vm.Machine{}
	seen := map[string][2]int64{}
	cases := [][2]int64{
		{0, 0}, {1, -1}, {-1, 1}, {12, 3}, {1, 23},
		{1 << 40, -(1 << 40)}, {127, 128}, {-64, -65},
	}
	var buf []byte
	for _, c := range cases {
		m.Regs[1], m.Regs[2] = c[0], c[1]
		buf = appendKey(buf[:0], m, r)
		k := string(buf)
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision: %v and %v encode to %q", prev, c, k)
		}
		seen[k] = c

		// The encoding must decode back to the inputs.
		rest := buf
		for i := 0; i < 2; i++ {
			v, n := binary.Varint(rest)
			if n <= 0 {
				t.Fatalf("bad varint for %v", c)
			}
			if v != c[i] {
				t.Fatalf("decode %v[%d] = %d", c, i, v)
			}
			rest = rest[n:]
		}
	}
}

// TestShardSpread sanity-checks that FNV over encoded keys spreads
// specializations across shards rather than piling onto one lock.
func TestShardSpread(t *testing.T) {
	rt := &Runtime{shards: make([]shard, numShards(0))}
	used := map[*shard]bool{}
	var buf []byte
	m := &vm.Machine{}
	r := &tmpl.Region{KeyRegs: []vm.Reg{1}}
	for i := int64(0); i < 1024; i++ {
		m.Regs[1] = i
		buf = appendKey(buf[:0], m, r)
		used[rt.shardFor(0, string(buf))] = true
	}
	if len(used) < len(rt.shards)/2 {
		t.Errorf("1024 keys landed on only %d/%d shards", len(used), len(rt.shards))
	}
}

func TestNumShards(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {17, 32}, {32, 32}, {33, 64},
	} {
		if got := numShards(c.in); got != c.want {
			t.Errorf("numShards(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// The level-2 per-machine cache is a goroutine-confined clock table over a
// plain map. The benchmarks below justify that choice over sync.Map for
// the read-mostly dispatch path: a plain map lookup with a []byte-keyed
// index expression compiles to a no-alloc mapaccess, while sync.Map forces
// an interface conversion (allocating) per lookup and adds atomic overhead
// — and buys nothing, because the VM contract already confines a machine
// to one goroutine. "clock" is the table's get as DYNENTER calls it.
func BenchmarkL2MapStrategies(b *testing.B) {
	m := &vm.Machine{}
	r := &tmpl.Region{KeyRegs: []vm.Reg{1, 2}}
	seg := &vm.Segment{}

	fill := func(put func(string, *vm.Segment)) {
		var buf []byte
		for i := int64(0); i < 64; i++ {
			m.Regs[1], m.Regs[2] = i, i*3
			buf = appendKey(buf[:0], m, r)
			put(string(buf), seg)
		}
	}

	b.Run("plain-map", func(b *testing.B) {
		cache := map[string]*vm.Segment{}
		fill(func(k string, s *vm.Segment) { cache[k] = s })
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i & 63)
			m.Regs[1], m.Regs[2] = k, k*3
			buf = appendKey(buf[:0], m, r)
			if cache[string(buf)] == nil {
				b.Fatal("miss")
			}
		}
	})

	b.Run("clock", func(b *testing.B) {
		var cache clock[*vm.Segment]
		fill(func(k string, s *vm.Segment) { cache.put(cacheKey{0, k}, s) })
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i & 63)
			m.Regs[1], m.Regs[2] = k, k*3
			buf = appendKey(buf[:0], m, r)
			if s, ok := cache.get(cacheKey{0, string(buf)}); !ok || s == nil {
				b.Fatal("miss")
			}
		}
	})

	b.Run("sync-map", func(b *testing.B) {
		var cache sync.Map
		fill(func(k string, s *vm.Segment) { cache.Store(k, s) })
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i & 63)
			m.Regs[1], m.Regs[2] = k, k*3
			buf = appendKey(buf[:0], m, r)
			if v, ok := cache.Load(string(buf)); !ok || v == nil {
				b.Fatal("miss")
			}
		}
	})
}

// TestClaimWaitChannelOnDemand: a claim nobody else wants makes no wait
// channel; the first loser that finds the entry in flight makes one, and
// publish releases it with the winner's segment. A loser that arrives
// after publish finds the resident entry done and does not block.
func TestClaimWaitChannelOnDemand(t *testing.T) {
	rt := testRuntime(CacheOptions{Shards: 1}, 1)
	e, gen, won := rt.claim(0, "k")
	if !won || e.wait != nil {
		t.Fatalf("winning claim: won %v, wait channel %v", won, e.wait)
	}
	e2, _, won2 := rt.claim(0, "k")
	if won2 || e2 != e || e.wait == nil {
		t.Fatalf("losing claim: won %v, same entry %v, wait channel %v", won2, e2 == e, e.wait)
	}
	seg := &vm.Segment{Name: "s"}
	var wg sync.WaitGroup
	wg.Add(1)
	var got *vm.Segment
	go func() {
		defer wg.Done()
		e2.await()
		got = e2.seg
	}()
	rt.publish(e, gen, seg, stitcher.Stats{}, false, nil)
	wg.Wait()
	if got != seg {
		t.Fatal("waiter did not receive the winner's segment")
	}
	e3, _, won3 := rt.claim(0, "k")
	if won3 || e3 != e {
		t.Fatal("claim after publish did not find the resident entry")
	}
	e3.await() // done: must not block
}
