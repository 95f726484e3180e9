package bench

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/segio"
	"dyncc/internal/vm"
)

// coldSrc is a keyed region whose specialization is deliberately
// stitch-heavy (a 32-iteration unrolled loop, so every key costs hundreds
// of stitched instructions). Inline, a cold key's caller pays that whole
// stitch on its own call; async, the caller runs the generic fallback tier
// and the stitch happens on a background worker.
const coldSrc = `
int burst(int k, int x) {
    int acc;
    int i;
    acc = 0;
    dynamicRegion key(k) () {
        unrolled for (i = 0; i < 32; i++) {
            acc = acc + x * (k + i);
        }
    }
    return acc + k;
}`

// coldExpect is the kernel's closed form: sum over i<32 of x*(k+i), plus k.
func coldExpect(k, x int64) int64 { return x*(32*k+496) + k }

// heldStore is a segio.Store whose Get blocks until release is closed. A
// background stitch consults the store before stitching, so it holds every
// worker at its first job; Get then reports a miss and the stitch runs.
// Each Get first sends on arrived, which is buffered for one Get per key.
type heldStore struct {
	release chan struct{}
	arrived chan struct{}
	once    sync.Once
}

func (s *heldStore) Get(segio.Digest) ([]byte, error) {
	s.arrived <- struct{}{}
	<-s.release
	return nil, nil
}

func (s *heldStore) Put(segio.Digest, []byte) error { return nil }
func (s *heldStore) Delete(segio.Digest) error      { return nil }
func (s *heldStore) free()                          { s.once.Do(func() { close(s.release) }) }

// TestColdBurstAsyncImprovesTail checks the tiered-execution property
// exactly: under asynchronous stitching no caller blocks on the stitch of
// a cold key. With every background worker held at its store consult, a
// burst of cold keys must still return, each call on the generic fallback
// tier and none specialized yet; once the workers are released every key
// is published. Asynchronous stitching must also not tax warm dispatch:
// inline and async runtimes dispatch a byte-identical promoted segment for
// the same key, at equal guest cycles per warm call.
func TestColdBurstAsyncImprovesTail(t *testing.T) {
	keys, warm := 200, 5000
	if testing.Short() {
		keys, warm = 80, 1000
	}
	st := &heldStore{release: make(chan struct{}), arrived: make(chan struct{}, keys)}
	defer st.free()
	c, err := core.Compile(coldSrc, core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{AsyncStitch: true, StitchQueue: keys, Store: st}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Runtime.Close()
	m := c.NewMachine(0)
	done := make(chan error, 1)
	go func() {
		for k := int64(1); k <= int64(keys); k++ {
			got, err := m.Call("burst", k, 3)
			if err == nil && got != coldExpect(k, 3) {
				err = fmt.Errorf("burst(%d,3) = %d, want %d", k, got, coldExpect(k, 3))
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// A generous liveness bound, not a latency bar: a caller that waited
	// on a held stitch would never return.
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("a cold call blocked while the background stitches were held")
	}
	// The workers start with the first scheduled stitch and block in Get.
	// Wait until every one is held there, however the scheduler ordered
	// them against the burst; this too is a liveness bound.
	for i := 0; i < rtr.DefaultStitchWorkers; i++ {
		select {
		case <-st.arrived:
		case <-time.After(time.Minute):
			t.Fatalf("%d of %d background workers reached the store", i, rtr.DefaultStitchWorkers)
		}
	}
	held := c.Runtime.CacheStats()
	if held.FallbackRuns != uint64(keys) {
		t.Errorf("%d of %d cold calls ran on the fallback tier", held.FallbackRuns, keys)
	}
	if held.AsyncStitches != 0 || held.QueueRejects != 0 {
		t.Errorf("while held: %d stitches published, %d keys rejected; want 0 and 0",
			held.AsyncStitches, held.QueueRejects)
	}
	st.free()
	c.Runtime.WaitIdle()
	for k := int64(1); k <= int64(keys); k++ {
		if c.Runtime.Peek(0, k) == nil {
			t.Errorf("key %d not published after release", k)
		}
	}
	if got := c.Runtime.CacheStats().AsyncStitches; got != uint64(keys) {
		t.Errorf("%d background stitches after release, want %d", got, keys)
	}

	var segs [2]*vm.Segment
	var cycles [2]uint64
	for i, async := range []bool{false, true} {
		c, err := core.Compile(coldSrc, core.Config{Dynamic: true, Optimize: true,
			Cache: rtr.CacheOptions{AsyncStitch: async}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Runtime.Close()
		m := c.NewMachine(0)
		// Inline, the first call stitches. Async, it schedules the stitch
		// and runs the fallback tier; once the pool drains, the second
		// call adopts the published segment.
		for j := 0; j < 2; j++ {
			if _, err := m.Call("burst", 1, 3); err != nil {
				t.Fatal(err)
			}
			c.Runtime.WaitIdle()
		}
		if segs[i] = c.Runtime.Peek(0, 1); segs[i] == nil {
			t.Fatalf("async=%v: key 1 not published", async)
		}
		before, fallbacks := m.Cycles, c.Runtime.CacheStats().FallbackRuns
		for j := 0; j < warm; j++ {
			if got, err := m.Call("burst", 1, 3); err != nil || got != coldExpect(1, 3) {
				t.Fatalf("async=%v: warm burst(1,3) = %d, %v; want %d", async, got, err, coldExpect(1, 3))
			}
		}
		cycles[i] = m.Cycles - before
		if n := c.Runtime.CacheStats().FallbackRuns - fallbacks; n != 0 {
			t.Errorf("async=%v: %d warm calls ran on the fallback tier", async, n)
		}
	}
	inline, async := segs[0], segs[1]
	if !reflect.DeepEqual(inline.Code, async.Code) || !reflect.DeepEqual(inline.Consts, async.Consts) ||
		!reflect.DeepEqual(inline.JumpTables, async.JumpTables) {
		t.Error("async promoted a segment that differs from the inline stitch of the same key")
	}
	if cycles[0] != cycles[1] {
		t.Errorf("%d warm calls cost %d guest cycles async, %d inline", warm, cycles[1], cycles[0])
	}
}
