package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/segio"
)

// heldStore is a segio.Store whose Get blocks until release is closed. A
// background stitch consults the store before stitching, so it holds every
// worker at its first job; Get then reports a miss and the stitch runs.
type heldStore struct {
	release chan struct{}
	once    sync.Once
	gets    atomic.Int64
}

func (s *heldStore) Get(segio.Digest) ([]byte, error) {
	s.gets.Add(1)
	<-s.release
	return nil, nil
}

func (s *heldStore) Put(segio.Digest, []byte) error { return nil }
func (s *heldStore) Delete(segio.Digest) error      { return nil }
func (s *heldStore) free()                          { s.once.Do(func() { close(s.release) }) }

// TestColdBurstAsyncImprovesTail is the acceptance property behind
// BENCH_4, checked exactly: under asynchronous stitching no caller blocks
// on the stitch of a cold key. With every background worker held at its
// store consult, a burst of cold keys must still return, each call on the
// generic fallback tier and none specialized yet; once the workers are
// released every key is published. Asynchronous stitching must also not
// tax warm dispatch (both modes dispatch the same promoted segment), which
// ColdBurst measures; the committed BENCH_4.json records the full-size
// latency comparison.
func TestColdBurstAsyncImprovesTail(t *testing.T) {
	keys, warm := 200, 5000
	if testing.Short() {
		keys, warm = 80, 1000
	}
	st := &heldStore{release: make(chan struct{})}
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
	held := c.Runtime.CacheStats()
	if held.FallbackRuns != uint64(keys) {
		t.Errorf("%d of %d cold calls ran on the fallback tier", held.FallbackRuns, keys)
	}
	if held.AsyncStitches != 0 || held.QueueRejects != 0 {
		t.Errorf("while held: %d stitches published, %d keys rejected; want 0 and 0",
			held.AsyncStitches, held.QueueRejects)
	}
	if st.gets.Load() == 0 {
		t.Error("no background stitch reached the store")
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

	r, err := ColdBurst(keys, warm)
	if err != nil {
		t.Fatal(err)
	}
	// Warm dispatch must be mode-neutral: both paths dispatch the same
	// promoted segment. 2x slack absorbs scheduler noise in short runs.
	if r.AsyncWarmNs > 2*r.InlineWarmNs {
		t.Errorf("warm dispatch regressed under async: %.0f ns vs %.0f ns inline",
			r.AsyncWarmNs, r.InlineWarmNs)
	}
	if r.FallbackRuns == 0 {
		t.Error("no fallback-tier executions during the async burst")
	}
	if r.AsyncStitches == 0 {
		t.Error("background pool published nothing")
	}
}
