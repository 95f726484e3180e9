package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/segio"
	"dyncc/internal/testgen"
)

// The restart subjects are the hottest tenants of the serve fleet, the same
// for every seed; the seed draws each one's working set and where the
// round robin starts.
const (
	// restartSubjects tenants take turns restarting.
	restartSubjects = 24
	// restartWorkingSet is how many requests a restarted tenant replays:
	// its hot set, drawn from the serve workload's Zipf key distribution.
	restartWorkingSet = 48
	// restartSlice is the length of the slices the median is taken over.
	restartSlice = 250 * time.Millisecond
	// decodeSamples bounds the stored blobs kept for decode timing.
	decodeSamples = 4096
)

type restartSubject struct {
	src   string
	table []int64
	reqs  [][2]int64 // (k, x)
	ref   *reference
}

// restartRec is one replayed request, kept for the reference check.
type restartRec struct {
	subject int
	k, x    int64
	got     int64
}

type restartState struct {
	subjects []*restartSubject
	store    *timedStore
	next     int
	recs     []restartRec
	// exactVals are the store counters of one pass over every subject
	// (each restart is independent of the ones before it, so they repeat
	// bit for bit).
	exactVals map[string]float64
}

// timedStore is a segio.Store around a segio.MemStore that times every
// call. Get runs on the client goroutine at a stitch site; Put runs on the
// runtime's store publisher goroutine.
type timedStore struct {
	inner *segio.MemStore

	mu       sync.Mutex
	getUs    []float64
	putUs    []float64
	putBytes int
	blobs    [][]byte // first blobs Get returned while tracing, for decode timing
	tracing  bool
	tr       *tracer
	parent   int32 // span the next Get is a child of
	req      int64
}

func (s *timedStore) Get(d segio.Digest) ([]byte, error) {
	t0 := time.Now()
	b, err := s.inner.Get(d)
	t1 := time.Now()
	s.mu.Lock()
	if s.tracing {
		s.getUs = append(s.getUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		s.tr.record("segio.Store.Get", s.parent, s.req, t0, t1)
		if b != nil && len(s.blobs) < decodeSamples {
			s.blobs = append(s.blobs, b)
		}
	}
	s.mu.Unlock()
	return b, err
}

func (s *timedStore) Put(d segio.Digest, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(d, data)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	s.mu.Lock()
	s.putUs = append(s.putUs, us)
	s.putBytes += len(data)
	s.mu.Unlock()
	return err
}

func (s *timedStore) Delete(d segio.Digest) error { return s.inner.Delete(d) }

// setupRestart generates the subjects and their working sets, then
// restarts every subject twice: against the empty store, which leaves in it
// what a previous process persisted, and against the populated store, for
// the exact store counters.
func setupRestart(o *options) (state, error) {
	n := restartSubjects
	if o.small {
		n = 6
	}
	s := &restartState{store: &timedStore{inner: segio.NewMemStore()},
		next: rand.New(rand.NewSource(o.seed)).Intn(n)}
	for i := 0; i < n; i++ {
		tf := newTraffic(o.seed*977+int64(i), 2)
		sub := &restartSubject{src: tenantSource(0, i), table: tenantTable(0, i)}
		for j := 0; j < restartWorkingSet; j++ {
			_, k, x := tf.next()
			sub.reqs = append(sub.reqs, [2]int64{k, x})
		}
		s.subjects = append(s.subjects, sub)
	}
	for i := range s.subjects {
		if _, err := s.restart(i, nil, 0, nil); err != nil && !errors.Is(err, errTrap) {
			return nil, err
		}
	}
	s.exactVals = map[string]float64{"segio.bytes_per_segment": ratio(float64(s.store.putBytes), float64(len(s.store.putUs)))}
	var hits, misses, errs uint64
	for i := range s.subjects {
		cs, err := s.restart(i, nil, 0, nil)
		if err != nil && !errors.Is(err, errTrap) {
			return nil, err
		}
		hits, misses, errs = hits+cs.StoreHits, misses+cs.StoreMisses, errs+cs.StoreErrors
	}
	s.exactVals["rtr.store_hits"] = float64(hits)
	s.exactVals["rtr.store_misses"] = float64(misses)
	s.exactVals["rtr.store_errors"] = float64(errs)
	s.recs = nil
	return s, nil
}

// restart simulates one process restart of subject i: compile the tenant
// over the shared store, create its machine, replay its working set and
// shut the runtime down. phases, when non-nil, receives the compile and
// replay durations.
func (s *restartState) restart(i int, tr *tracer, req int64, phases *[2]time.Duration) (rtr.CacheStats, error) {
	sub := s.subjects[i]
	var root int32 = -1
	t0 := time.Now()
	if tr != nil {
		root = tr.open("restart", -1, req, t0)
	}
	c, err := core.Compile(sub.src, tenantConfig(s.store))
	t1 := time.Now()
	if err != nil {
		return rtr.CacheStats{}, fmt.Errorf("restart subject %d: %w", i, err)
	}
	tr.record("core.Compile", root, req, t0, t1)
	m, va, err := tenantMachine(c, sub.table)
	if err != nil {
		c.Runtime.Close()
		return rtr.CacheStats{}, err
	}
	var trapped error
	for _, kx := range sub.reqs {
		var call int32 = -1
		if tr != nil {
			call = tr.open("vm.Machine.Call", root, req, time.Now())
			s.store.mu.Lock()
			s.store.parent, s.store.req = call, req
			s.store.mu.Unlock()
		}
		got, err := m.Call(testgen.TenantEntry, va, tenantTableLen, kx[0], kx[1])
		tr.close(call, time.Now())
		if err != nil {
			trapped = fmt.Errorf("%w: restart subject %d k=%d x=%d: %v", errTrap, i, kx[0], kx[1], err)
			break
		}
		s.recs = append(s.recs, restartRec{subject: i, k: kx[0], x: kx[1], got: got})
	}
	t2 := time.Now()
	c.Runtime.Close() // drains the store publisher before the counters are read
	t3 := time.Now()
	tr.close(root, t3)
	if phases != nil {
		phases[0], phases[1] = t1.Sub(t0), t2.Sub(t1)
	}
	return c.Runtime.CacheStats(), trapped
}

// run restarts the subjects round robin in a closed loop. Each restart is
// one operation, timed from the start of its compile to the end of its
// runtime's shutdown.
func (s *restartState) run(o *options, tr *tracer) (*window, error) {
	w := &window{}
	var lat latencies
	var compileMs, replayMs []float64
	s.recs = s.recs[:0]
	s.store.mu.Lock()
	s.store.tracing, s.store.tr = tr != nil, tr
	s.store.getUs, s.store.blobs = nil, nil
	s.store.mu.Unlock()
	runtime.GC()
	start := time.Now()
	sliceEnd := start.Add(restartSlice)
	for {
		var ph [2]time.Duration
		t0 := time.Now()
		_, err := s.restart(s.next%len(s.subjects), tr, int64(w.attempted), &ph)
		t1 := time.Now()
		s.next++
		w.attempted++
		us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		if err != nil {
			if !errors.Is(err, errTrap) {
				return nil, err
			}
			w.failed++
			us = math.Inf(1)
		}
		lat.add(us)
		if t1.After(sliceEnd) {
			lat.cut()
			sliceEnd = t1.Add(restartSlice)
		}
		compileMs = append(compileMs, float64(ph[0].Nanoseconds())/1e6)
		replayMs = append(replayMs, float64(ph[1].Nanoseconds())/1e6)
		if o.ops > 0 {
			if w.attempted == o.ops {
				break
			}
		} else if t1.Sub(start).Seconds() >= o.seconds {
			break
		}
	}
	lat.fill(w, time.Since(start).Seconds())
	s.store.mu.Lock()
	s.store.tracing, s.store.tr = false, nil
	getUs, blobs := s.store.getUs, s.store.blobs
	s.store.getUs, s.store.blobs = nil, nil
	putUs := append([]float64(nil), s.store.putUs...)
	s.store.mu.Unlock()
	if tr == nil {
		return w, nil
	}
	// Decode the blobs the store served, outside the window.
	var decodeUs []float64
	for _, b := range blobs {
		t0 := time.Now()
		if _, err := segio.Decode(b); err != nil {
			return nil, fmt.Errorf("decode stored segment: %w", err)
		}
		decodeUs = append(decodeUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	w.layer = map[string]float64{
		"restart.compile_ms_p50": quantile(compileMs, 0.50),
		"restart.replay_ms_p50":  quantile(replayMs, 0.50),
		"segio.get_us_p50":       quantile(getUs, 0.50),
		"segio.put_us_p50":       quantile(putUs, 0.50),
		"segio.decode_us_p50":    quantile(decodeUs, 0.50),
	}
	return w, nil
}

// check compares every replayed request with the reference interpreter.
func (s *restartState) check() (int, error) {
	recs := s.recs
	s.recs = nil
	for _, r := range recs {
		sub := s.subjects[r.subject]
		if sub.ref == nil {
			ref, err := newReference(sub.src)
			if err != nil {
				return 0, err
			}
			sub.ref = ref
		}
		want, err := sub.ref.memoCall(testgen.TenantEntry, sub.table, r.k, r.x)
		if err != nil {
			return 0, fmt.Errorf("reference restart subject %d: %w", r.subject, err)
		}
		if r.got != want {
			return 0, fmt.Errorf("%w: restart subject %d serve(k=%d, x=%d) = %d, reference %d\n%s",
				errMismatch, r.subject, r.k, r.x, r.got, want, sub.src)
		}
	}
	return 0, nil
}

func (s *restartState) exact() (map[string]float64, error) { return s.exactVals, nil }

// close has nothing to release: every restart closes its own runtime.
func (s *restartState) close() {}
