package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"dyncc/internal/core"
	"dyncc/internal/testgen"
	"dyncc/internal/vm"
)

// The serve fleet is the first serveTenants tenants of bench.Serve's
// fleet, the same for every seed, so timings compare across seeds; the
// seed draws the traffic. Each tenant has two 512 KiB machines, so the
// fleet holds 128 MiB of machine memory.
const (
	serveTenants = 128 // at most 256: serveRec stores the tenant in a byte
	// serveWarmup requests run in set-up to fill every cache. The exact
	// per-layer counts are taken over the second half of them: a fixed
	// request sequence from a fresh fleet, so they repeat bit for bit.
	serveWarmup = 200_000
	// serveSlice is the length of the slices the median is taken over.
	serveSlice = 100 * time.Millisecond
)

type tenantRT struct {
	src   string
	prog  *core.Compiled
	table []int64
	ms    [2]*vm.Machine
	va    [2]int64
	next  int // machine that serves the tenant's next request
}

// serveRec is one served request, kept for the reference check.
type serveRec struct {
	tenant uint8
	x      uint8
	k      uint16
	failed bool
	got    int64
}

type serveState struct {
	tenants []*tenantRT
	traffic *traffic
	recs    []serveRec
	// replacements counts machines replaced after a trapped call;
	// retired holds the counters of replaced machines so fleet totals stay
	// monotonic.
	replacements int
	retired      fleetCounters
	exactVals    map[string]float64
	// kernelErr is a wrong answer from a Table 2 kernel, which check
	// reports.
	kernelErr error
}

func setupServe(o *options) (state, error) {
	n, warm := serveTenants, serveWarmup
	if o.small {
		n, warm = 12, 4000
	}
	s := &serveState{traffic: newTraffic(o.seed, n)}
	for i := 0; i < n; i++ {
		t := &tenantRT{src: tenantSource(0, i), table: tenantTable(0, i)}
		c, err := core.Compile(t.src, tenantConfig(nil))
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		t.prog = c
		for j := range t.ms {
			if t.ms[j], t.va[j], err = tenantMachine(c, t.table); err != nil {
				return nil, err
			}
		}
		s.tenants = append(s.tenants, t)
	}
	var before fleetCounters
	misses := 0
	for r := 0; r < warm; r++ {
		if r == warm/2 {
			before, misses = s.counters(), 0
		}
		ti, k, x := s.traffic.next()
		m := s.tenants[ti].ms[s.tenants[ti].next]
		c0 := m.Region(0).Compiles
		if _, _, err := s.serve(ti, k, x); err != nil {
			return nil, err
		}
		if m.Region(0).Compiles != c0 {
			misses++
		}
	}
	s.exactVals = s.counters().exact(before, warm-warm/2, misses)
	return s, nil
}

// serve sends one request to the tenant's next machine. If the call traps,
// the machine is replaced with a fresh one and the request is sent again
// to the replacement, as a server would; trap is then the first call's
// error. err wraps errTrap when the replacement traps too.
func (s *serveState) serve(ti int, k, x int64) (got int64, trap, err error) {
	t := s.tenants[ti]
	mi := t.next
	t.next ^= 1
	got, cerr := t.ms[mi].Call(testgen.TenantEntry, t.va[mi], tenantTableLen, k, x)
	if cerr == nil {
		return got, nil, nil
	}
	trap = fmt.Errorf("tenant %d k=%d x=%d: %v", ti, k, x, cerr)
	s.retired.add(t.ms[mi])
	s.replacements++
	m, va, err := tenantMachine(t.prog, t.table)
	if err != nil {
		return 0, trap, err
	}
	t.ms[mi], t.va[mi] = m, va
	if got, cerr = m.Call(testgen.TenantEntry, va, tenantTableLen, k, x); cerr != nil {
		return 0, trap, fmt.Errorf("%w: tenant %d k=%d x=%d on a fresh machine: %v", errTrap, ti, k, x, cerr)
	}
	return got, trap, nil
}

// run serves Zipf traffic from one client goroutine in a closed loop. A
// traced window also classifies every request as a hit or a miss (a miss
// stitched on its machine: Region(0).Compiles changed during the call).
func (s *serveState) run(o *options, tr *tracer) (*window, error) {
	w := &window{}
	var lat latencies
	var hit, miss []float64
	s.recs = s.recs[:0]
	repl0 := s.replacements
	runtime.GC()
	start := time.Now()
	sliceEnd := start.Add(serveSlice)
	for {
		ti, k, x := s.traffic.next()
		t := s.tenants[ti]
		m := t.ms[t.next]
		var c0 uint64
		if tr != nil {
			c0 = m.Region(0).Compiles
		}
		t0 := time.Now()
		got, trap, err := s.serve(ti, k, x)
		t1 := time.Now()
		us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		rec := serveRec{tenant: uint8(ti), k: uint16(k), x: uint8(x), got: got}
		w.attempted++
		if trap != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve: machine replaced after a trap:", trap)
		}
		if err != nil {
			if !errors.Is(err, errTrap) {
				return nil, err
			}
			fmt.Fprintln(os.Stderr, "perfbench: serve: failed request:", err)
			w.failed++
			rec.failed = true
			us = math.Inf(1)
		}
		s.recs = append(s.recs, rec)
		lat.add(us)
		if t1.After(sliceEnd) {
			lat.cut()
			sliceEnd = t1.Add(serveSlice)
		}
		if tr != nil {
			tr.record("vm.Machine.Call", -1, int64(w.attempted), t0, t1)
			switch {
			case trap != nil: // its machine was replaced: neither hit nor miss
			case m.Region(0).Compiles != c0:
				miss = append(miss, us)
			default:
				hit = append(hit, us)
			}
		}
		if o.ops > 0 {
			if w.attempted == o.ops {
				break
			}
		} else if w.attempted%64 == 0 && t1.Sub(start).Seconds() >= o.seconds {
			break
		}
	}
	lat.fill(w, time.Since(start).Seconds())
	if tr == nil {
		return w, nil
	}
	w.layer = map[string]float64{
		"serve.hit_us_p50":        quantile(hit, 0.50),
		"serve.hit_us_p99":        quantile(hit, 0.99),
		"serve.miss_us_p50":       quantile(miss, 0.50),
		"serve.miss_us_p99":       quantile(miss, 0.99),
		"vm.machine_replacements": float64(s.replacements - repl0),
	}
	disp, err := kernelDispatch(o)
	if errors.Is(err, errMismatch) {
		s.kernelErr = err
	} else if err != nil {
		return nil, err
	}
	for k, v := range disp {
		w.layer[k] = v
	}
	return w, nil
}

// check compares every request the window served with the reference
// interpreter, one tenant at a time.
func (s *serveState) check() (int, error) {
	// Group the records by tenant: a counting sort of their indices.
	start := make([]int, len(s.tenants)+1)
	for _, r := range s.recs {
		start[r.tenant+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	order := make([]int32, len(s.recs))
	next := append([]int(nil), start...)
	for i, r := range s.recs {
		order[next[r.tenant]] = int32(i)
		next[r.tenant]++
	}
	recs := s.recs
	s.recs = nil
	if err := s.kernelErr; err != nil {
		s.kernelErr = nil
		return 0, err
	}
	for ti, t := range s.tenants {
		if start[ti] == start[ti+1] {
			continue
		}
		ref, err := newReference(t.src)
		if err != nil {
			return 0, err
		}
		// want[k*tenantXSpace+x-1] caches the reference result, 0 when
		// not yet known (known[...] false).
		want := make([]int64, tenantKeySpace*tenantXSpace)
		known := make([]bool, len(want))
		for _, ri := range order[start[ti]:start[ti+1]] {
			r := recs[ri]
			if r.failed {
				continue
			}
			i := int(r.k)*tenantXSpace + int(r.x) - 1
			if !known[i] {
				v, err := ref.call(testgen.TenantEntry, t.table, int64(r.k), int64(r.x))
				if err != nil {
					return 0, fmt.Errorf("reference tenant %d: %w", ti, err)
				}
				want[i], known[i] = v, true
			}
			if r.got != want[i] {
				return 0, fmt.Errorf("%w: tenant %d serve(k=%d, x=%d) = %d, reference %d\n%s",
					errMismatch, ti, r.k, r.x, r.got, want[i], t.src)
			}
		}
	}
	return 0, nil
}

// exact returns the fleet counts measured in set-up and the Table 2
// kernels' modeled figures.
func (s *serveState) exact() (map[string]float64, error) {
	out, err := table2()
	if err != nil {
		return nil, err
	}
	for k, v := range s.exactVals {
		out[k] = v
	}
	return out, nil
}

func (s *serveState) close() {
	for _, t := range s.tenants {
		t.prog.Runtime.Close()
	}
}

// fleetCounters sums the cache and machine counters of the whole fleet.
type fleetCounters struct {
	lookups, sharedHits, misses, stitches, stencil, evictions, restitches uint64
	bytesResident, peakEntries                                            uint64
	cycles, insts, setupCycles, stitchCycles, stitchedInsts, compiles     uint64
}

// add accumulates one machine's counters into f.
func (f *fleetCounters) add(m *vm.Machine) {
	rc := m.Region(0)
	f.cycles += m.Cycles
	f.insts += m.Insts
	f.setupCycles += rc.SetupCycles
	f.stitchCycles += rc.StitchCycles
	f.stitchedInsts += rc.StitchedInsts
	f.compiles += rc.Compiles
}

func (s *serveState) counters() fleetCounters {
	f := s.retired
	for _, t := range s.tenants {
		cs := t.prog.Runtime.CacheStats()
		f.lookups += cs.Lookups
		f.sharedHits += cs.SharedHits
		f.misses += cs.Misses
		f.stitches += cs.Stitches
		f.stencil += cs.StencilStitches
		f.evictions += cs.Evictions
		f.restitches += cs.Restitches
		f.bytesResident += cs.BytesResident
		f.peakEntries += cs.PeakEntries
		for _, m := range t.ms {
			f.add(m)
		}
	}
	return f
}

// exact turns the counter growth since before, over reqs requests of
// which missReqs stitched, into the serve workload's exact metrics.
func (f fleetCounters) exact(before fleetCounters, reqs, missReqs int) map[string]float64 {
	d := func(a, b uint64) float64 { return float64(a - b) }
	n := float64(reqs)
	stitches := d(f.stitches, before.stitches)
	insts := d(f.stitchedInsts, before.stitchedInsts)
	lookups := d(f.lookups, before.lookups)
	return map[string]float64{
		"serve.miss_request_share":    float64(missReqs) / n,
		"rtr.lookups_per_request":     lookups / n,
		"rtr.shared_hit_share":        ratio(d(f.sharedHits, before.sharedHits), lookups),
		"rtr.miss_share":              ratio(d(f.misses, before.misses), lookups),
		"rtr.evictions_per_request":   d(f.evictions, before.evictions) / n,
		"rtr.restitch_share":          ratio(d(f.restitches, before.restitches), stitches),
		"rtr.bytes_resident":          float64(f.bytesResident),
		"rtr.peak_entries":            float64(f.peakEntries),
		"stitcher.insts_per_stitch":   ratio(insts, d(f.compiles, before.compiles)),
		"stitcher.cycles_per_inst":    ratio(d(f.stitchCycles, before.stitchCycles), insts),
		"stitcher.stencil_share":      ratio(d(f.stencil, before.stencil), stitches),
		"vm.setup_cycles_per_miss":    ratio(d(f.setupCycles, before.setupCycles), float64(missReqs)),
		"vm.guest_insts_per_request":  d(f.insts, before.insts) / n,
		"vm.guest_cycles_per_request": d(f.cycles, before.cycles) / n,
	}
}
