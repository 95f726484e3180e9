// Persistent-store properties: the level-0 code cache must be invisible to
// semantics and byte-exact. RunStore pins that down with a simulated
// restart — compile, run, drain the store publisher, then compile the same
// source into a *fresh* runtime over the same store and run again. The
// second (cold) runtime must agree with the unoptimized-IR reference, its
// store-served segments must be byte-identical (under the canonical segio
// encoding) to the segments the first runtime stitched inline, and the
// extended cache-stats invariants must hold on both sides.
package testgen

import (
	"fmt"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/segio"
	"dyncc/internal/vm"
)

// storeStats pulls the counters RunStore asserts on and checks the lookup
// invariant, which store consults must never disturb.
func storeStats(name string, p *core.Compiled, tc *testCase) (rtr.CacheStats, error) {
	cs := p.Runtime.CacheStats()
	if cs.Lookups != cs.SharedHits+cs.Waits+cs.FailedHits+cs.Misses {
		return cs, fmt.Errorf("%s: lookup invariant broken: %d != %d+%d+%d+%d (seed=%d)\n%s",
			name, cs.Lookups, cs.SharedHits, cs.Waits, cs.FailedHits, cs.Misses, tc.seed, tc.src)
	}
	return cs, nil
}

// RunStore differentially executes the generated program for seed through
// a persistent-store restart cycle: a warm runtime populates an in-memory
// store, then a cold runtime over the same store must serve byte-identical
// code and agree with the reference, stitching only what the store cannot
// supply.
func RunStore(seed, cIn, xIn int64) error {
	tc, err := buildCase(seed, cIn, xIn)
	if err != nil {
		return err
	}
	store := segio.NewMemStore()
	cfg := core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{Store: store}}

	// Warm run: stitches inline, publishes to the store. Close drains the
	// publisher so every stitch is durable before the restart.
	warm, err := tc.runKept("store:warm", cfg)
	if err != nil {
		return err
	}
	warm.Runtime.Close()
	wcs, err := storeStats("store:warm", warm, tc)
	if err != nil {
		return err
	}
	if wcs.StoreHits != 0 || wcs.StoreErrors != 0 {
		return fmt.Errorf("store:warm: %d hits / %d errors against an empty store (seed=%d)\n%s",
			wcs.StoreHits, wcs.StoreErrors, tc.seed, tc.src)
	}
	if int(wcs.StorePuts) != store.Len() {
		return fmt.Errorf("store:warm: %d puts counted, %d blobs stored (seed=%d)\n%s",
			wcs.StorePuts, store.Len(), tc.seed, tc.src)
	}

	// Cold run: a fresh runtime (simulated restart) over the populated
	// store. Every specialization the warm run persisted must be served
	// from the store instead of stitched.
	cold, err := tc.runKept("store:cold", cfg)
	if err != nil {
		return err
	}
	defer cold.Runtime.Close()
	ccs, err := storeStats("store:cold", cold, tc)
	if err != nil {
		return err
	}
	if ccs.StoreErrors != 0 {
		return fmt.Errorf("store:cold: %d store errors (seed=%d)\n%s",
			ccs.StoreErrors, tc.seed, tc.src)
	}
	if ccs.StoreHits != wcs.StorePuts {
		return fmt.Errorf("store:cold: %d store hits, warm run persisted %d (seed=%d)\n%s",
			ccs.StoreHits, wcs.StorePuts, tc.seed, tc.src)
	}
	if ccs.Stitches+ccs.StoreHits != wcs.Stitches {
		return fmt.Errorf("store:cold: %d stitches + %d store hits != warm %d stitches (seed=%d)\n%s",
			ccs.Stitches, ccs.StoreHits, wcs.Stitches, tc.seed, tc.src)
	}

	// Byte identity: the cold runtime's retained segments (store-served and
	// re-stitched alike) must encode identically to the warm runtime's.
	for region := range warm.Runtime.Regions {
		ws, cs := warm.Runtime.Stitched[region], cold.Runtime.Stitched[region]
		if len(ws) != len(cs) {
			return fmt.Errorf("store: region %d retained %d warm vs %d cold segments (seed=%d)\n%s",
				region, len(ws), len(cs), tc.seed, tc.src)
		}
		for k := range ws {
			if err := sameSegment(ws[k], cs[k]); err != nil {
				return fmt.Errorf("store: region %d segment %d: %w (seed=%d)\n%s",
					region, k, err, tc.seed, tc.src)
			}
			we, ce := segio.Encode(ws[k]), segio.Encode(cs[k])
			if string(we) != string(ce) {
				return fmt.Errorf("store: region %d segment %d: encodings differ (%d vs %d bytes, seed=%d)\n%s",
					region, k, len(we), len(ce), tc.seed, tc.src)
			}
		}
	}

	// Async cold run: the background stitch path must consult the store
	// too (runJob head), and the promoted tier must agree with the
	// reference once idle.
	async := cfg
	async.Cache.AsyncStitch = true
	if err := tc.checkSubject("store:cold+async", async); err != nil {
		return err
	}
	return nil
}

// runKept compiles the case under cfg with diagnostic segment retention on,
// runs the full call sequence, and returns the compiled program so the
// caller can inspect Runtime.Stitched. Inline stitching only: stitch order
// (and therefore retention order) is then deterministic, so two runtimes
// running the same call sequence retain comparable slices.
func (tc *testCase) runKept(name string, cfg core.Config) (*core.Compiled, error) {
	cfg.Cache.KeepStitched = true
	p, err := core.Compile(tc.src, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s compile: %w\n%s", name, err, tc.src)
	}
	m := p.NewMachine(0)
	va, err := m.Alloc(tc.n)
	if err != nil {
		p.Runtime.Close()
		return nil, fmt.Errorf("%s alloc: %w", name, err)
	}
	copy(m.Mem[va:va+tc.n], tc.contents)
	for _, x := range tc.xs {
		if _, err := m.Call("f", va, tc.n, tc.c, x); err != nil {
			p.Runtime.Close()
			return nil, fmt.Errorf("%s run (c=%d x=%d): %w\n%s", name, tc.c, x, err, tc.src)
		}
	}
	return p, nil
}

// sameSegment compares the emitted artifact fields two runtimes must
// agree on byte for byte.
func sameSegment(a, b *vm.Segment) error {
	if len(a.Code) != len(b.Code) {
		return fmt.Errorf("code length %d != %d", len(a.Code), len(b.Code))
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			return fmt.Errorf("code[%d] differs: %+v != %+v", i, a.Code[i], b.Code[i])
		}
	}
	if len(a.Consts) != len(b.Consts) {
		return fmt.Errorf("const pool length %d != %d", len(a.Consts), len(b.Consts))
	}
	for i := range a.Consts {
		if a.Consts[i] != b.Consts[i] {
			return fmt.Errorf("consts[%d] differs: %d != %d", i, a.Consts[i], b.Consts[i])
		}
	}
	return nil
}
