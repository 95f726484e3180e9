package rtr_test

import (
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/segio"
	"dyncc/internal/testgen"
)

// compileTenant compiles serving tenant seed with a persistent store
// configured, the way a restarted server does.
func compileTenant(tb testing.TB, seed int64) *core.Compiled {
	tb.Helper()
	c, err := core.Compile(testgen.Tenant(seed), core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{Store: segio.NewMemStore()}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Runtime.Close)
	return c
}

// TestFingerprintsRepeatAcrossCompiles: two compiles of one source derive
// equal fingerprints for every region, so a restarted process finds what
// the previous one persisted; every shareable region has one.
func TestFingerprintsRepeatAcrossCompiles(t *testing.T) {
	shared := 0
	for seed := int64(0); seed < testgen.TenantFlavors; seed++ {
		a, b := compileTenant(t, seed), compileTenant(t, seed)
		fa, fb := a.Runtime.RegionFingerprints(), b.Runtime.RegionFingerprints()
		for i, r := range a.Output.Regions {
			if fa[i] != fb[i] {
				t.Errorf("tenant %d region %d: fingerprints differ across compiles", seed, i)
			}
			if r.Shareable {
				shared++
				if fa[i] == ([32]byte{}) {
					t.Errorf("tenant %d region %d: shareable but not fingerprinted", seed, i)
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no tenant has a shareable region; the test checks nothing")
	}
}

// BenchmarkRegionFingerprint derives the store fingerprints of one serving
// tenant of each flavor: the work rtr.New adds to a compile that
// configures a store.
func BenchmarkRegionFingerprint(b *testing.B) {
	var rts []*rtr.Runtime
	for seed := int64(0); seed < testgen.TenantFlavors; seed++ {
		rts = append(rts, compileTenant(b, seed).Runtime)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rt := range rts {
			benchFingerprints = rt.RegionFingerprints()
		}
	}
}

var benchFingerprints [][32]byte
