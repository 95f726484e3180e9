package main

import (
	"math/rand"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/segio"
	"dyncc/internal/testgen"
	"dyncc/internal/vm"
)

// Tenant traffic shapes, the same as bench.Serve's: a per-tenant key space
// of 512, per-region and per-machine caches capped at 32 entries, Zipf
// s=1.3 over tenants and over keys, and 512 KiB tenant machines.
const (
	tenantKeySpace = 512
	tenantCacheCap = 32
	tenantTableLen = 6
	tenantZipfS    = 1.3
	tenantZipfV    = 1.0
	tenantMemWords = 1 << 16
	// tenantXSpace bounds the per-request input x to [1, tenantXSpace], so
	// the reference check can reuse results across repeated requests.
	tenantXSpace = 64
)

// tenantSource returns tenant i of the fleet for seed. testgen.Tenant picks
// the flavor (dispatch, pricing, templating) from its seed modulo 3, so
// tenant i has flavor i%3 for every seed. Seed 0 is bench.Serve's fleet,
// which the serve and restart workloads host.
func tenantSource(seed int64, i int) string {
	return testgen.Tenant(seed*3<<20 + int64(i))
}

// tenantTable returns tenant i's data table (bench.Serve's for seed 0).
func tenantTable(seed int64, i int) []int64 {
	r := rand.New(rand.NewSource(seed*7919 + int64(i)*2654435761 + 97))
	t := make([]int64, tenantTableLen)
	for j := range t {
		t[j] = int64(r.Intn(200) - 100)
	}
	return t
}

// tenantConfig is the compile configuration tenant programs are served
// with: dynamic, optimized, capped caches, synchronous stitching, and an
// optional persistent store.
func tenantConfig(store segio.Store) core.Config {
	return core.Config{
		Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{
			MaxEntries:        tenantCacheCap,
			MachineMaxEntries: tenantCacheCap,
			Store:             store,
		},
	}
}

// tenantMachine creates a machine for a tenant program with its data table
// allocated, returning the machine and the table's address.
func tenantMachine(c *core.Compiled, table []int64) (*vm.Machine, int64, error) {
	m := c.NewMachine(tenantMemWords)
	va, err := m.Alloc(int64(len(table)))
	if err != nil {
		return nil, 0, err
	}
	copy(m.Mem[va:], table)
	return m, va, nil
}

// traffic draws tenant requests: a Zipf-ranked tenant, a Zipf-ranked key
// and a uniform input x.
type traffic struct {
	rng    *rand.Rand
	tz, kz *rand.Zipf
}

func newTraffic(seed int64, tenants int) *traffic {
	rng := rand.New(rand.NewSource(seed))
	return &traffic{
		rng: rng,
		tz:  rand.NewZipf(rng, tenantZipfS, tenantZipfV, uint64(tenants-1)),
		kz:  rand.NewZipf(rng, tenantZipfS, tenantZipfV, tenantKeySpace-1),
	}
}

func (t *traffic) next() (tenant int, k, x int64) {
	tenant = int(t.tz.Uint64())
	k = int64(t.kz.Uint64())
	x = int64(t.rng.Intn(tenantXSpace)) + 1
	return tenant, k, x
}
