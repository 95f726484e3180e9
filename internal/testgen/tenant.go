// Tenant program generation for multi-tenant serving (perfbench's serve
// and restart workloads, and bench.TestServeSmall). A "tenant" is one small MiniC program of the shape a
// dynamic-compilation service actually hosts per customer — a dispatch
// table, a template renderer, a pricing rule — each with one keyed dynamic
// region so the runtime specializes per (tenant, key) pair. The generator
// is seeded and deterministic: the same seed always yields the same
// source, so benchmark corpora are reproducible and serial/batch compiles
// of a corpus can be compared byte for byte.
package testgen

import (
	"fmt"
	"math/rand"
)

// TenantEntry is the exported entry point every generated tenant program
// defines:
//
//	int serve(int *t, int n, int k, int x)
//
// t/n are the tenant's data table (n >= 1 words), k is the specialization
// key (the Zipf-distributed dimension), and x is the per-request varying
// input.
const TenantEntry = "serve"

// TenantFlavors is the number of distinct tenant program shapes.
const TenantFlavors = 3

// Tenant returns the deterministic tenant program for seed. Flavors cycle
// through the three serving archetypes:
//
//   - dispatch: a constant-folded branch ladder over the key — stitching
//     resolves every guard and the specialization is straight-line code.
//     Pure key-derived set-up, so the region is shareable and async-
//     stitch eligible.
//   - pricing: a rate formula whose coefficients derive from the key —
//     stitch-time constant folding and strength reduction. Also pure
//     key-derived.
//   - templating: an unrolled render loop over the tenant's data table —
//     the paper's loop-unrolling + load-elimination machinery. Set-up
//     reads machine memory (the table), so this flavor stitches inline
//     per machine, exercising the non-shareable path.
func Tenant(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	switch seed % TenantFlavors {
	case 0:
		return tenantDispatch(r)
	case 1:
		return tenantPricing(r)
	default:
		return tenantTemplating(r)
	}
}

// tenantDispatch builds a branch ladder over (k & mask): every guard is a
// run-time constant, so the stitcher resolves the whole ladder to the one
// taken arm.
func tenantDispatch(r *rand.Rand) string {
	mask := []int{1, 3, 7}[r.Intn(3)]
	arms := mask + 1
	body := ""
	indent := "        "
	for a := 0; a < arms; a++ {
		c1 := r.Intn(900) + 1
		c2 := r.Intn(100) + 1
		arm := []string{
			fmt.Sprintf("r = x * %d + %d;", c1%13+2, c2),
			fmt.Sprintf("r = (x + %d) * %d;", c1, c2%9+2),
			fmt.Sprintf("r = (x << %d) - %d;", r.Intn(4)+1, c1),
			fmt.Sprintf("r = (x ^ %d) + (x << %d);", c1, r.Intn(3)+1),
		}[r.Intn(4)]
		if a < arms-1 {
			body += fmt.Sprintf("%sif ((k & %d) == %d) { %s } else {\n", indent, mask, a, arm)
			indent += "  "
		} else {
			body += fmt.Sprintf("%s%s\n", indent, arm)
		}
	}
	for a := 0; a < arms-1; a++ {
		indent = indent[:len(indent)-2]
		body += indent + "}\n"
	}
	return fmt.Sprintf(`
int serve(int *t, int n, int k, int x) {
    int r = 0;
    dynamicRegion key(k) () {
%s        r = r + ((k * %d) & %d);
    }
    return r;
}`, body, r.Intn(50)+3, []int{63, 127, 255}[r.Intn(3)])
}

// tenantPricing builds a rate formula whose coefficients are derived from
// the key at set-up time, plus one constant-resolved surcharge branch.
func tenantPricing(r *rand.Rand) string {
	a1 := r.Intn(37) + 3
	a2 := r.Intn(500) + 1
	capMask := []int{255, 511, 1023}[r.Intn(3)]
	surchargeBit := 1 << r.Intn(3)
	s1 := r.Intn(29) + 2
	s2 := r.Intn(200) + 1
	extra := ""
	if r.Intn(2) == 0 {
		extra = fmt.Sprintf("        r = r ^ (x * ((k & 15) + %d));\n", r.Intn(20)+1)
	}
	return fmt.Sprintf(`
int serve(int *t, int n, int k, int x) {
    int r = 0;
    dynamicRegion key(k) () {
        int base = (k * %d + %d) & %d;
        r = x * base + %d;
        if ((k & %d) == %d) {
            r = r + x * %d;
        } else {
            r = r - %d;
        }
%s    }
    return r;
}`, a1, a2, capMask, r.Intn(100), surchargeBit, surchargeBit, s1, s2, extra)
}

// tenantTemplating builds an unrolled render loop over the tenant's table:
// the region's run-time constants include the table pointer and length, so
// set-up reads machine memory and the stitched code is per-machine.
func tenantTemplating(r *rand.Rand) string {
	m1 := r.Intn(7) + 1
	m2 := r.Intn(40) + 1
	op := []string{"+", "^"}[r.Intn(2)]
	tail := ""
	if r.Intn(2) == 0 {
		tail = fmt.Sprintf("        r = r %s (x + %d);\n", []string{"+", "^", "-"}[r.Intn(3)], r.Intn(300))
	}
	return fmt.Sprintf(`
int serve(int *t, int n, int k, int x) {
    int i;
    int r = 0;
    dynamicRegion key(k) (t, n) {
        unrolled for (i = 0; i < n; i++) {
            r = r %s t[i] * ((k & %d) + %d);
        }
%s    }
    return r;
}`, op, m1, m2, tail)
}
