package testgen

import (
	"fmt"
	"math/rand"
)

// Program is one member of a generated compile corpus.
type Program struct {
	Name, Src string
	// Auto marks an annotation-stripped program, meant to be compiled
	// with automatic region promotion (core.Config.AutoRegion).
	Auto bool
}

// Corpus returns, for each seed 1..n, a generated program, a call-bearing
// one, a serving tenant and the first program with its annotations
// stripped: the shapes every compiler pass sees.
func Corpus(n int64) []Program {
	ps := make([]Program, 0, 4*n)
	for seed := int64(1); seed <= n; seed++ {
		src := Gen(rand.New(rand.NewSource(seed)))
		calls := GenWith(rand.New(rand.NewSource(seed)), GenOpts{WithCalls: true})
		ps = append(ps,
			Program{Name: fmt.Sprintf("gen seed %d", seed), Src: src},
			Program{Name: fmt.Sprintf("calls seed %d", seed), Src: calls},
			Program{Name: fmt.Sprintf("tenant seed %d", seed), Src: Tenant(seed)},
			Program{Name: fmt.Sprintf("stripped seed %d", seed), Src: StripAnnotations(src), Auto: true})
	}
	return ps
}
