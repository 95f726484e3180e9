// Package analysis implements the paper's pair of interconnected dataflow
// analyses (section 3.1, Appendix A): run-time constants identification and
// reachability conditions. Reachability conditions are disjunctions of
// conjunctions of constant-branch outcomes, represented as sets of sets,
// and are what lets the run-time constants analysis identify constant
// merges even in unstructured control flow.
package analysis

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dyncc/internal/ir"
)

// Atom is a single branch-outcome condition B→S: constant branch B (a Br or
// Switch terminator, identified by its block) takes successor index S.
type Atom struct {
	Block *ir.Block // block whose terminator is the constant branch
	Succ  int       // index into the terminator's Targets
}

func (a Atom) String() string { return fmt.Sprintf("b%d→%d", a.Block.ID, a.Succ) }

// Conj is a conjunction of atoms, kept sorted and duplicate-free.
type Conj []Atom

// Cond is a reachability condition: a disjunction of conjunctions.
//
//	False (unreachable):  empty disjunction
//	True  (always):       the disjunction containing the empty conjunction
type Cond struct {
	Disj []Conj
}

// False is the unreachable condition.
func False() Cond { return Cond{} }

// True is the always-reachable condition.
func True() Cond { return Cond{Disj: []Conj{{}}} }

// IsFalse reports whether c is unreachable.
func (c Cond) IsFalse() bool { return len(c.Disj) == 0 }

// IsTrue reports whether c is the unconstrained condition.
func (c Cond) IsTrue() bool {
	for _, cj := range c.Disj {
		if len(cj) == 0 {
			return true
		}
	}
	return false
}

func atomLess(a, b Atom) bool {
	if a.Block.ID != b.Block.ID {
		return a.Block.ID < b.Block.ID
	}
	return a.Succ < b.Succ
}

func (cj Conj) clone() Conj { return append(Conj(nil), cj...) }

func (cj Conj) sortDedup() Conj {
	sort.Slice(cj, func(i, j int) bool { return atomLess(cj[i], cj[j]) })
	out := cj[:0]
	for i, a := range cj {
		if i > 0 && a == cj[i-1] {
			continue
		}
		out = append(out, a)
	}
	return out
}

// canonical reports whether cj is already sorted, duplicate-free and free
// of contradictions, so normalization can keep it as it is.
func (cj Conj) canonical() bool {
	for i := 1; i < len(cj); i++ {
		if !atomLess(cj[i-1], cj[i]) || cj[i].Block == cj[i-1].Block {
			return false
		}
	}
	return true
}

// contradicts reports whether the conjunction contains two atoms for the
// same branch with different successors (and is therefore false).
func (cj Conj) contradicts() bool {
	for i := 1; i < len(cj); i++ {
		if cj[i].Block == cj[i-1].Block && cj[i].Succ != cj[i-1].Succ {
			return true
		}
	}
	return false
}

// subsumes reports whether cj1 ⊆ cj2 (cj1 is weaker, so cj2 is redundant in
// a disjunction containing cj1).
func (cj1 Conj) subsumes(cj2 Conj) bool {
	i := 0
	for _, a := range cj1 {
		for i < len(cj2) && atomLess(cj2[i], a) {
			i++
		}
		if i >= len(cj2) || cj2[i] != a {
			return false
		}
	}
	return true
}

// with returns the canonical conjunction cj ∧ a, sharing cj when it
// already contains a; ok is false when a contradicts an atom of cj.
func (cj Conj) with(a Atom) (n Conj, ok bool) {
	i := 0
	for i < len(cj) && atomLess(cj[i], a) {
		i++
	}
	if i > 0 && cj[i-1].Block == a.Block {
		return nil, false
	}
	if i < len(cj) && cj[i].Block == a.Block {
		return cj, cj[i].Succ == a.Succ
	}
	n = make(Conj, len(cj)+1)
	copy(n, cj[:i])
	n[i] = a
	copy(n[i+1:], cj[i:])
	return n, true
}

// compareKeys orders conjunctions as the strings formed by writing each
// atom as "id:succ;" in decimal would order, without building them: the
// result depends only on the first atom that differs, because an atom's
// text ends at its only ';' and so is never a proper prefix of another's.
// This puts b10 before b2, the order split emits guards in.
func compareKeys(x, y Conj) int {
	for i := 0; i < len(x) && i < len(y); i++ {
		a, b := x[i], y[i]
		if a.Block.ID == b.Block.ID && a.Succ == b.Succ {
			continue
		}
		var ba, bb [48]byte
		return bytes.Compare(appendKey(ba[:0], a), appendKey(bb[:0], b))
	}
	return cmp.Compare(len(x), len(y))
}

func appendKey(buf []byte, a Atom) []byte {
	buf = strconv.AppendInt(buf, int64(a.Block.ID), 10)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(a.Succ), 10)
	return append(buf, ';')
}

// MaxConjs bounds the size of a condition: the paper notes worst-case
// exponential growth; in practice conditions stay small. On overflow the
// condition degrades to True (no information, merges treated
// conservatively).
const MaxConjs = 64

// And conjoins atom a onto every conjunction of c (the transfer function
// across a constant branch edge).
func (c Cond) And(a Atom) Cond {
	out := make([]Conj, 0, len(c.Disj))
	for _, cj := range c.Disj {
		if n, ok := cj.with(a); ok {
			out = append(out, n)
		}
	}
	return Cond{Disj: out}.normalize()
}

// Or disjoins two conditions (the meet at merges), applying the paper's
// simplification {{A→T,cs},{A→F,cs},ds} → {{cs},ds}.
func (c Cond) Or(d Cond) Cond {
	switch {
	case c.IsFalse() || d.IsTrue():
		return d
	case d.IsFalse() || c.IsTrue() || Equal(c, d):
		return c
	}
	out := make([]Conj, 0, len(c.Disj)+len(d.Disj))
	out = append(append(out, c.Disj...), d.Disj...)
	return Cond{Disj: out}.normalize()
}

// normalize dedups, absorbs subsumed conjunctions, merges complementary
// pairs, and applies the size cap. It reorders c.Disj in place, so the
// caller must own that slice; the conjunctions themselves are never
// written, which lets conditions share them.
func (c Cond) normalize() Cond {
	// Dedup, keeping the first occurrence of each conjunction.
	conjs := c.Disj[:0]
	for _, cj := range c.Disj {
		if !cj.canonical() {
			cj = cj.clone().sortDedup()
			if cj.contradicts() {
				continue
			}
		}
		if !containsConj(conjs, cj) {
			conjs = append(conjs, cj)
		}
	}

	// Iterate complementary-merge + absorption to a fixpoint.
	for {
		changed := false
		// Complementary merge: two conjunctions identical except for one
		// atom on the same two-way branch with different successors reduce
		// to the common part. (For n-way switches, all n outcomes must be
		// present; handled by grouping.)
	merge:
		for i := 0; i < len(conjs); i++ {
			for j := i + 1; j < len(conjs); j++ {
				if m, ok := complementMerge(conjs[i], conjs[j]); ok {
					conjs[i] = m
					conjs = append(conjs[:j], conjs[j+1:]...)
					changed = true
					break merge
				}
			}
		}
		// Absorption: drop a conjunction subsumed by a shorter one, or by
		// an equal earlier one. Whenever a dropped conjunction absorbs
		// another, so does whatever absorbed it, so it is enough to test
		// against the kept ones before i (compacted into conjs[:n]) and
		// every one after i (not yet moved).
		n := 0
		for i, cj := range conjs {
			if !absorbed(cj, conjs[:n], conjs[i+1:]) {
				conjs[n] = cj
				n++
			}
		}
		if n != len(conjs) {
			conjs = conjs[:n]
			changed = true
		}
		if !changed {
			break
		}
	}
	if len(conjs) > MaxConjs {
		return True()
	}
	if len(conjs) == 0 {
		return False()
	}
	slices.SortFunc(conjs, compareKeys)
	return Cond{Disj: conjs}
}

func containsConj(conjs []Conj, cj Conj) bool {
	for _, other := range conjs {
		if slices.Equal(other, cj) {
			return true
		}
	}
	return false
}

// absorbed reports whether cj is subsumed by a conjunction of before no
// longer than it or by a strictly shorter conjunction of after.
func absorbed(cj Conj, before, after []Conj) bool {
	for _, other := range before {
		if len(other) <= len(cj) && other.subsumes(cj) {
			return true
		}
	}
	for _, other := range after {
		if len(other) < len(cj) && other.subsumes(cj) {
			return true
		}
	}
	return false
}

// complementMerge merges c1 and c2 when they differ in exactly one atom on
// the same *two-way* branch with complementary successors.
func complementMerge(c1, c2 Conj) (Conj, bool) {
	if len(c1) != len(c2) {
		return nil, false
	}
	diff := -1
	for i := range c1 {
		if c1[i] != c2[i] {
			if diff >= 0 {
				return nil, false
			}
			diff = i
		}
	}
	if diff < 0 {
		return c1, true // identical
	}
	a, b := c1[diff], c2[diff]
	if a.Block != b.Block || a.Succ == b.Succ {
		return nil, false
	}
	term := a.Block.Term()
	if term == nil || len(term.Targets) != 2 {
		return nil, false // n-way: would need all n outcomes
	}
	out := append(append(Conj(nil), c1[:diff]...), c1[diff+1:]...)
	return out, true
}

// Exclusive reports whether c and d cannot both hold: every pair of
// conjunctions contains contradictory atoms (paper Appendix A.2:
// exclusive(cn1, cn2) iff cn1 implies ¬cn2).
func Exclusive(c, d Cond) bool {
	if c.IsFalse() || d.IsFalse() {
		return true
	}
	for _, cj1 := range c.Disj {
		for _, cj2 := range d.Disj {
			if !conjExclusive(cj1, cj2) {
				return false
			}
		}
	}
	return true
}

func conjExclusive(c1, c2 Conj) bool {
	for _, a := range c1 {
		for _, b := range c2 {
			if a.Block == b.Block && a.Succ != b.Succ {
				return true
			}
		}
	}
	return false
}

// Equal reports condition equality. Both operands are normalized, so equal
// conditions have the same conjunctions in the same order.
func Equal(c, d Cond) bool {
	if len(c.Disj) != len(d.Disj) {
		return false
	}
	for i := range c.Disj {
		if !slices.Equal(c.Disj[i], d.Disj[i]) {
			return false
		}
	}
	return true
}

// String renders the condition as the paper's set-of-sets notation.
func (c Cond) String() string {
	if c.IsFalse() {
		return "{}"
	}
	var parts []string
	for _, cj := range c.Disj {
		var as []string
		for _, a := range cj {
			as = append(as, a.String())
		}
		parts = append(parts, "{"+strings.Join(as, ",")+"}")
	}
	return "{" + strings.Join(parts, ",") + "}"
}
