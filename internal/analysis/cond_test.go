package analysis

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dyncc/internal/ir"
	"dyncc/internal/types"
)

// testBranches builds n two-way branch blocks usable as condition atoms.
func testBranches(n int) []*ir.Block {
	f := ir.NewFunc("conds", types.FuncType(types.VoidType, nil))
	var bs []*ir.Block
	end := f.NewBlock()
	end.Append(&ir.Instr{Op: ir.OpRet})
	for i := 0; i < n; i++ {
		b := f.NewBlock()
		v := f.NewValue("", types.IntType)
		b.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Typ: types.IntType})
		b.Append(&ir.Instr{Op: ir.OpBr, Args: []ir.Value{v}, Targets: []*ir.Block{end, end}})
		bs = append(bs, b)
	}
	return bs
}

func TestTrueFalse(t *testing.T) {
	if !True().IsTrue() || True().IsFalse() {
		t.Error("True misbehaves")
	}
	if !False().IsFalse() || False().IsTrue() {
		t.Error("False misbehaves")
	}
}

func TestAndContradiction(t *testing.T) {
	bs := testBranches(1)
	c := True().And(Atom{Block: bs[0], Succ: 0})
	if c.IsFalse() || c.IsTrue() {
		t.Fatalf("single atom: %s", c)
	}
	// B→0 ∧ B→1 is unsatisfiable.
	c2 := c.And(Atom{Block: bs[0], Succ: 1})
	if !c2.IsFalse() {
		t.Errorf("contradictory conjunction should be false, got %s", c2)
	}
	// Re-adding the same atom is idempotent.
	c3 := c.And(Atom{Block: bs[0], Succ: 0})
	if !Equal(c, c3) {
		t.Errorf("idempotent and: %s vs %s", c, c3)
	}
}

// The paper's simplification: {{A→T,cs},{A→F,cs},ds} reduces to {{cs},ds}.
func TestComplementaryMerge(t *testing.T) {
	bs := testBranches(2)
	a0 := Atom{Block: bs[0], Succ: 0}
	a1 := Atom{Block: bs[0], Succ: 1}
	b0 := Atom{Block: bs[1], Succ: 0}

	left := True().And(a0).And(b0)  // {A→T, B→T}
	right := True().And(a1).And(b0) // {A→F, B→T}
	merged := left.Or(right)
	want := True().And(b0)
	if !Equal(merged, want) {
		t.Errorf("complementary merge: got %s, want %s", merged, want)
	}
}

func TestAbsorption(t *testing.T) {
	bs := testBranches(2)
	a0 := Atom{Block: bs[0], Succ: 0}
	b0 := Atom{Block: bs[1], Succ: 0}
	weak := True().And(a0)
	strong := True().And(a0).And(b0)
	// weak ∨ strong = weak (the stronger conjunction is absorbed).
	if got := weak.Or(strong); !Equal(got, weak) {
		t.Errorf("absorption: got %s, want %s", got, weak)
	}
}

func TestExclusive(t *testing.T) {
	bs := testBranches(2)
	a0 := Atom{Block: bs[0], Succ: 0}
	a1 := Atom{Block: bs[0], Succ: 1}
	b0 := Atom{Block: bs[1], Succ: 0}
	b1 := Atom{Block: bs[1], Succ: 1}

	if !Exclusive(True().And(a0), True().And(a1)) {
		t.Error("A→T and A→F must be exclusive")
	}
	if Exclusive(True().And(a0), True().And(b0)) {
		t.Error("independent branches are not exclusive")
	}
	// (A→T∧B→T) vs (A→F ∨ B→F): pairwise contradictions on both sides.
	c1 := True().And(a0).And(b0)
	c2 := True().And(a1).Or(True().And(b1))
	if !Exclusive(c1, c2) {
		t.Errorf("%s and %s should be exclusive", c1, c2)
	}
	// Anything is exclusive with False, nothing with True.
	if !Exclusive(True(), False()) {
		t.Error("False is exclusive with everything")
	}
	if Exclusive(True(), True()) {
		t.Error("True is not exclusive with itself")
	}
}

func TestCapDegradesToTrue(t *testing.T) {
	bs := testBranches(MaxConjs + 4)
	c := False()
	// Build a disjunction of many distinct conjunctions.
	for i := 0; i < MaxConjs+2; i++ {
		cj := True().And(Atom{Block: bs[i], Succ: 0})
		if i+1 < len(bs) {
			cj = cj.And(Atom{Block: bs[i+1], Succ: 1})
		}
		c = c.Or(cj)
	}
	if !c.IsTrue() {
		t.Errorf("oversized condition should degrade to True, has %d conjs", len(c.Disj))
	}
}

// randCond builds a random condition over the given branch blocks.
func randCond(r *rand.Rand, bs []*ir.Block) Cond {
	c := False()
	nconj := 1 + r.Intn(3)
	for i := 0; i < nconj; i++ {
		cj := True()
		for k := 0; k < 1+r.Intn(3); k++ {
			cj = cj.And(Atom{Block: bs[r.Intn(len(bs))], Succ: r.Intn(2)})
		}
		c = c.Or(cj)
	}
	return c
}

// eval evaluates a condition under a truth assignment of branch outcomes.
func evalCond(c Cond, outcome map[*ir.Block]int) bool {
	for _, cj := range c.Disj {
		all := true
		for _, a := range cj {
			if outcome[a.Block] != a.Succ {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Property: Exclusive(c1, c2) implies no outcome satisfies both; and the
// Or/And operators agree with boolean evaluation.
func TestCondProperties(t *testing.T) {
	bs := testBranches(4)
	r := rand.New(rand.NewSource(12345))
	check := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c1 := randCond(rr, bs)
		c2 := randCond(rr, bs)
		or := c1.Or(c2)
		excl := Exclusive(c1, c2)
		// Enumerate all 2^4 outcomes.
		for m := 0; m < 16; m++ {
			outcome := map[*ir.Block]int{}
			for i, b := range bs {
				outcome[b] = (m >> i) & 1
			}
			e1, e2 := evalCond(c1, outcome), evalCond(c2, outcome)
			if evalCond(or, outcome) != (e1 || e2) {
				return false
			}
			if excl && e1 && e2 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: r}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// Property: And distributes over the disjunction.
func TestAndProperty(t *testing.T) {
	bs := testBranches(4)
	check := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c := randCond(rr, bs)
		a := Atom{Block: bs[rr.Intn(len(bs))], Succ: rr.Intn(2)}
		anded := c.And(a)
		for m := 0; m < 16; m++ {
			outcome := map[*ir.Block]int{}
			for i, b := range bs {
				outcome[b] = (m >> i) & 1
			}
			want := evalCond(c, outcome) && outcome[a.Block] == a.Succ
			if evalCond(anded, outcome) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The reference implementation below is the original string-keyed
// canonical form: every conjunction rendered as "id:succ;" text, deduped
// through a map of those strings and sorted by them. The production code
// must reproduce its results exactly, element for element, because split
// emits guards in this order and the Table 2/3 goldens pin it.

func refKey(cj Conj) string {
	var sb strings.Builder
	for _, a := range cj {
		fmt.Fprintf(&sb, "%d:%d;", a.Block.ID, a.Succ)
	}
	return sb.String()
}

func refSortDedup(cj Conj) Conj {
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

func refNormalize(c Cond) Cond {
	seen := map[string]bool{}
	var conjs []Conj
	for _, cj := range c.Disj {
		cj = refSortDedup(cj.clone())
		if cj.contradicts() {
			continue
		}
		k := refKey(cj)
		if seen[k] {
			continue
		}
		seen[k] = true
		conjs = append(conjs, cj)
	}
	for {
		changed := false
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
		var kept []Conj
		for i, cj := range conjs {
			sub := false
			for k, other := range conjs {
				if k == i {
					continue
				}
				if len(other) < len(cj) || (len(other) == len(cj) && k < i) {
					if other.subsumes(cj) {
						sub = true
						break
					}
				}
			}
			if !sub {
				kept = append(kept, cj)
			}
		}
		if len(kept) != len(conjs) {
			changed = true
		}
		conjs = kept
		if !changed {
			break
		}
	}
	if len(conjs) > MaxConjs {
		return True()
	}
	sort.Slice(conjs, func(i, j int) bool { return refKey(conjs[i]) < refKey(conjs[j]) })
	return Cond{Disj: conjs}
}

func refAnd(c Cond, a Atom) Cond {
	var out []Conj
	for _, cj := range c.Disj {
		n := refSortDedup(append(cj.clone(), a))
		if n.contradicts() {
			continue
		}
		out = append(out, n)
	}
	return refNormalize(Cond{Disj: out})
}

func refOr(c, d Cond) Cond {
	return refNormalize(Cond{Disj: append(append([]Conj(nil), c.Disj...), d.Disj...)})
}

func refEqual(c, d Cond) bool {
	if len(c.Disj) != len(d.Disj) {
		return false
	}
	for i := range c.Disj {
		if refKey(c.Disj[i]) != refKey(d.Disj[i]) {
			return false
		}
	}
	return true
}

// sameDisj reports whether c and d hold the same atoms in the same order.
func sameDisj(c, d Cond) bool {
	if len(c.Disj) != len(d.Disj) {
		return false
	}
	for i := range c.Disj {
		if len(c.Disj[i]) != len(d.Disj[i]) {
			return false
		}
		for j := range c.Disj[i] {
			if c.Disj[i][j] != d.Disj[i][j] {
				return false
			}
		}
	}
	return true
}

// testMixedBranches builds n branch blocks with IDs 1..n, every third one
// an n-way switch (three to five successors), the rest two-way branches.
func testMixedBranches(n int) []*ir.Block {
	f := ir.NewFunc("mixed", types.FuncType(types.VoidType, nil))
	end := f.NewBlock()
	end.Append(&ir.Instr{Op: ir.OpRet})
	var bs []*ir.Block
	for i := 0; i < n; i++ {
		b := f.NewBlock()
		v := f.NewValue("", types.IntType)
		b.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Typ: types.IntType})
		if i%3 == 2 {
			ways := 3 + i%3
			in := &ir.Instr{Op: ir.OpSwitch, Args: []ir.Value{v}}
			for k := 0; k < ways; k++ {
				if k < ways-1 {
					in.Cases = append(in.Cases, int64(k))
				}
				in.Targets = append(in.Targets, end)
			}
			b.Append(in)
		} else {
			b.Append(&ir.Instr{Op: ir.OpBr, Args: []ir.Value{v}, Targets: []*ir.Block{end, end}})
		}
		bs = append(bs, b)
	}
	return bs
}

func randAtom(r *rand.Rand, bs []*ir.Block) Atom {
	b := bs[r.Intn(len(bs))]
	return Atom{Block: b, Succ: r.Intn(len(b.Term().Targets))}
}

// TestCanonicalFormMatchesReference drives And, Or, normalize and Equal
// through seeded random sequences over block IDs 1..120 (so decimal and
// numeric order disagree: b10 sorts before b2) and requires every result
// to equal the string-keyed reference, conjunction for conjunction.
func TestCanonicalFormMatchesReference(t *testing.T) {
	bs := testMixedBranches(120)
	r := rand.New(rand.NewSource(1996))
	for trial := 0; trial < 400; trial++ {
		// A few branches per trial, so merges and absorption fire; an
		// occasional wide trial to reach the size cap.
		width := 2 + r.Intn(6)
		if trial%25 == 0 {
			width = 40
		}
		pool := make([]*ir.Block, width)
		for i := range pool {
			pool[i] = bs[r.Intn(len(bs))]
		}
		conds := []Cond{True(), False()}
		for step := 0; step < 40; step++ {
			x := conds[r.Intn(len(conds))]
			var got, want Cond
			var op string
			switch r.Intn(4) {
			case 0:
				a := randAtom(r, pool)
				op = fmt.Sprintf("%s ∧ %s", x, a)
				got, want = x.And(a), refAnd(x, a)
			case 1:
				y := conds[r.Intn(len(conds))]
				op = fmt.Sprintf("%s ∨ %s", x, y)
				got, want = x.Or(y), refOr(x, y)
			case 2:
				// A wide disjunction of short conjunctions, Or-ed one at a
				// time, so the size cap is reached on the wide trials.
				got, want = x, x
				for k := 0; k < 1+r.Intn(2*width); k++ {
					a, b := randAtom(r, pool), randAtom(r, pool)
					got = got.Or(True().And(a).And(b))
					want = refOr(want, refAnd(refAnd(True(), a), b))
				}
				op = fmt.Sprintf("%s ∨ wide", x)
			default:
				// normalize of an arbitrary, non-canonical disjunction:
				// unsorted, with repeated and contradictory atoms, plus
				// copies, complements and subsets of earlier conjunctions
				// so merging, absorption and dedup all fire.
				var disj []Conj
				for k := 0; k < 1+r.Intn(6); k++ {
					var cj Conj
					if k > 0 && r.Intn(2) == 0 {
						cj = disj[r.Intn(k)].clone()
						if len(cj) > 0 {
							i := r.Intn(len(cj))
							switch r.Intn(3) {
							case 0: // flip one outcome
								cj[i].Succ = r.Intn(len(cj[i].Block.Term().Targets))
							case 1: // drop one atom
								cj = append(cj[:i], cj[i+1:]...)
							}
						}
						r.Shuffle(len(cj), func(i, j int) { cj[i], cj[j] = cj[j], cj[i] })
					} else {
						for m := 0; m < r.Intn(5); m++ {
							cj = append(cj, randAtom(r, pool))
						}
					}
					disj = append(disj, cj)
				}
				op = fmt.Sprintf("normalize %v", disj)
				own := make([]Conj, len(disj))
				copy(own, disj)
				got, want = Cond{Disj: own}.normalize(), refNormalize(Cond{Disj: disj})
			}
			if !sameDisj(got, want) {
				t.Fatalf("trial %d step %d: %s\n got  %s\n want %s", trial, step, op, got, want)
			}
			y := conds[r.Intn(len(conds))]
			for _, pair := range [][2]Cond{{got, y}, {got, want}, {x, got}} {
				if Equal(pair[0], pair[1]) != refEqual(pair[0], pair[1]) {
					t.Fatalf("trial %d step %d: Equal(%s, %s) disagrees with the reference",
						trial, step, pair[0], pair[1])
				}
			}
			conds = append(conds, got)
		}
	}
}

// Equal, and Or with a False or an equal operand, are on the fixpoint's
// hot path and must not allocate.
func TestCondOpsDoNotAllocate(t *testing.T) {
	bs := testBranches(12)
	c := True().And(Atom{Block: bs[10], Succ: 0}).Or(True().And(Atom{Block: bs[1], Succ: 1}))
	d := True().And(Atom{Block: bs[10], Succ: 0}).Or(True().And(Atom{Block: bs[1], Succ: 1}))
	f := False()
	for name, op := range map[string]func(){
		"Equal":      func() { _ = Equal(c, d) },
		"Or(False)":  func() { _ = c.Or(f) },
		"False.Or":   func() { _ = f.Or(c) },
		"Or(equal)":  func() { _ = c.Or(d) },
		"Or(itself)": func() { _ = c.Or(c) },
	} {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s allocates %.0f times per call", name, n)
		}
	}
}
