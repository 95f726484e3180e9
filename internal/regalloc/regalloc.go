// Package regalloc implements linear-scan register allocation over the
// whole function — including template blocks, so that dynamically-compiled
// code is register-allocated "in the context of its enclosing procedure"
// (paper section 3.3) and stitched code's registers line up with the
// surrounding code at run time.
package regalloc

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"dyncc/internal/ir"
	"dyncc/internal/vm"
)

// Loc is a value's assigned location.
type Loc struct {
	Reg     vm.Reg
	Spilled bool
	Slot    int // stack slot when spilled
}

// Allocation maps values to locations.
type Allocation struct {
	// Loc is indexed by Value: the zero Loc (no register, not spilled)
	// for holes and values that are never live.
	Loc       []Loc
	FrameSize int // total stack words incl. spills
}

// Verify enables the post-allocation overlap check (cheap; kept on). A
// constant, not a variable: package-level compiler state must be immutable
// so concurrent compilations (core.CompileBatch) share nothing mutable.
const Verify = true

// Spill-shuttle registers reserved for the code generator.
const (
	TempA = vm.Reg(9)
	TempB = vm.Reg(10)
	TempC = vm.Reg(11)
)

// Pool of allocatable registers.
func pool() []vm.Reg {
	var rs []vm.Reg
	for r := vm.Reg(12); r <= vm.RAllocLast; r++ {
		rs = append(rs, r)
	}
	return rs
}

// Allocate assigns registers (or spill slots) to every value of f. holes
// lists values that are table holes and take no register. Its tables
// (intervals by value, live sets by block) belong to the call.
func Allocate(f *ir.Func, holes ir.ValueSet) *Allocation {
	live := ir.ComputeLiveness(f, holes)

	// Build conservative single-range intervals, by value; start < 0
	// marks a value never touched.
	type interval struct {
		v          ir.Value
		start, end int
	}
	iv := make([]interval, f.NumValues())
	for i := range iv {
		iv[i] = interval{v: ir.Value(i), start: -1}
	}
	touch := func(v ir.Value, p int) {
		if v == 0 || holes.Has(v) {
			return
		}
		i := &iv[v]
		if i.start < 0 {
			i.start, i.end = p, p
			return
		}
		if p < i.start {
			i.start = p
		}
		if p > i.end {
			i.end = p
		}
	}
	// Parameters are defined by the prologue: their intervals must start at
	// position 0 or another value could claim their register first.
	for _, p := range f.Params {
		touch(p, 0)
	}
	// Positions number the instructions of f.Blocks, the layout order,
	// with one extra slot per block.
	bs := 0
	for _, b := range f.Blocks {
		be := bs + len(b.Instrs)
		// A value live across either block boundary is live at that
		// boundary position: without this, a value entering a block and
		// used mid-block would leave its head span uncovered and another
		// definition could steal its register.
		in, out := live.In(b), live.Out(b)
		for k := range in {
			for w := in[k] | out[k]; w != 0; w &= w - 1 {
				touch(ir.Value(k<<6|bits.TrailingZeros64(w)), bs)
			}
			for w := out[k]; w != 0; w &= w - 1 {
				touch(ir.Value(k<<6|bits.TrailingZeros64(w)), be)
			}
		}
		for k, in := range b.Instrs {
			p := bs + k
			touch(in.Dst, p)
			for _, a := range in.Args {
				touch(a, p)
			}
		}
		bs = be + 1
	}

	// Intervals in start order, ties by value: collected in value order,
	// then stably sorted by start.
	var ivs []*interval
	for i := range iv {
		if iv[i].start >= 0 {
			ivs = append(ivs, &iv[i])
		}
	}
	slices.SortStableFunc(ivs, func(a, b *interval) int { return cmp.Compare(a.start, b.start) })

	alloc := &Allocation{Loc: make([]Loc, len(iv)), FrameSize: f.StackSize}
	free := pool()
	type active struct {
		iv  *interval
		reg vm.Reg
	}
	var act []active

	expire := func(p int) {
		na := act[:0]
		for _, a := range act {
			if a.iv.end < p {
				free = append(free, a.reg)
			} else {
				na = append(na, a)
			}
		}
		act = na
	}
	spillSlot := func() int {
		s := alloc.FrameSize
		alloc.FrameSize++
		return s
	}

	defer func() {
		if !Verify {
			return
		}
		// No two intervals sharing a register overlap. ivs is in start
		// order, so an interval overlaps an earlier one on its register
		// iff it starts at or before the furthest end seen there.
		var last [vm.NumRegs]*interval
		for _, i := range ivs {
			l := alloc.Loc[i.v]
			if l.Spilled || l.Reg == 0 {
				continue
			}
			if a := last[l.Reg]; a != nil && i.start <= a.end {
				panic(fmt.Sprintf("regalloc: %s: v%d [%d,%d] and v%d [%d,%d] share r%d",
					f.Name, a.v, a.start, a.end, i.v, i.start, i.end, l.Reg))
			}
			if a := last[l.Reg]; a == nil || i.end > a.end {
				last[l.Reg] = i
			}
		}
	}()

	for _, i := range ivs {
		expire(i.start)
		if len(free) > 0 {
			r := free[len(free)-1]
			free = free[:len(free)-1]
			alloc.Loc[i.v] = Loc{Reg: r}
			act = append(act, active{iv: i, reg: r})
			continue
		}
		// Spill the interval ending furthest away.
		far := -1
		for k, a := range act {
			if far < 0 || a.iv.end > act[far].iv.end {
				far = k
			}
		}
		if far >= 0 && act[far].iv.end > i.end {
			r := act[far].reg
			alloc.Loc[act[far].iv.v] = Loc{Spilled: true, Slot: spillSlot()}
			alloc.Loc[i.v] = Loc{Reg: r}
			act[far] = active{iv: i, reg: r}
		} else {
			alloc.Loc[i.v] = Loc{Spilled: true, Slot: spillSlot()}
		}
	}
	return alloc
}
