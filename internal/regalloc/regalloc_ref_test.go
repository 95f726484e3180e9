package regalloc_test

// The map-based register allocator as it was written before its tables
// became dense (value- and block-indexed slices and bitsets).
// TestAllocateMatchesReference runs both over a seeded program corpus and
// requires every location and the frame size to agree.

import (
	"sort"

	"dyncc/internal/ir"
	"dyncc/internal/regalloc"
	"dyncc/internal/vm"
)

type refAllocation struct {
	Loc       map[ir.Value]regalloc.Loc
	FrameSize int
}

func refAllocate(f *ir.Func, holes map[ir.Value]bool) *refAllocation {
	hs := holes
	order := f.Blocks
	liveIn, liveOut := refLiveness(f, order, hs)

	type interval struct {
		v          ir.Value
		start, end int
	}
	pos := map[*ir.Block]int{}
	n := 0
	for _, b := range order {
		pos[b] = n
		n += len(b.Instrs) + 1
	}
	iv := map[ir.Value]*interval{}
	touch := func(v ir.Value, p int) {
		if v == 0 || hs[v] {
			return
		}
		i := iv[v]
		if i == nil {
			iv[v] = &interval{v: v, start: p, end: p}
			return
		}
		if p < i.start {
			i.start = p
		}
		if p > i.end {
			i.end = p
		}
	}
	for _, p := range f.Params {
		touch(p, 0)
	}
	for _, b := range order {
		bs := pos[b]
		be := bs + len(b.Instrs)
		for v := range liveIn[b] {
			touch(v, bs)
		}
		for v := range liveOut[b] {
			touch(v, bs)
			touch(v, be)
		}
		for k, in := range b.Instrs {
			p := bs + k
			touch(in.Dst, p)
			for _, a := range in.Args {
				touch(a, p)
			}
		}
	}

	ivs := make([]*interval, 0, len(iv))
	for _, i := range iv {
		ivs = append(ivs, i)
	}
	sort.Slice(ivs, func(a, b int) bool {
		if ivs[a].start != ivs[b].start {
			return ivs[a].start < ivs[b].start
		}
		return ivs[a].v < ivs[b].v
	})

	alloc := &refAllocation{Loc: map[ir.Value]regalloc.Loc{}, FrameSize: f.StackSize}
	var free []vm.Reg
	for r := vm.Reg(12); r <= vm.RAllocLast; r++ {
		free = append(free, r)
	}
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
	for _, i := range ivs {
		expire(i.start)
		if len(free) > 0 {
			r := free[len(free)-1]
			free = free[:len(free)-1]
			alloc.Loc[i.v] = regalloc.Loc{Reg: r}
			act = append(act, active{iv: i, reg: r})
			continue
		}
		far := -1
		for k, a := range act {
			if far < 0 || a.iv.end > act[far].iv.end {
				far = k
			}
		}
		if far >= 0 && act[far].iv.end > i.end {
			r := act[far].reg
			alloc.Loc[act[far].iv.v] = regalloc.Loc{Spilled: true, Slot: spillSlot()}
			alloc.Loc[i.v] = regalloc.Loc{Reg: r}
			act[far] = active{iv: i, reg: r}
		} else {
			alloc.Loc[i.v] = regalloc.Loc{Spilled: true, Slot: spillSlot()}
		}
	}
	return alloc
}

// refLiveness is the map-of-maps live-in/live-out analysis; holes are
// excluded from the use sets.
func refLiveness(f *ir.Func, order []*ir.Block, hs map[ir.Value]bool) (map[*ir.Block]map[ir.Value]bool, map[*ir.Block]map[ir.Value]bool) {
	use := map[*ir.Block]map[ir.Value]bool{}
	def := map[*ir.Block]map[ir.Value]bool{}
	for _, b := range order {
		u, d := map[ir.Value]bool{}, map[ir.Value]bool{}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a != 0 && !hs[a] && !d[a] {
					u[a] = true
				}
			}
			if in.Dst != 0 {
				d[in.Dst] = true
			}
		}
		use[b], def[b] = u, d
	}
	liveIn := map[*ir.Block]map[ir.Value]bool{}
	liveOut := map[*ir.Block]map[ir.Value]bool{}
	for _, b := range order {
		liveIn[b] = map[ir.Value]bool{}
		liveOut[b] = map[ir.Value]bool{}
	}
	for changed := true; changed; {
		changed = false
		for k := len(order) - 1; k >= 0; k-- {
			b := order[k]
			out := liveOut[b]
			for _, s := range b.Succs() {
				for v := range liveIn[s] {
					if !out[v] {
						out[v] = true
						changed = true
					}
				}
			}
			in := liveIn[b]
			for v := range use[b] {
				if !in[v] {
					in[v] = true
					changed = true
				}
			}
			for v := range out {
				if !def[b][v] && !in[v] {
					in[v] = true
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut
}
