package stitcher

// Emission from the precompiled stencils the `stencil` pipeline pass
// attached to the region (tmpl.Stencil). One block emission is a bulk copy
// of the body runs between patch points plus a patch loop over the
// precomputed hole table; loop-record transitions and terminators follow
// per-edge descriptors, so no loop chain or hole position is derived at
// stitch time. Only the value-dependent work (patch.go: strength
// reduction, large-constant interning, immediate fitting) looks at the
// constants themselves.

import (
	"fmt"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// emitBlock instantiates stencil block bi under record context ctx
// (memoized; the entry is installed before emission so record-chain cycles
// terminate).
func (st *stitch) emitBlock(bi int, ctx []int64) (int, error) {
	tb := &st.sten.Blocks[bi]
	key := st.memoKey(bi, tb.Chain, ctx)
	if pc, ok := st.memoGet(key); ok {
		return pc, nil
	}
	start := len(st.out)
	st.memoPut(key, start)
	st.stats.CyclesModeled += costPerBlock

	body := tb.Body
	prev := 0
	for i := range tb.Patches {
		p := &tb.Patches[i]
		st.out = append(st.out, body[prev:p.Pc]...)
		v, err := st.readRef(int(p.Loop), int(p.Slot), ctx)
		if err != nil {
			return 0, err
		}
		st.patch(p, v)
		st.stats.HolesPatched++
		st.stats.CyclesModeled += costPerHole
		prev = int(p.Pc) + 1
	}
	st.out = append(st.out, body[prev:]...)

	if err := st.emitTerm(tb, ctx); err != nil {
		return 0, err
	}
	return start, nil
}

// memoKey builds the memo key for a stencil block emission. The stencil
// carries the ascending-id loop chain, so the key is a straight gather.
func (st *stitch) memoKey(bi int, chain []int32, ctx []int64) []int64 {
	k := append(st.keyBuf[:0], int64(bi))
	for _, id := range chain {
		k = append(k, ctx[id])
	}
	st.keyBuf = k
	return k
}

// emitEdge follows one precompiled edge and returns the target pc. When
// the edge performs no loop transition the context window is shared with
// the source block (windows are immutable once built).
func (st *stitch) emitEdge(e *tmpl.EdgePlan, ctx []int64) (int, error) {
	if e.Block < 0 {
		return st.add(vm.Inst{Op: vm.XFER, Target: int(e.ExitPC)}), nil
	}
	nctx := ctx
	if len(e.Enter) > 0 || len(e.Advance) > 0 {
		tb := &st.sten.Blocks[e.Block]
		nctx = st.ctx.alloc(st.nSlots)
		for i := range nctx {
			nctx[i] = -1
		}
		for _, id := range tb.Chain {
			nctx[id] = ctx[id]
		}
		for i := range e.Enter {
			en := &e.Enter[i]
			rec, err := st.readRef(int(en.HdrLoop), int(en.HdrSlot), nctx)
			if err != nil {
				return 0, err
			}
			nctx[en.Loop] = rec
		}
		for i := range e.Advance {
			ad := &e.Advance[i]
			rec := nctx[ad.Loop]
			if rec < 0 {
				return 0, fmt.Errorf("stitch: no active record for loop %d", ad.Loop)
			}
			a := rec + int64(ad.NextSlot)
			if a < 0 || a >= int64(len(st.mem)) {
				return 0, fmt.Errorf("stitch: record link out of bounds (%d)", a)
			}
			nctx[ad.Loop] = st.mem[a]
			st.stats.LoopIterations++
			st.stats.CyclesModeled += costPerIter
		}
	}
	return st.emitBlock(int(e.Block), nctx)
}

// emitTerm resolves a precompiled terminator. A two-way branch on a
// run-time predicate emits its false edge before its true edge.
func (st *stitch) emitTerm(tb *tmpl.StencilBlock, ctx []int64) error {
	t := &tb.Term
	switch t.Kind {
	case tmpl.TermRet:
		st.add(vm.Inst{Op: vm.RET})

	case tmpl.TermJump:
		brPC := st.add(vm.Inst{Op: vm.BR})
		tpc, err := st.emitEdge(&t.Edges[0], ctx)
		if err != nil {
			return err
		}
		st.out[brPC].Target = tpc

	case tmpl.TermBr:
		if t.HasConst {
			v, err := st.readRef(int(t.ConstLoop), int(t.ConstSlot), ctx)
			if err != nil {
				return err
			}
			e := &t.Edges[1]
			if v != 0 {
				e = &t.Edges[0]
			}
			st.stats.BranchesResolved++
			st.stats.CyclesModeled += costPerBranch
			brPC := st.add(vm.Inst{Op: vm.BR})
			tpc, err := st.emitEdge(e, ctx)
			if err != nil {
				return err
			}
			st.out[brPC].Target = tpc
			return nil
		}
		bnezPC := st.add(vm.Inst{Op: vm.BNEZ, Rs: t.CondReg})
		brPC := st.add(vm.Inst{Op: vm.BR})
		fpc, err := st.emitEdge(&t.Edges[1], ctx)
		if err != nil {
			return err
		}
		tpc, err := st.emitEdge(&t.Edges[0], ctx)
		if err != nil {
			return err
		}
		st.out[bnezPC].Target = tpc
		st.out[brPC].Target = fpc

	case tmpl.TermSwitch:
		v, err := st.readRef(int(t.ConstLoop), int(t.ConstSlot), ctx)
		if err != nil {
			return err
		}
		e := &t.Edges[len(t.Cases)] // default
		for i, c := range t.Cases {
			if c == v {
				e = &t.Edges[i]
				break
			}
		}
		st.stats.BranchesResolved++
		st.stats.CyclesModeled += costPerBranch
		brPC := st.add(vm.Inst{Op: vm.BR})
		tpc, err := st.emitEdge(e, ctx)
		if err != nil {
			return err
		}
		st.out[brPC].Target = tpc

	default:
		return fmt.Errorf("stitch: unknown terminator kind %d", t.Kind)
	}
	return nil
}
