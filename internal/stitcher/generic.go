package stitcher

// The generic tier: an unspecialized, key-independent rendering of a
// region's templates. Where the stitcher reads the run-time constants
// table at stitch time and bakes the values into the code (patched
// immediates, resolved branches, unrolled loops), the generic tier defers
// every one of those reads to run time: holes become loads from the live
// table, constant branches become real branches on the loaded value, and
// unrolled loops stay rolled, walking the per-iteration record chain with
// a register instead of the stitcher's directive interpreter.
//
// One generic segment serves every key of its region — it is built once
// per region and never invalidated (it embeds no table values, only slot
// offsets, which are static compiler artifacts). The asynchronous
// stitching pipeline (internal/rtr) runs cold keys on this tier while the
// real stitch happens on a background worker, so no caller ever blocks on
// compilation; the price is per-iteration loads and un-reduced operations,
// i.e. roughly the paper's "statically compiled" cost plus a load per
// hole.
//
// Register convention: the table base arrives in vm.RScratch (exactly
// where the inline set-up's DYNSTITCH or a merged SetupFn leaves it) and
// is immediately parked in vm.RTblBase, which is dead in template and
// stitched code. Active loop records live in vm.RPromo0..RPromoLast —
// reserved for stitch-time register actions, which never run on the
// generic tier — so regions with more than len(RPromo0..RPromoLast)
// unrolled loops cannot be rendered generically and must stitch inline.

import (
	"fmt"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// maxGenericLoops is how many unrolled-loop record pointers fit in the
// reserved register range.
const maxGenericLoops = int(vm.RPromoLast-vm.RPromo0) + 1

// Generic renders region's stencil as a single unspecialized segment whose
// exits XFER back into parent. It is pure (no machine memory is read) and
// safe to call concurrently. The stencil already carries everything the
// rendering needs: per-block patch tables, each block's loop chain, and
// each edge's loop-record transitions.
func Generic(region *tmpl.Region, parent *vm.Segment, opts Options) (*vm.Segment, error) {
	s := region.Stencil
	if s == nil {
		return nil, fmt.Errorf("generic: region %s has no stencil", region.Name)
	}
	if len(region.Loops) > maxGenericLoops {
		return nil, fmt.Errorf("generic: region %s has %d unrolled loops (max %d)",
			region.Name, len(region.Loops), maxGenericLoops)
	}
	if len(s.Blocks[s.Entry].Chain) != 0 {
		return nil, fmt.Errorf("generic: region %s entry inside a loop", region.Name)
	}
	g := &generic{
		s:       s,
		blockPC: make(map[int32]int, len(s.Blocks)),
		recReg:  make(map[int32]vm.Reg, len(region.Loops)),
		cindex:  map[int64]int{},
	}
	for i, l := range region.Loops {
		g.recReg[int32(l.ID)] = vm.RPromo0 + vm.Reg(i)
	}

	// Entry preamble: park the table base before anything can clobber
	// RScratch, then walk the block graph.
	g.add(vm.Inst{Op: vm.MOV, Rd: vm.RTblBase, Rs: vm.RScratch})
	g.queue = append(g.queue, s.Entry)
	g.blockPC[s.Entry] = -1 // mark queued
	for len(g.queue) > 0 {
		bi := g.queue[0]
		g.queue = g.queue[1:]
		if err := g.emitBlock(bi); err != nil {
			return nil, err
		}
	}
	for _, f := range g.fix {
		pc, ok := g.blockPC[f.block]
		if !ok || pc < 0 {
			return nil, fmt.Errorf("generic: unresolved branch to block %d", f.block)
		}
		g.out[f.pc].Target = pc
	}

	var consts []int64
	if len(g.consts) > 0 {
		consts = make([]int64, len(g.consts))
		copy(consts, g.consts)
	}
	seg := &vm.Segment{
		Name:     region.Name + ".generic",
		Consts:   consts,
		Parent:   parent,
		Region:   region.Index,
		Stitched: true,
	}
	if opts.NoFuse {
		seg.Code = make([]vm.Inst, len(g.out))
		copy(seg.Code, g.out)
	} else {
		vm.FuseStitched(seg, g.out) // g.out is this call's own buffer
	}
	seg.Prepare()
	return seg, nil
}

type generic struct {
	s       *tmpl.Stencil
	out     []vm.Inst
	consts  []int64
	cindex  map[int64]int
	blockPC map[int32]int // block -> pc (-1 while queued, unemitted)
	queue   []int32
	fix     []genFixup
	recReg  map[int32]vm.Reg // loop id -> its record register
}

type genFixup struct {
	pc    int // instruction whose Target needs the block's pc
	block int32
}

func (g *generic) add(in vm.Inst) int {
	g.out = append(g.out, in)
	return len(g.out) - 1
}

// largeConst interns v in the segment's constant table (switch cases that
// do not fit the immediate field).
func (g *generic) largeConst(v int64) int64 {
	if i, ok := g.cindex[v]; ok {
		return int64(i)
	}
	i := len(g.consts)
	g.consts = append(g.consts, v)
	g.cindex[v] = i
	return int64(i)
}

// loadSlot emits a load of table slot (loop, slot) into rd: the region
// table lives at RTblBase (loop -1), loop records in their reserved
// registers.
func (g *generic) loadSlot(rd vm.Reg, loop, slot int32) error {
	if !vm.FitsImm(int64(slot)) {
		return fmt.Errorf("generic: slot offset %d exceeds the immediate field", slot)
	}
	base := vm.RTblBase
	if loop >= 0 {
		reg, ok := g.recReg[loop]
		if !ok {
			return fmt.Errorf("generic: no record register for loop %d", loop)
		}
		base = reg
	}
	g.add(vm.Inst{Op: vm.LD, Rd: rd, Rs: base, Imm: int64(slot)})
	return nil
}

// emitHole lowers one patch: where the stitcher patches the constant in,
// the generic tier loads it at run time.
func (g *generic) emitHole(p *tmpl.Patch) error {
	in := p.Inst
	if p.Kind != tmpl.PatchALU {
		// A constant materialization (LDC or LI): load it straight from the
		// table.
		return g.loadSlot(in.Rd, p.Loop, p.Slot)
	}
	if p.RegOp == vm.NOP || !in.Op.HasImmOperand() {
		return fmt.Errorf("generic: unsupported hole op %s", in.Op)
	}
	if err := g.loadSlot(vm.RScratch2, p.Loop, p.Slot); err != nil {
		return err
	}
	g.add(vm.Inst{Op: p.RegOp, Rd: in.Rd, Rs: in.Rs, Rt: vm.RScratch2})
	return nil
}

// emitEdge emits the code that follows edge plan e: a region exit becomes
// an XFER stub; a block edge loads the loop-header records of the loops it
// enters and advances the record registers of its back edges (the run-time
// equivalents of the stitcher's ENTER_LOOP / RESTART_LOOP directives),
// then branches to the target block.
func (g *generic) emitEdge(e *tmpl.EdgePlan) error {
	if e.Block < 0 {
		g.add(vm.Inst{Op: vm.XFER, Target: int(e.ExitPC)})
		return nil
	}
	for _, st := range e.Enter {
		if err := g.loadSlot(g.recReg[st.Loop], st.HdrLoop, st.HdrSlot); err != nil {
			return err
		}
	}
	for _, st := range e.Advance {
		if !vm.FitsImm(int64(st.NextSlot)) {
			return fmt.Errorf("generic: record link offset %d exceeds the immediate field", st.NextSlot)
		}
		rec := g.recReg[st.Loop]
		g.add(vm.Inst{Op: vm.LD, Rd: rec, Rs: rec, Imm: int64(st.NextSlot)})
	}
	pc := g.add(vm.Inst{Op: vm.BR})
	g.fix = append(g.fix, genFixup{pc: pc, block: e.Block})
	if _, ok := g.blockPC[e.Block]; !ok {
		g.blockPC[e.Block] = -1
		g.queue = append(g.queue, e.Block)
	}
	return nil
}

// emitBlock renders block bi exactly once (the generic tier never
// duplicates blocks — unrolled loops stay rolled).
func (g *generic) emitBlock(bi int32) error {
	g.blockPC[bi] = len(g.out)
	b := &g.s.Blocks[bi]
	ps := b.Patches
	for pc, in := range b.Body {
		if len(ps) > 0 && int(ps[0].Pc) == pc {
			if err := g.emitHole(&ps[0]); err != nil {
				return err
			}
			ps = ps[1:]
		} else {
			g.add(in)
		}
	}

	t := &b.Term
	switch t.Kind {
	case tmpl.TermRet:
		g.add(vm.Inst{Op: vm.RET})

	case tmpl.TermJump:
		return g.emitEdge(&t.Edges[0])

	case tmpl.TermBr:
		cond := t.CondReg
		if t.HasConst {
			// CONST_BRANCH: the stitcher resolves this at stitch time; the
			// generic tier tests the live table value.
			if err := g.loadSlot(vm.RScratch2, t.ConstLoop, t.ConstSlot); err != nil {
				return err
			}
			cond = vm.RScratch2
		}
		bnezPC := g.add(vm.Inst{Op: vm.BNEZ, Rs: cond})
		if err := g.emitEdge(&t.Edges[1]); err != nil {
			return err
		}
		g.out[bnezPC].Target = len(g.out)
		return g.emitEdge(&t.Edges[0])

	case tmpl.TermSwitch:
		if err := g.loadSlot(vm.RScratch2, t.ConstLoop, t.ConstSlot); err != nil {
			return err
		}
		// Compare chain falling through to the default edge; case stubs
		// follow, each patched into its compare's branch target.
		cmpPC := make([]int, len(t.Cases))
		for i, c := range t.Cases {
			if vm.FitsImm(c) {
				cmpPC[i] = g.add(vm.Inst{Op: vm.BEQI, Rs: vm.RScratch2, Imm: c})
				continue
			}
			g.add(vm.Inst{Op: vm.LDC, Rd: vm.RScratch, Imm: g.largeConst(c)})
			g.add(vm.Inst{Op: vm.SEQ, Rd: vm.RScratch, Rs: vm.RScratch2, Rt: vm.RScratch})
			cmpPC[i] = g.add(vm.Inst{Op: vm.BNEZ, Rs: vm.RScratch})
		}
		if err := g.emitEdge(&t.Edges[len(t.Cases)]); err != nil {
			return err
		}
		for i := range t.Cases {
			g.out[cmpPC[i]].Target = len(g.out)
			if err := g.emitEdge(&t.Edges[i]); err != nil {
				return err
			}
		}
		return nil

	default:
		return fmt.Errorf("generic: unknown terminator kind %d", t.Kind)
	}
	return nil
}
