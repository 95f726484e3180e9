package codegen

import (
	"fmt"

	"dyncc/internal/ir"
	"dyncc/internal/regalloc"
	"dyncc/internal/split"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// emitInstr emits one IR instruction of ordinary (non-template) code into
// the function segment, with region/set-up cycle attribution.
func (fg *funcGen) emitInstr(in *ir.Instr, b *ir.Block, rid int16, setup bool) error {
	start := len(fg.code)
	s := sink{code: &fg.code}
	defer fg.attribute(rid, setup, start)

	switch in.Op {
	case ir.OpBr:
		cond := fg.srcReg(in.Args[0], regalloc.TempA, s)
		fg.branchTo(vm.Inst{Op: vm.BNEZ, Rs: cond}, in.Targets[0])
		fg.branchTo(vm.Inst{Op: vm.BR}, in.Targets[1])
	case ir.OpJump:
		fg.branchTo(vm.Inst{Op: vm.BR}, in.Targets[0])
	case ir.OpSwitch:
		fg.emitSwitch(in, s)
	case ir.OpRet:
		if len(in.Args) > 0 {
			r := fg.srcReg(in.Args[0], regalloc.TempA, s)
			s.add(vm.Inst{Op: vm.MOV, Rd: vm.RRV, Rs: r})
		}
		s.add(vm.Inst{Op: vm.RET})
	case ir.OpDynEnter:
		r := b.Region
		// Stage key values in the shuttle registers for the dispatcher.
		for i, k := range r.Keys {
			if i >= 3 {
				return fmt.Errorf("region %d: more than 3 key variables", r.ID)
			}
			kr := fg.srcReg(k, regalloc.TempA+vm.Reg(i), s)
			if kr != regalloc.TempA+vm.Reg(i) {
				s.add(vm.Inst{Op: vm.MOV, Rd: regalloc.TempA + vm.Reg(i), Rs: kr})
			}
		}
		s.add(vm.Inst{Op: vm.DYNENTER, Imm: int64(fg.regionIdx[r])})
		// Falls through into the set-up entry, which the layout places next.
	case ir.OpDynStitch:
		tblr := fg.srcReg(in.Args[0], regalloc.TempA, s)
		s.add(vm.Inst{Op: vm.MOV, Rd: vm.RScratch, Rs: tblr})
		s.add(vm.Inst{Op: vm.DYNSTITCH, Imm: int64(fg.regionIdx[b.Region])})
	default:
		return fg.emitBody(in, s)
	}
	return nil
}

// emitSwitch lowers an n-way switch in ordinary code: a bounds-checked jump
// table when the case values are dense (what a C compiler emits), otherwise
// a compare-and-branch chain.
func (fg *funcGen) emitSwitch(in *ir.Instr, s sink) {
	tag := fg.srcReg(in.Args[0], regalloc.TempA, s)
	cases := in.Cases
	def := in.Targets[len(cases)]

	dense := false
	var lo, hi int64
	if len(cases) >= 4 {
		lo, hi = cases[0], cases[0]
		for _, c := range cases {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		span := hi - lo + 1
		if span <= 2*int64(len(cases))+8 && span <= 1024 {
			dense = true
		}
	}
	if dense {
		idx := tag
		if lo != 0 {
			s.add(vm.Inst{Op: vm.SUBI, Rd: regalloc.TempB, Rs: tag, Imm: lo})
			idx = regalloc.TempB
		}
		span := hi - lo + 1
		s.add(vm.Inst{Op: vm.SLTUI, Rd: regalloc.TempC, Rs: idx, Imm: span})
		fg.branchTo(vm.Inst{Op: vm.BEQZ, Rs: regalloc.TempC}, def)
		// Build the table: entry i -> target of case value lo+i.
		entries := make([]*ir.Block, span)
		for i := range entries {
			entries[i] = def
		}
		for i, c := range cases {
			entries[c-lo] = in.Targets[i]
		}
		s.add(vm.Inst{Op: vm.JTBL, Rs: idx, Imm: int64(len(fg.tables))})
		fg.tables = append(fg.tables, entries)
		return
	}
	for i, c := range cases {
		if vm.FitsImm(c) {
			fg.branchTo(vm.Inst{Op: vm.BEQI, Rs: tag, Imm: c}, in.Targets[i])
			continue
		}
		s.add(vm.Inst{Op: vm.LI, Rd: regalloc.TempB, Imm: c})
		s.add(vm.Inst{Op: vm.SEQ, Rd: regalloc.TempC, Rs: tag, Rt: regalloc.TempB})
		fg.branchTo(vm.Inst{Op: vm.BNEZ, Rs: regalloc.TempC}, in.Targets[i])
	}
	fg.branchTo(vm.Inst{Op: vm.BR}, def)
}

// branchTo emits a branch whose target is fixed up once labels are known.
func (fg *funcGen) branchTo(in vm.Inst, target *ir.Block) {
	pc := len(fg.code)
	fg.code = append(fg.code, in)
	fg.fixups = append(fg.fixups, struct {
		pc  int
		blk *ir.Block
	}{pc, target})
}

func (fg *funcGen) resolveFixups() {
	for _, fx := range fg.fixups {
		t, ok := fg.label(fx.blk)
		if !ok {
			// Branch into a template block: never executed directly (the
			// runtime transfers control); park it on itself.
			t = fx.pc
		}
		fg.code[fx.pc].Target = t
	}
}

// peephole simplifies branch shapes: an inverted conditional jump over an
// unconditional branch, and branches to the next instruction. All pcs
// (targets, labels, attribution arrays, region entry markers) are remapped.
func (fg *funcGen) peephole() {
	// Pass 1: [BNEZ/BEQZ x -> pc+2][BR t] becomes [inverted-cond -> t].
	for i := 0; i+1 < len(fg.code); i++ {
		c := fg.code[i]
		n := fg.code[i+1]
		if (c.Op == vm.BNEZ || c.Op == vm.BEQZ) && n.Op == vm.BR && c.Target == i+2 {
			inv := vm.BEQZ
			if c.Op == vm.BEQZ {
				inv = vm.BNEZ
			}
			fg.code[i] = vm.Inst{Op: inv, Rs: c.Rs, Target: n.Target}
			fg.code[i+1] = vm.Inst{Op: vm.NOP}
		}
	}
	// Pass 2: drop dead constant/copy materializations.
	for i := 0; i < 4; i++ {
		if vm.DeadWriteNops(fg.code) == 0 {
			break
		}
	}
	// Pass 3: delete NOPs and branches to next pc.
	keep := make([]bool, len(fg.code))
	for i, in := range fg.code {
		keep[i] = true
		if in.Op == vm.NOP {
			keep[i] = false
		}
		if in.Op == vm.BR && in.Target == i+1 {
			keep[i] = false
		}
	}
	newpc := make([]int, len(fg.code)+1)
	n := 0
	for i := range fg.code {
		newpc[i] = n
		if keep[i] {
			n++
		}
	}
	newpc[len(fg.code)] = n

	var code []vm.Inst
	var regionOf []int16
	var setupOf []bool
	for i, in := range fg.code {
		if !keep[i] {
			continue
		}
		switch in.Op {
		case vm.BEQZ, vm.BNEZ, vm.BEQI, vm.BR, vm.XFER:
			in.Target = newpc[in.Target]
		}
		code = append(code, in)
		if i < len(fg.regionOf) {
			regionOf = append(regionOf, fg.regionOf[i])
			setupOf = append(setupOf, fg.setupOf[i])
		} else {
			regionOf = append(regionOf, -1)
			setupOf = append(setupOf, false)
		}
	}
	fg.code, fg.regionOf, fg.setupOf = code, regionOf, setupOf
	for id, pc := range fg.labels {
		if pc >= 0 {
			fg.labels[id] = newpc[pc]
		}
	}
}

// fuse runs the superinstruction pipeline over the finished function body.
// Every label (branch, jump-table and region-exit anchor) is declared a
// leader so no external reference crosses a fused pair, and static region
// entries keep their invocation markers. Runs before emitTemplates and the
// final label consumers, which all see the remapped pcs.
func (fg *funcGen) fuse() {
	if fg.noFuse {
		return
	}
	leaders := make([]int, 0, len(fg.labels))
	for _, pc := range fg.labels {
		if pc >= 0 {
			leaders = append(leaders, pc)
		}
	}
	var entries []int
	if fg.static {
		for _, r := range fg.f.Regions {
			if fg.splits[r] == nil {
				if pc, ok := fg.label(r.Entry); ok {
					entries = append(entries, pc)
				}
			}
		}
	}
	fr := vm.Fuse(fg.code, vm.FuseOptions{
		RegionOf: fg.regionOf,
		SetupOf:  fg.setupOf,
		Leaders:  leaders,
		EntryPCs: entries,
	})
	fg.code, fg.regionOf, fg.setupOf = fr.Code, fr.RegionOf, fr.SetupOf
	for id, pc := range fg.labels {
		if pc >= 0 {
			fg.labels[id] = fr.PCMap[pc]
		}
	}
}

// ---------------------------------------------------------------- templates

// emitTemplates produces the template blocks, holes, terminator metadata
// and loop linkage for one region.
func (fg *funcGen) emitTemplates(r *ir.Region, sr *split.Result) (*tmpl.Region, error) {
	tr := &tmpl.Region{
		Index:     fg.regionIdx[r],
		Name:      fmt.Sprintf("%s:r%d", fg.f.Name, r.ID),
		FuncID:    fg.fid,
		TableSize: r.TableSize,
		Stats: tmpl.Stats{
			ConstOpsFolded:  sr.Stats.ConstOpsFolded,
			LoadsEliminated: sr.Stats.LoadsEliminated,
			ConstBranches:   sr.Stats.ConstBranches,
			LoopsUnrolled:   sr.Stats.LoopsUnrolled,
			Holes:           sr.Stats.Holes,
		},
	}
	for i := range r.Keys {
		tr.KeyRegs = append(tr.KeyRegs, regalloc.TempA+vm.Reg(i))
	}
	tr.Shareable = regionShareable(fg.f, r)
	tr.Auto = r.Auto
	if r.Auto {
		// Deopt target: the region's set-up entry in the function segment.
		// emitTemplates runs after fuse(), so labels are final. A failed
		// guard re-runs set-up with the live key values and reaches
		// DYNSTITCH, which routes to the generic tier for that call.
		pc, ok := fg.label(sr.SetupEntry)
		if !ok {
			return nil, fmt.Errorf("auto region %s: set-up entry not emitted", tr.Name)
		}
		tr.DeoptPC = pc
	}

	// Collect template blocks reachable from the template entry.
	var blocks []*ir.Block
	index := make([]int, fg.f.NumBlockIDs()) // position in blocks plus one, by Block.ID
	var collect func(b *ir.Block)
	collect = func(b *ir.Block) {
		if index[b.ID] > 0 || !b.Template {
			return
		}
		index[b.ID] = len(blocks) + 1
		blocks = append(blocks, b)
		for _, s := range b.Succs() {
			collect(s)
		}
	}
	collect(sr.TemplateEntry)
	// pos is b's position in blocks, 0 for a block not collected.
	pos := func(b *ir.Block) int { return max(index[b.ID]-1, 0) }
	tr.Entry = pos(sr.TemplateEntry)

	loopIdx := map[*ir.Loop]int{}
	for _, l := range r.Loops {
		loopIdx[l] = l.ID
	}

	for _, b := range blocks {
		tb := &tmpl.Block{IRID: b.ID, LoopID: -1}
		if n := len(b.Loops); n > 0 {
			tb.LoopID = b.Loops[n-1].ID
		}
		s := sink{code: &tb.Code, holes: &tb.Holes}
		for _, in := range b.Instrs[:len(b.Instrs)-1] {
			if err := fg.emitBody(in, s); err != nil {
				return nil, fmt.Errorf("template block b%d: %w", b.ID, err)
			}
		}
		term := b.Term()
		if term == nil {
			return nil, fmt.Errorf("template block b%d lacks terminator", b.ID)
		}
		edge := func(t *ir.Block, si int) tmpl.Edge {
			if ti := index[t.ID]; ti > 0 {
				return tmpl.Edge{Block: ti - 1}
			}
			fg.exitFixups = append(fg.exitFixups, exitFixup{
				region: tr, blk: pos(b), succ: si, target: t,
			})
			return tmpl.Edge{Block: -1}
		}
		switch term.Op {
		case ir.OpJump:
			tb.Term = tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{edge(term.Targets[0], 0)}}
		case ir.OpBr:
			t := tmpl.Term{Kind: tmpl.TermBr,
				Succs: []tmpl.Edge{edge(term.Targets[0], 0), edge(term.Targets[1], 1)}}
			if slot, ok := sr.BranchSlot[term]; ok {
				ref := fg.slotRef(slot)
				t.ConstSlot = &ref
			} else {
				t.CondReg = fg.srcReg(term.Args[0], regalloc.TempA, s)
			}
			tb.Term = t
		case ir.OpSwitch:
			slot, ok := sr.BranchSlot[term]
			if !ok {
				return nil, fmt.Errorf("non-constant switch survived in template b%d", b.ID)
			}
			ref := fg.slotRef(slot)
			t := tmpl.Term{Kind: tmpl.TermSwitch, ConstSlot: &ref,
				Cases: append([]int64(nil), term.Cases...)}
			for si, tg := range term.Targets {
				t.Succs = append(t.Succs, edge(tg, si))
			}
			tb.Term = t
		case ir.OpRet:
			if len(term.Args) > 0 {
				rv := fg.srcReg(term.Args[0], regalloc.TempA, s)
				s.add(vm.Inst{Op: vm.MOV, Rd: vm.RRV, Rs: rv})
			}
			tb.Term = tmpl.Term{Kind: tmpl.TermRet}
		default:
			return nil, fmt.Errorf("unexpected terminator %s in template", term.Op)
		}
		tr.Blocks = append(tr.Blocks, tb)
	}

	for _, l := range r.Loops {
		tl := &tmpl.Loop{
			ID:         l.ID,
			ParentID:   -1,
			NextSlot:   sr.NextSlot[l],
			RecordSize: l.RecordSize,
			HeadBlock:  pos(l.Head),
			LatchBlock: pos(l.Latch),
		}
		if l.Parent != nil {
			tl.ParentID = l.Parent.ID
			tl.HeaderSlot = tmpl.SlotRef{LoopID: l.Parent.ID, Slot: l.HeaderSlot}
		} else {
			tl.HeaderSlot = tmpl.SlotRef{LoopID: -1, Slot: l.HeaderSlot}
		}
		tr.Loops = append(tr.Loops, tl)
	}
	_ = loopIdx
	return tr, nil
}
