package split

import (
	"fmt"
	"sort"

	"dyncc/internal/analysis"
	"dyncc/internal/ir"
	"dyncc/internal/types"
)

// build performs the actual split once the analysis solution is final.
func build(f *ir.Func, r *ir.Region, res *analysis.Result) (*Result, error) {
	out := &Result{
		Region:     r,
		Analysis:   res,
		Holes:      map[ir.Value]SlotRef{},
		BranchSlot: map[*ir.Instr]SlotRef{},
		NextSlot:   map[*ir.Loop]int{},
	}

	// Region blocks in RPO, captured before we add set-up blocks.
	var regionRPO []*ir.Block
	for _, b := range f.ReversePostorder() {
		if b.Region == r && !b.Setup {
			regionRPO = append(regionRPO, b)
		}
	}

	// ---- 1. Assign table slots to hole values. Compile-time literal
	// constants are a special case of run-time constants (paper footnote in
	// section 3.1) but never need table slots: they stay in the templates
	// as ordinary immediates.
	counter := map[*ir.Loop]int{}
	assign := func(v ir.Value) {
		if _, ok := out.Holes[v]; ok {
			return
		}
		if isLiteral(f, v) {
			return
		}
		scope := loopOf(f, r, v)
		out.Holes[v] = SlotRef{Loop: scope, Slot: counter[scope]}
		counter[scope]++
	}
	for _, b := range regionRPO {
		for _, in := range b.Instrs {
			if in.Dst != 0 && res.Const.Has(in.Dst) && !isLiteral(f, in.Dst) {
				continue // moves to set-up
			}
			for _, a := range in.Args {
				if res.Const.Has(a) {
					assign(a)
				}
			}
			if res.ConstBranch[in] {
				if s, ok := out.Holes[in.Args[0]]; ok {
					out.BranchSlot[in] = s
				}
			}
		}
	}
	// Loop header slots live in the parent scope; the next-record link is
	// the last slot of each record.
	for _, l := range r.Loops {
		var parent *ir.Loop
		if l.Parent != nil {
			parent = l.Parent
		}
		l.HeaderSlot = counter[parent]
		counter[parent]++
	}
	for _, l := range r.Loops {
		out.NextSlot[l] = counter[l]
		l.RecordSize = counter[l] + 1
	}
	r.TableSize = counter[nil]

	// ---- 2. Compute the needed set (what set-up must materialize).
	needed := neededValues(f, r, res, out)

	// ---- 3. Emit set-up code.
	bd := &builder{
		f: f, r: r, res: res, out: out,
		vmap:   map[ir.Value]ir.Value{},
		rec:    map[*ir.Loop]ir.Value{},
		needed: needed,
		rpo:    regionRPO,
	}
	if err := bd.emitSetup(); err != nil {
		return nil, err
	}

	// ---- 4. Strip constant computations from template blocks; stats.
	// Pass A: find the values used by instructions that survive in the
	// templates, so literal constants they reference stay materialized.
	usedInTemplate := ir.NewValueSet(f.NumValues())
	for _, b := range regionRPO {
		for _, in := range b.Instrs {
			if in.Dst != 0 && res.Const.Has(in.Dst) && !isLiteral(f, in.Dst) {
				continue // will be stripped
			}
			for _, a := range in.Args {
				usedInTemplate.Add(a)
			}
		}
	}
	for _, b := range regionRPO {
		if b == r.Entry {
			continue
		}
		b.Template = true
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Dst != 0 && res.Const.Has(in.Dst) {
				if isLiteral(f, in.Dst) {
					if usedInTemplate.Has(in.Dst) {
						kept = append(kept, in)
					}
					continue
				}
				switch in.Op {
				case ir.OpLoad:
					out.Stats.LoadsEliminated++
				case ir.OpPhi, ir.OpCopy, ir.OpGlobalAddr, ir.OpStackAddr:
					// bookkeeping, not a folded computation
				default:
					out.Stats.ConstOpsFolded++
				}
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
		if t := b.Term(); t != nil && res.ConstBranch[t] {
			out.Stats.ConstBranches++
		}
	}
	out.Stats.LoopsUnrolled = len(r.Loops)
	out.Stats.Holes = len(out.Holes)

	// ---- 5. Rewire the region entry: first-time check via OpDynEnter.
	entryTerm := r.Entry.Term()
	if entryTerm == nil || entryTerm.Op != ir.OpJump {
		return nil, fmt.Errorf("split: region %d entry has unexpected terminator", r.ID)
	}
	body := entryTerm.Targets[0]
	if len(body.Phis()) > 0 {
		return nil, fmt.Errorf("split: region %d body entry unexpectedly has φs", r.ID)
	}
	entryTerm.Op = ir.OpDynEnter
	entryTerm.Args = append([]ir.Value(nil), r.Keys...)
	entryTerm.Targets = []*ir.Block{bd.setupEntry, body}
	bd.setupEntry.Preds = []*ir.Block{r.Entry}
	// The set-up tail's DynStitch edge into the template entry.
	body.Preds = append(body.Preds, bd.stitchBlock)

	out.SetupEntry = bd.setupEntry
	out.TemplateEntry = body
	out.TableValue = bd.tbl
	return out, nil
}

// neededValues returns the transitive closure of run-time-constant values
// that set-up code must compute: hole values, constant-branch predicates,
// their constant arguments, and the predicates referenced by the
// reachability conditions of constant-merge φs.
func neededValues(f *ir.Func, r *ir.Region, res *analysis.Result, out *Result) ir.ValueSet {
	needed := ir.NewValueSet(f.NumValues())
	var work []ir.Value
	add := func(v ir.Value) {
		if v != 0 && res.Const.Has(v) && !needed.Has(v) {
			needed.Add(v)
			work = append(work, v)
		}
	}
	for _, v := range sortedHoleKeys(out.Holes) {
		add(v)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		def := f.DefOf(v)
		if def == nil || def.Blk == nil || def.Blk.Region != r || def.Blk.Setup {
			continue // seed or pre-region value: available directly
		}
		for _, a := range def.Args {
			add(a)
		}
		if def.Op == ir.OpPhi && !isUnrolledHead(r, def.Blk) {
			for pi := range def.Blk.Preds {
				ec := res.EdgeReach[analysis.EdgeKey{To: def.Blk, PredIdx: pi}]
				for _, cj := range ec.Disj {
					for _, a := range cj {
						add(a.Block.Term().Args[0])
					}
				}
			}
		}
	}
	return needed
}

func sortedHoleKeys(m map[ir.Value]SlotRef) []ir.Value {
	ks := make([]ir.Value, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// ---------------------------------------------------------------- builder

type builder struct {
	f      *ir.Func
	r      *ir.Region
	res    *analysis.Result
	out    *Result
	vmap   map[ir.Value]ir.Value
	rec    map[*ir.Loop]ir.Value // current record base per active loop
	needed ir.ValueSet
	rpo    []*ir.Block

	cur         *ir.Block
	tbl         ir.Value
	setupEntry  *ir.Block
	stitchBlock *ir.Block
}

func (bd *builder) newBlock() *ir.Block {
	b := bd.f.NewBlock()
	b.Region = bd.r
	b.Setup = true
	return b
}

func (bd *builder) emit(in *ir.Instr) *ir.Instr {
	in.Blk = bd.cur
	bd.cur.Instrs = append(bd.cur.Instrs, in)
	return in
}

func (bd *builder) emitV(in *ir.Instr) ir.Value {
	in.Dst = bd.f.NewValue("", in.Typ)
	bd.emit(in)
	bd.f.ValueInfo(in.Dst).Def = in
	return in.Dst
}

func (bd *builder) constInt(v int64) ir.Value {
	return bd.emitV(&ir.Instr{Op: ir.OpConst, Const: v, Typ: types.IntType})
}

// resolve maps a region constant to its set-up incarnation; values defined
// before the region are used directly.
func (bd *builder) resolve(v ir.Value) (ir.Value, error) {
	if nv, ok := bd.vmap[v]; ok {
		return nv, nil
	}
	def := bd.f.DefOf(v)
	if def != nil && def.Blk != nil && def.Blk.Region == bd.r && !def.Blk.Setup {
		return 0, fmt.Errorf("split: internal: v%d needed before it is scheduled in set-up", v)
	}
	return v, nil
}

func (bd *builder) scopeBase(l *ir.Loop) ir.Value {
	if l == nil {
		return bd.tbl
	}
	return bd.rec[l]
}

func (bd *builder) emitSlotStore(slot SlotRef, val ir.Value) {
	bd.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{bd.scopeBase(slot.Loop), val},
		Const: int64(slot.Slot), Typ: types.IntType})
}

// emitSetup builds the whole set-up subgraph.
func (bd *builder) emitSetup() error {
	bd.setupEntry = bd.newBlock()
	bd.cur = bd.setupEntry
	size := bd.constInt(int64(bd.r.TableSize))
	bd.tbl = bd.emitV(&ir.Instr{Op: ir.OpCall, Sym: "alloc", Args: []ir.Value{size},
		Typ: types.PointerTo(types.IntType)})

	// Store holes whose values are defined before the region (the annotated
	// constants themselves and anything computed upstream).
	for _, v := range sortedHoleKeys(bd.out.Holes) {
		def := bd.f.DefOf(v)
		if def == nil || def.Blk == nil || def.Blk.Region != bd.r {
			bd.emitSlotStore(bd.out.Holes[v], v)
		}
	}

	if err := bd.emitUnit(nil); err != nil {
		return err
	}

	bd.stitchBlock = bd.cur
	bd.emit(&ir.Instr{Op: ir.OpDynStitch, Args: []ir.Value{bd.tbl},
		Targets: []*ir.Block{nil}}) // target patched by caller
	// Patch: the caller sets Targets[0] = template entry; do it here since
	// we know it from the region entry's terminator.
	bd.stitchBlock.Term().Targets[0] = bd.r.Entry.Term().Targets[0]
	return nil
}

// unitItems returns, in region RPO, the blocks whose innermost unrolled
// loop is parent, interleaved with directly nested loops at their head
// positions.
type unitItem struct {
	block *ir.Block
	loop  *ir.Loop
}

func (bd *builder) unitItems(parent *ir.Loop) []unitItem {
	var items []unitItem
	for _, b := range bd.rpo {
		var inner *ir.Loop
		if n := len(b.Loops); n > 0 {
			inner = b.Loops[n-1]
		}
		if inner == parent {
			items = append(items, unitItem{block: b})
			continue
		}
		for _, l := range bd.r.Loops {
			if l.Head == b && l.Parent == parent {
				items = append(items, unitItem{loop: l})
			}
		}
	}
	return items
}

func (bd *builder) emitUnit(parent *ir.Loop) error {
	for _, it := range bd.unitItems(parent) {
		if it.loop != nil {
			if err := bd.emitLoop(it.loop); err != nil {
				return err
			}
			continue
		}
		if parent != nil && it.block == parent.Head {
			continue // the head is emitted by emitLoop itself
		}
		if err := bd.emitBlockConsts(it.block, false); err != nil {
			return err
		}
	}
	return nil
}

// emitBlockConsts re-emits the needed constant computations of template
// block b into the current set-up block. skipPhis is set for unrolled loop
// heads, whose φs are materialized as real loop φs by emitLoop.
func (bd *builder) emitBlockConsts(b *ir.Block, skipPhis bool) error {
	for _, in := range b.Instrs {
		if in.Dst == 0 || !bd.res.Const.Has(in.Dst) || !bd.needed.Has(in.Dst) {
			continue
		}
		if in.Op == ir.OpPhi {
			if skipPhis {
				continue
			}
			if err := bd.emitSelect(in, b); err != nil {
				return err
			}
		} else {
			clone := &ir.Instr{Op: in.Op, Const: in.Const, F: in.F, Sym: in.Sym,
				Slot: in.Slot, Typ: in.Typ, Dynamic: in.Dynamic, Pos: in.Pos}
			for _, a := range in.Args {
				na, err := bd.resolve(a)
				if err != nil {
					return err
				}
				clone.Args = append(clone.Args, na)
			}
			dst := bd.f.NewValue(bd.f.ValueInfo(in.Dst).Name, in.Typ)
			clone.Dst = dst
			bd.emit(clone)
			bd.f.ValueInfo(dst).Def = clone
			bd.vmap[in.Dst] = dst
		}
		if slot, ok := bd.out.Holes[in.Dst]; ok {
			bd.emitSlotStore(slot, bd.vmap[in.Dst])
		}
	}
	return nil
}

// emitSelect resolves a constant-merge φ with branch-free selects over the
// predecessors' reachability conditions.
func (bd *builder) emitSelect(phi *ir.Instr, b *ir.Block) error {
	u := types.UnsignedType
	cur, err := bd.resolve(phi.Args[0])
	if err != nil {
		return err
	}
	for pi := 1; pi < len(phi.Args); pi++ {
		condV, err := bd.emitCond(bd.res.EdgeReach[analysis.EdgeKey{To: b, PredIdx: pi}])
		if err != nil {
			return err
		}
		argV, err := bd.resolve(phi.Args[pi])
		if err != nil {
			return err
		}
		// cur = cond ? arg : cur, as bit arithmetic: mask = -cond.
		mask := bd.emitV(&ir.Instr{Op: ir.OpNeg, Args: []ir.Value{condV}, Typ: u})
		t1 := bd.emitV(&ir.Instr{Op: ir.OpAnd, Args: []ir.Value{argV, mask}, Typ: u})
		nm := bd.emitV(&ir.Instr{Op: ir.OpNot, Args: []ir.Value{mask}, Typ: u})
		t2 := bd.emitV(&ir.Instr{Op: ir.OpAnd, Args: []ir.Value{cur, nm}, Typ: u})
		cur = bd.emitV(&ir.Instr{Op: ir.OpOr, Args: []ir.Value{t1, t2}, Typ: phi.Typ})
	}
	bd.vmap[phi.Dst] = cur
	return nil
}

// emitCond materializes a reachability condition as a 0/1 value.
func (bd *builder) emitCond(c analysis.Cond) (ir.Value, error) {
	if c.IsTrue() {
		return bd.constInt(1), nil
	}
	if c.IsFalse() {
		return bd.constInt(0), nil
	}
	var disj ir.Value
	for _, cj := range c.Disj {
		var conj ir.Value
		for _, a := range cj {
			av, err := bd.emitAtom(a)
			if err != nil {
				return 0, err
			}
			if conj == 0 {
				conj = av
			} else {
				conj = bd.emitV(&ir.Instr{Op: ir.OpAnd, Args: []ir.Value{conj, av}, Typ: types.IntType})
			}
		}
		if conj == 0 {
			conj = bd.constInt(1)
		}
		if disj == 0 {
			disj = conj
		} else {
			disj = bd.emitV(&ir.Instr{Op: ir.OpOr, Args: []ir.Value{disj, conj}, Typ: types.IntType})
		}
	}
	return disj, nil
}

// emitAtom materializes branch-outcome atom B→S as a 0/1 value.
func (bd *builder) emitAtom(a analysis.Atom) (ir.Value, error) {
	term := a.Block.Term()
	p, err := bd.resolve(term.Args[0])
	if err != nil {
		return 0, err
	}
	switch term.Op {
	case ir.OpBr:
		z := bd.constInt(0)
		op := ir.OpNe // successor 0: predicate != 0
		if a.Succ == 1 {
			op = ir.OpEq
		}
		return bd.emitV(&ir.Instr{Op: op, Args: []ir.Value{p, z}, Typ: types.IntType}), nil
	case ir.OpSwitch:
		if a.Succ < len(term.Cases) {
			cv := bd.constInt(term.Cases[a.Succ])
			return bd.emitV(&ir.Instr{Op: ir.OpEq, Args: []ir.Value{p, cv}, Typ: types.IntType}), nil
		}
		// Default: none of the cases matched.
		var acc ir.Value
		for _, cval := range term.Cases {
			cv := bd.constInt(cval)
			ne := bd.emitV(&ir.Instr{Op: ir.OpNe, Args: []ir.Value{p, cv}, Typ: types.IntType})
			if acc == 0 {
				acc = ne
			} else {
				acc = bd.emitV(&ir.Instr{Op: ir.OpAnd, Args: []ir.Value{acc, ne}, Typ: types.IntType})
			}
		}
		if acc == 0 {
			acc = bd.constInt(1)
		}
		return acc, nil
	}
	return 0, fmt.Errorf("split: atom on non-branch terminator %s", term.Op)
}

// emitLoop builds the set-up loop for unrolled loop l: one table record is
// allocated and linked per iteration (including the final one, whose
// continue-condition is false), exactly as in the paper's Figure 1.
func (bd *builder) emitLoop(l *ir.Loop) error {
	recSize := bd.constInt(int64(l.RecordSize))
	rec0 := bd.emitV(&ir.Instr{Op: ir.OpCall, Sym: "alloc", Args: []ir.Value{recSize},
		Typ: types.PointerTo(types.IntType)})
	bd.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{bd.scopeBase(l.Parent), rec0},
		Const: int64(l.HeaderSlot), Typ: types.IntType})

	head := bd.newBlock()
	prev := bd.cur
	bd.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{head}})
	head.Preds = []*ir.Block{prev} // back edge appended below
	bd.cur = head

	// Record pointer φ; the back-edge argument is patched after the body.
	recPhi := &ir.Instr{Op: ir.OpPhi, Args: []ir.Value{rec0, rec0},
		Typ: types.PointerTo(types.IntType)}
	recV := bd.emitV(recPhi)
	bd.rec[l] = recV

	// Head value φs (induction variables).
	latchIdx := 0
	if l.Head.Preds[0] != l.Latch {
		latchIdx = 1
	}
	entryIdx := 1 - latchIdx
	type fixup struct {
		phi     *ir.Instr
		origArg ir.Value
	}
	var fixups []fixup
	var phiStores []struct {
		slot SlotRef
		val  ir.Value
	}
	// All φs are emitted before any straight-line code (block-head invariant).
	for _, op := range l.Head.Phis() {
		if !bd.res.Const.Has(op.Dst) || !bd.needed.Has(op.Dst) {
			continue
		}
		ea, err := bd.resolve(op.Args[entryIdx])
		if err != nil {
			return err
		}
		np := &ir.Instr{Op: ir.OpPhi, Args: []ir.Value{ea, ea}, Typ: op.Typ}
		nv := bd.emitV(np)
		bd.vmap[op.Dst] = nv
		fixups = append(fixups, fixup{phi: np, origArg: op.Args[latchIdx]})
		if slot, ok := bd.out.Holes[op.Dst]; ok {
			phiStores = append(phiStores, struct {
				slot SlotRef
				val  ir.Value
			}{slot, nv})
		}
	}
	for _, ps := range phiStores {
		bd.emitSlotStore(ps.slot, ps.val)
	}

	// Remaining head-block constants (the loop condition among them) are
	// computed and stored before the continue test, so the final record
	// carries everything the stitcher reads before exiting the loop.
	if err := bd.emitBlockConsts(l.Head, true); err != nil {
		return err
	}
	condV, err := bd.resolve(l.Head.Term().Args[0])
	if err != nil {
		return err
	}

	body := bd.newBlock()
	exit := bd.newBlock()
	bd.emit(&ir.Instr{Op: ir.OpBr, Args: []ir.Value{condV}, Targets: []*ir.Block{body, exit}})
	body.Preds = []*ir.Block{bd.cur}
	exit.Preds = []*ir.Block{bd.cur}
	bd.cur = body

	if err := bd.emitUnit(l); err != nil {
		return err
	}

	// Allocate and link the next iteration's record.
	recNext := bd.emitV(&ir.Instr{Op: ir.OpCall, Sym: "alloc", Args: []ir.Value{recSize},
		Typ: types.PointerTo(types.IntType)})
	bd.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{recV, recNext},
		Const: int64(bd.out.NextSlot[l]), Typ: types.IntType})

	// Patch φ back-edge arguments.
	recPhi.Args[1] = recNext
	for _, fx := range fixups {
		na, err := bd.resolve(fx.origArg)
		if err != nil {
			return err
		}
		fx.phi.Args[1] = na
	}
	back := bd.cur
	bd.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{head}})
	head.Preds = append(head.Preds, back)

	bd.cur = exit
	delete(bd.rec, l)
	return nil
}
