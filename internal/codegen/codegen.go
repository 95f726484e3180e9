package codegen

import (
	"fmt"
	"math"

	"dyncc/internal/ir"
	"dyncc/internal/regalloc"
	"dyncc/internal/split"
	"dyncc/internal/tmpl"
	"dyncc/internal/types"
	"dyncc/internal/vm"
)

// Output is the result of module code generation.
type Output struct {
	Prog    *vm.Program
	Regions []*tmpl.Region // indexed by global region id

	// FuncAlloc exposes each function's register allocation (used by the
	// merged set-up mode to read set-up inputs out of a live machine).
	FuncAlloc map[string]*regalloc.Allocation
}

// Options configures code generation.
type Options struct {
	// NoFuse disables static-code superinstruction fusion (ablation
	// switch; fusion is host-side only and modeled-cost neutral).
	NoFuse bool
}

// Compile translates a lowered (and, in dynamic mode, split) module into a
// VM program plus region templates. splits maps each region to its split
// result; a nil map (or missing entries) means the region is compiled
// statically and only instrumented.
func Compile(mod *ir.Module, splits map[*ir.Region]*split.Result, opts Options) (*Output, error) {
	prog := &vm.Program{
		FuncIndex:   map[string]int{},
		GlobalWords: mod.GlobalWords,
		GlobalInit:  make([]int64, mod.GlobalWords),
	}
	for _, g := range mod.Globals {
		copy(prog.GlobalInit[g.Addr:], g.Init)
	}
	for i, f := range mod.Funcs {
		prog.FuncIndex[f.Name] = i
	}

	out := &Output{Prog: prog, FuncAlloc: map[string]*regalloc.Allocation{}}
	// Assign global region indices.
	regionIdx := map[*ir.Region]int{}
	for _, f := range mod.Funcs {
		for _, r := range f.Regions {
			regionIdx[r] = len(out.Regions)
			out.Regions = append(out.Regions, nil) // placeholder
		}
	}
	prog.NumRegions = len(out.Regions)

	for fi, f := range mod.Funcs {
		fg := &funcGen{
			mod: mod, f: f, fid: fi,
			splits:    splits,
			regionIdx: regionIdx,
			holes:     map[ir.Value]split.SlotRef{},
			noFuse:    opts.NoFuse,
		}
		seg, regions, err := fg.gen()
		if err != nil {
			return nil, fmt.Errorf("codegen %s: %w", f.Name, err)
		}
		prog.Segs = append(prog.Segs, seg)
		out.FuncAlloc[f.Name] = fg.alloc
		for _, tr := range regions {
			out.Regions[tr.Index] = tr
		}
	}
	// Fill placeholders for regions compiled statically (no templates).
	for i, r := range out.Regions {
		if r == nil {
			out.Regions[i] = &tmpl.Region{Index: i}
		}
	}
	return out, nil
}

type exitFixup struct {
	region *tmpl.Region
	blk    int
	succ   int
	target *ir.Block
}

type funcGen struct {
	mod       *ir.Module
	f         *ir.Func
	fid       int
	splits    map[*ir.Region]*split.Result
	regionIdx map[*ir.Region]int

	alloc *regalloc.Allocation
	code  []vm.Inst
	// labels is each emitted block's pc, by Block.ID (-1: not emitted).
	labels []int
	fixups []struct {
		pc  int
		blk *ir.Block
	}
	regionOf []int16
	setupOf  []bool
	holes    map[ir.Value]split.SlotRef

	exitFixups []exitFixup
	static     bool // this function's regions are compiled statically
	noFuse     bool // disable superinstruction fusion

	// tables collects jump-table targets (as blocks) until labels are final.
	tables [][]*ir.Block
}

// gen runs the per-function backend pipeline and emits the segment.
func (fg *funcGen) gen() (*vm.Segment, []*tmpl.Region, error) {
	f := fg.f

	keepSwitch := map[*ir.Instr]bool{}
	for _, r := range f.Regions {
		sr := fg.splits[r]
		if sr == nil {
			fg.static = true
			continue
		}
		for v, slot := range sr.Holes {
			fg.holes[v] = slot
		}
		for br := range sr.BranchSlot {
			if br.Op == ir.OpSwitch {
				keepSwitch[br] = true
			}
		}
	}
	// Ordinary-code switches are emitted directly (jump table or
	// compare-and-branch chain); only run-time switches inside templates
	// must be lowered to two-way branches the stitcher can copy.
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpSwitch && !b.Template {
			keepSwitch[t] = true
		}
	}

	LowerSwitches(f, keepSwitch)
	f.SplitCriticalEdges()
	ir.DestroySSA(f)
	// Only hole values whose definitions were stripped into set-up code
	// lack registers. Annotated constants defined in ordinary code (the
	// seeds) are holes in templates *and* live register values elsewhere
	// (set-up stores them into the table; keyed dispatch reads them).
	holeSet := ir.NewValueSet(f.NumValues())
	for v := range fg.holes {
		if def := f.DefOf(v); def != nil && def.Blk != nil && def.Blk.Template {
			holeSet.Add(v)
		}
	}
	Legalize(f, fg.holes)
	fg.alloc = regalloc.Allocate(f, holeSet)

	// Emission order: DFS preorder over the CFG; template blocks are
	// traversed (their successors may be ordinary continuation code) but
	// not emitted. A region's set-up entry immediately follows its
	// OpDynEnter block, which falls through into it.
	var order []*ir.Block
	seen := make([]bool, f.NumBlockIDs())
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
		if !b.Template {
			order = append(order, b)
		}
		for _, s := range b.Succs() {
			dfs(s)
		}
	}
	dfs(f.Entry())

	// Prologue.
	frame := int64(fg.alloc.FrameSize)
	if frame > 0 {
		fg.add(vm.Inst{Op: vm.SUBI, Rd: vm.RSP, Rs: vm.RSP, Imm: frame})
	}
	for i, p := range f.Params {
		loc := fg.alloc.Loc[p]
		src := vm.RA0 + vm.Reg(i)
		if loc.Spilled {
			fg.add(vm.Inst{Op: vm.ST, Rs: vm.RSP, Imm: int64(loc.Slot), Rt: src})
		} else if loc.Reg != 0 {
			fg.add(vm.Inst{Op: vm.MOV, Rd: loc.Reg, Rs: src})
		}
	}

	fg.labels = make([]int, f.NumBlockIDs())
	for i := range fg.labels {
		fg.labels[i] = -1
	}
	for _, b := range order {
		fg.labels[b.ID] = len(fg.code)
		rid, setup := fg.blockAttribution(b)
		for _, in := range b.Instrs {
			if err := fg.emitInstr(in, b, rid, setup); err != nil {
				return nil, nil, err
			}
		}
	}
	fg.resolveFixups()
	fg.peephole()
	fg.fuse()

	// Templates.
	var regions []*tmpl.Region
	for _, r := range f.Regions {
		sr := fg.splits[r]
		if sr == nil {
			continue
		}
		tr, err := fg.emitTemplates(r, sr)
		if err != nil {
			return nil, nil, err
		}
		regions = append(regions, tr)
	}
	// Resolve region exit arcs now that function pcs are final.
	for _, fx := range fg.exitFixups {
		pc, ok := fg.label(fx.target)
		if !ok {
			return nil, nil, fmt.Errorf("region exit to unemitted block b%d", fx.target.ID)
		}
		fx.region.Blocks[fx.blk].Term.Succs[fx.succ].ExitPC = pc
	}

	seg := &vm.Segment{
		Name:      f.Name,
		Code:      fg.code,
		FrameSize: fg.alloc.FrameSize,
		NumParams: len(f.Params),
		Region:    -1,
		RegionOf:  fg.regionOf,
		SetupOf:   fg.setupOf,
	}
	for _, entries := range fg.tables {
		tbl := make([]int, len(entries))
		for i, blk := range entries {
			pc, ok := fg.label(blk)
			if !ok {
				return nil, nil, fmt.Errorf("jump table entry to unemitted block b%d", blk.ID)
			}
			tbl[i] = pc
		}
		seg.JumpTables = append(seg.JumpTables, tbl)
	}
	if fg.static {
		entry := make([]int32, len(fg.code))
		for i := range entry {
			entry[i] = -1
		}
		any := false
		for _, r := range f.Regions {
			if fg.splits[r] == nil {
				if pc, ok := fg.label(r.Entry); ok {
					entry[pc] = int32(fg.regionIdx[r])
					any = true
				}
			}
		}
		if any {
			seg.RegionEntry = entry
		}
	}
	seg.Prepare()
	return seg, regions, nil
}

// label returns b's pc, and false when b was not emitted.
func (fg *funcGen) label(b *ir.Block) (int, bool) {
	pc := fg.labels[b.ID]
	return pc, pc >= 0
}

// blockAttribution returns the region index (or -1) and set-up flag for
// cycle accounting of block b.
func (fg *funcGen) blockAttribution(b *ir.Block) (int16, bool) {
	if b.Region == nil {
		return -1, false
	}
	return int16(fg.regionIdx[b.Region]), b.Setup
}

// add appends an instruction to the function segment.
func (fg *funcGen) add(in vm.Inst) int {
	fg.code = append(fg.code, in)
	return len(fg.code) - 1
}

func (fg *funcGen) attribute(rid int16, setup bool, from int) {
	for len(fg.regionOf) < len(fg.code) {
		fg.regionOf = append(fg.regionOf, -1)
		fg.setupOf = append(fg.setupOf, false)
	}
	for i := from; i < len(fg.code); i++ {
		fg.regionOf[i] = rid
		fg.setupOf[i] = setup
	}
}

// ---------------------------------------------------------------- registers

type sink struct {
	code  *[]vm.Inst
	holes *[]tmpl.Hole
}

func (s sink) add(in vm.Inst) int {
	*s.code = append(*s.code, in)
	return len(*s.code) - 1
}

func (fg *funcGen) srcReg(v ir.Value, temp vm.Reg, s sink) vm.Reg {
	loc := fg.alloc.Loc[v]
	if !loc.Spilled {
		if loc.Reg == 0 {
			return vm.RZero // undefined value: reads as 0
		}
		return loc.Reg
	}
	s.add(vm.Inst{Op: vm.LD, Rd: temp, Rs: vm.RSP, Imm: int64(loc.Slot)})
	return temp
}

// dstReg returns the register to write v into and, when spilled, a store
// to flush afterwards.
func (fg *funcGen) dstReg(v ir.Value) (vm.Reg, *vm.Inst) {
	loc := fg.alloc.Loc[v]
	if !loc.Spilled {
		if loc.Reg == 0 {
			return regalloc.TempC, nil // dead value: scratch
		}
		return loc.Reg, nil
	}
	st := vm.Inst{Op: vm.ST, Rs: vm.RSP, Imm: int64(loc.Slot), Rt: regalloc.TempC}
	return regalloc.TempC, &st
}

func (fg *funcGen) isHole(v ir.Value) (split.SlotRef, bool) {
	s, ok := fg.holes[v]
	return s, ok
}

func (fg *funcGen) slotRef(s split.SlotRef) tmpl.SlotRef {
	if s.Loop == nil {
		return tmpl.SlotRef{LoopID: -1, Slot: s.Slot}
	}
	return tmpl.SlotRef{LoopID: s.Loop.ID, Slot: s.Slot}
}

var opMap = map[ir.Op]vm.Op{
	ir.OpAdd: vm.ADD, ir.OpSub: vm.SUB, ir.OpMul: vm.MUL,
	ir.OpDiv: vm.DIV, ir.OpUDiv: vm.UDIV, ir.OpMod: vm.MOD, ir.OpUMod: vm.UMOD,
	ir.OpAnd: vm.AND, ir.OpOr: vm.OR, ir.OpXor: vm.XOR,
	ir.OpShl: vm.SHL, ir.OpAShr: vm.SHR, ir.OpLShr: vm.SHRU,
	ir.OpEq: vm.SEQ, ir.OpNe: vm.SNE, ir.OpLt: vm.SLT, ir.OpLe: vm.SLE,
	ir.OpULt: vm.SLTU, ir.OpULe: vm.SLEU,
	ir.OpFAdd: vm.FADD, ir.OpFSub: vm.FSUB, ir.OpFMul: vm.FMUL, ir.OpFDiv: vm.FDIV,
	ir.OpFEq: vm.FEQ, ir.OpFNe: vm.FNE, ir.OpFLt: vm.FLT, ir.OpFLe: vm.FLE,
}

// emitBody lowers a non-terminator instruction into s. Used for both
// ordinary code and template code; hole operands are only legal when
// s.holes is non-nil.
func (fg *funcGen) emitBody(in *ir.Instr, s sink) error {
	f := fg.f
	floatHole := func(v ir.Value) bool {
		t := f.TypeOf(v)
		return t != nil && (t.IsFloat() || t.Kind == types.Pointer)
	}
	addHole := func(pc int, v ir.Value, slot split.SlotRef) error {
		if s.holes == nil {
			return fmt.Errorf("hole value v%d outside template", v)
		}
		*s.holes = append(*s.holes, tmpl.Hole{Pc: pc, Slot: fg.slotRef(slot), Float: floatHole(v)})
		return nil
	}

	switch in.Op {
	case ir.OpConst:
		rd, post := fg.dstReg(in.Dst)
		s.add(vm.Inst{Op: vm.LI, Rd: rd, Imm: in.Const})
		flush(s, post)
	case ir.OpFConst:
		rd, post := fg.dstReg(in.Dst)
		s.add(vm.Inst{Op: vm.LI, Rd: rd, Imm: floatBits(in.F)})
		flush(s, post)
	case ir.OpGlobalAddr:
		g := fg.mod.GlobalIndex[in.Sym]
		if g == nil {
			return fmt.Errorf("unknown global %s", in.Sym)
		}
		rd, post := fg.dstReg(in.Dst)
		s.add(vm.Inst{Op: vm.LI, Rd: rd, Imm: int64(g.Addr)})
		flush(s, post)
	case ir.OpStackAddr:
		rd, post := fg.dstReg(in.Dst)
		s.add(vm.Inst{Op: vm.ADDI, Rd: rd, Rs: vm.RSP, Imm: int64(in.Slot)})
		flush(s, post)
	case ir.OpCopy:
		rd, post := fg.dstReg(in.Dst)
		if slot, ok := fg.isHole(in.Args[0]); ok && s.holes != nil {
			var pc int
			if floatHole(in.Args[0]) {
				pc = s.add(vm.Inst{Op: vm.LDC, Rd: rd})
			} else {
				pc = s.add(vm.Inst{Op: vm.LI, Rd: rd})
			}
			if err := addHole(pc, in.Args[0], slot); err != nil {
				return err
			}
		} else {
			rs := fg.srcReg(in.Args[0], regalloc.TempA, s)
			s.add(vm.Inst{Op: vm.MOV, Rd: rd, Rs: rs})
		}
		flush(s, post)
	case ir.OpNeg, ir.OpNot, ir.OpFNeg, ir.OpIntToFloat, ir.OpFloatToInt:
		op := map[ir.Op]vm.Op{
			ir.OpNeg: vm.NEG, ir.OpNot: vm.NOT, ir.OpFNeg: vm.FNEG,
			ir.OpIntToFloat: vm.ITOF, ir.OpFloatToInt: vm.FTOI,
		}[in.Op]
		rs := fg.srcReg(in.Args[0], regalloc.TempA, s)
		rd, post := fg.dstReg(in.Dst)
		s.add(vm.Inst{Op: op, Rd: rd, Rs: rs})
		flush(s, post)
	case ir.OpLoad:
		rs := fg.srcReg(in.Args[0], regalloc.TempA, s)
		rd, post := fg.dstReg(in.Dst)
		s.add(vm.Inst{Op: vm.LD, Rd: rd, Rs: rs, Imm: in.Const})
		flush(s, post)
	case ir.OpStore:
		base := fg.srcReg(in.Args[0], regalloc.TempA, s)
		val := fg.srcReg(in.Args[1], regalloc.TempB, s)
		s.add(vm.Inst{Op: vm.ST, Rs: base, Imm: in.Const, Rt: val})
	case ir.OpCall:
		for i, a := range in.Args {
			r := fg.srcReg(a, regalloc.TempA, s)
			s.add(vm.Inst{Op: vm.MOV, Rd: vm.RA0 + vm.Reg(i), Rs: r})
		}
		var idx int64
		if bid, ok := vm.BuiltinIndex[in.Sym]; ok {
			idx = int64(-(bid + 1))
		} else if _, ok := fg.mod.FuncIndex[in.Sym]; ok {
			idx = int64(fg.funcID(in.Sym))
		} else {
			return fmt.Errorf("unknown callee %s", in.Sym)
		}
		s.add(vm.Inst{Op: vm.CALL, Imm: idx})
		if in.Dst != 0 {
			rd, post := fg.dstReg(in.Dst)
			s.add(vm.Inst{Op: vm.MOV, Rd: rd, Rs: vm.RRV})
			flush(s, post)
		}
	default:
		op, ok := opMap[in.Op]
		if !ok {
			return fmt.Errorf("cannot emit %s", in.Op)
		}
		// Fold a literal second operand into the immediate form (commuting
		// first when necessary); the materializing LI becomes dead and the
		// peephole removes it.
		args := in.Args
		// Hole operands take priority: a hole sits in position 1 (Legalize
		// put it there) and must never be displaced by the literal swap.
		holeInPlay := false
		if s.holes != nil {
			_, h0 := fg.isHole(args[0])
			_, h1 := fg.isHole(args[1])
			holeInPlay = h0 || h1
		}
		if _, lit1 := fg.literalOf(args[1]); !lit1 && !holeInPlay && in.Op.IsCommutative() {
			if _, lit0 := fg.literalOf(args[0]); lit0 {
				args = []ir.Value{args[1], args[0]}
			}
		}
		rs := fg.srcReg(args[0], regalloc.TempA, s)
		rd, post := fg.dstReg(in.Dst)
		if slot, hok := fg.isHole(args[1]); hok && s.holes != nil {
			immOp := vm.RegToImmForm(op)
			if immOp == vm.NOP {
				return fmt.Errorf("no immediate form for %s with hole operand", op)
			}
			pc := s.add(vm.Inst{Op: immOp, Rd: rd, Rs: rs})
			if err := addHole(pc, args[1], slot); err != nil {
				return err
			}
		} else if lv, lok := fg.literalOf(args[1]); lok && vm.FitsImm(lv) &&
			vm.RegToImmForm(op) != vm.NOP {
			s.add(vm.Inst{Op: vm.RegToImmForm(op), Rd: rd, Rs: rs, Imm: lv})
		} else {
			rt := fg.srcReg(args[1], regalloc.TempB, s)
			s.add(vm.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt})
		}
		flush(s, post)
	}
	return nil
}

// literalOf reports the integer literal value of v, chasing copies.
func (fg *funcGen) literalOf(v ir.Value) (int64, bool) {
	for i := 0; i < 64; i++ {
		def := fg.f.DefOf(v)
		if def == nil {
			return 0, false
		}
		switch def.Op {
		case ir.OpConst:
			return def.Const, true
		case ir.OpCopy:
			v = def.Args[0]
		default:
			return 0, false
		}
	}
	return 0, false
}

func flush(s sink, post *vm.Inst) {
	if post != nil {
		s.add(*post)
	}
}

func floatBits(f float64) int64 {
	return int64(math.Float64bits(f))
}

// funcID maps a function name to its call index.
func (fg *funcGen) funcID(name string) int {
	for i, f := range fg.mod.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}
