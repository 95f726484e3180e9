package stitcher

import (
	"testing"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// execStitched runs a stitched segment standalone (replacing trailing XFERs
// with RET) and returns RRV.
func execStitched(t *testing.T, seg *vm.Segment, setup func(m *vm.Machine)) int64 {
	t.Helper()
	code := append([]vm.Inst(nil), seg.Code...)
	for i := range code {
		if code[i].Op == vm.XFER {
			code[i] = vm.Inst{Op: vm.RET}
		}
	}
	prog := &vm.Program{
		Segs:      []*vm.Segment{{Name: "t", Code: code, Consts: seg.Consts, Region: -1}},
		FuncIndex: map[string]int{"t": 0},
	}
	m := vm.NewMachine(prog, 1<<14)
	if setup != nil {
		setup(m)
	}
	v, err := m.Call("t")
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return v
}

func TestFoldAddressesChains(t *testing.T) {
	st := &stitch{stats: &Stats{}, cindex: map[int64]int{}}
	st.out = []vm.Inst{
		{Op: vm.ADDI, Rd: 20, Rs: vm.RSP, Imm: 4}, // base = sp+4
		{Op: vm.ADDI, Rd: 21, Rs: 20, Imm: 3},     // addr = base+3
		{Op: vm.LD, Rd: 22, Rs: 21, Imm: 0},       // v = [addr]
		{Op: vm.MOV, Rd: vm.RRV, Rs: 22},
		{Op: vm.RET},
	}
	st.foldAddresses()
	// The whole chain must collapse to LD r22, [sp+7].
	found := false
	for _, in := range st.out {
		if in.Op == vm.LD && in.Rs == vm.RSP && in.Imm == 7 {
			found = true
		}
		if in.Op == vm.ADDI && in.Rd != vm.RSP {
			t.Errorf("leftover address arithmetic: %s", in)
		}
	}
	if !found {
		t.Errorf("chain not folded:\n%v", st.out)
	}
}

func TestFoldAddressesRespectsAliasing(t *testing.T) {
	// The base register y is redefined between the ADDI and its consumer:
	// no folding allowed.
	st := &stitch{stats: &Stats{}, cindex: map[int64]int{}}
	st.out = []vm.Inst{
		{Op: vm.ADDI, Rd: 21, Rs: 20, Imm: 3},
		{Op: vm.LI, Rd: 20, Imm: 999}, // clobber y
		{Op: vm.LD, Rd: 22, Rs: 21, Imm: 0},
		{Op: vm.LI, Rd: 21, Imm: 0}, // kill x so deadness holds
		{Op: vm.RET},
	}
	before := len(st.out)
	st.foldAddresses()
	if len(st.out) != before {
		t.Errorf("folded across a base clobber:\n%v", st.out)
	}
}

func TestRegisterActionsPromoteAndFlush(t *testing.T) {
	// Straight-line stitched code hammering two frame slots, ending in an
	// XFER. Promotion must preload, rewrite to MOVs, and flush at the exit.
	st := &stitch{stats: &Stats{}, cindex: map[int64]int{}}
	st.out = []vm.Inst{
		{Op: vm.LD, Rd: 20, Rs: vm.RSP, Imm: 2},
		{Op: vm.ADDI, Rd: 20, Rs: 20, Imm: 5},
		{Op: vm.ST, Rs: vm.RSP, Imm: 2, Rt: 20},
		{Op: vm.LD, Rd: 21, Rs: vm.RSP, Imm: 3},
		{Op: vm.ADD, Rd: 21, Rs: 21, Rt: 20},
		{Op: vm.ST, Rs: vm.RSP, Imm: 3, Rt: 21},
		{Op: vm.XFER, Target: 0},
	}
	st.registerActions()
	if st.stats.LoadsPromoted != 2 || st.stats.StoresPromoted != 2 {
		t.Fatalf("promotions: %+v", st.stats)
	}
	// Execute: sp-relative slots 2 and 3 must end with the right values.
	seg := &vm.Segment{Code: st.out}
	_ = execStitched(t, seg, func(m *vm.Machine) {
		m.Regs[vm.RSP] = 100
		m.Mem[102] = 10
		m.Mem[103] = 1
	})
	// Re-run manually to inspect memory.
	code := append([]vm.Inst(nil), st.out...)
	for i := range code {
		if code[i].Op == vm.XFER {
			code[i] = vm.Inst{Op: vm.RET}
		}
	}
	prog := &vm.Program{Segs: []*vm.Segment{{Name: "t", Code: code, Region: -1}},
		FuncIndex: map[string]int{"t": 0}}
	m := vm.NewMachine(prog, 1<<12)
	m.Regs[vm.RSP] = 100
	m.Mem[102] = 10
	m.Mem[103] = 1
	if _, err := m.Call("t"); err != nil {
		t.Fatal(err)
	}
	if m.Mem[102] != 15 {
		t.Errorf("slot 2 = %d, want 15", m.Mem[102])
	}
	if m.Mem[103] != 1+15 {
		t.Errorf("slot 3 = %d, want 16", m.Mem[103])
	}
}

func TestRegisterActionsBailsOnWildMemops(t *testing.T) {
	st := &stitch{stats: &Stats{}, cindex: map[int64]int{}}
	st.out = []vm.Inst{
		{Op: vm.LD, Rd: 20, Rs: vm.RSP, Imm: 2},
		{Op: vm.ST, Rs: 22, Imm: 0, Rt: 20}, // wild store: unknown base
		{Op: vm.RET},
	}
	st.registerActions()
	if st.stats.LoadsPromoted != 0 {
		t.Error("promotion must bail when a non-frame memop exists")
	}
}

func TestRegisterActionsBailsOnCalls(t *testing.T) {
	st := &stitch{stats: &Stats{}, cindex: map[int64]int{}}
	st.out = []vm.Inst{
		{Op: vm.LD, Rd: 20, Rs: vm.RSP, Imm: 2},
		{Op: vm.CALL, Imm: 0},
		{Op: vm.ST, Rs: vm.RSP, Imm: 2, Rt: 20},
		{Op: vm.RET},
	}
	st.registerActions()
	if st.stats.LoadsPromoted != 0 {
		t.Error("promotion must bail across calls")
	}
}

// Stitching an unrolled loop: three linked records, the loop body emitted
// once per record with per-iteration holes patched.
func TestStitchUnrolledLoop(t *testing.T) {
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 8), Region: -1}
	mem := make([]int64, 256)
	const tbl = 16
	// Region table: slot 0 = loop header -> first record.
	// Record layout: [cond, value, next].
	recs := []int64{32, 48, 64}
	mem[tbl+0] = recs[0]
	vals := []int64{100, 200, 300}
	for i, r := range recs {
		mem[r+0] = 1 // continue
		mem[r+1] = vals[i]
		if i+1 < len(recs) {
			mem[r+2] = recs[i+1]
		} else {
			last := int64(80)
			mem[r+2] = last
		}
	}
	mem[80+0] = 0 // final record: condition false

	region := &tmpl.Region{
		Index: 0, Name: "t:r0", TableSize: 1,
		Blocks: []*tmpl.Block{
			{ // b0: region entry, init acc (r21) = 0
				Code:   []vm.Inst{{Op: vm.LI, Rd: 21, Imm: 0}},
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: 1}}},
				LoopID: -1,
			},
			{ // b1: loop head — constant branch on record slot 0
				Term: tmpl.Term{Kind: tmpl.TermBr,
					ConstSlot: &tmpl.SlotRef{LoopID: 0, Slot: 0},
					Succs:     []tmpl.Edge{{Block: 2}, {Block: 3}}},
				LoopID: 0,
			},
			{ // b2: body — acc += hole(record slot 1); back edge
				Code:   []vm.Inst{{Op: vm.ADDI, Rd: 21, Rs: 21}},
				Holes:  []tmpl.Hole{{Pc: 0, Slot: tmpl.SlotRef{LoopID: 0, Slot: 1}}},
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: 1}}},
				LoopID: 0,
			},
			{ // b3: exit
				Code:   []vm.Inst{{Op: vm.MOV, Rd: vm.RRV, Rs: 21}},
				Term:   tmpl.Term{Kind: tmpl.TermRet},
				LoopID: -1,
			},
		},
		Loops: []*tmpl.Loop{{
			ID: 0, ParentID: -1,
			HeaderSlot: tmpl.SlotRef{LoopID: -1, Slot: 0},
			NextSlot:   2, RecordSize: 3,
			HeadBlock: 1, LatchBlock: 2,
		}},
		Entry: 0,
	}
	withStencil(t, region)
	seg, stats, err := Stitch(region, mem, tbl, parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoopIterations != 3 {
		t.Errorf("iterations: %d", stats.LoopIterations)
	}
	got := execStitched(t, seg, nil)
	if got != 600 {
		t.Errorf("unrolled sum = %d, want 600", got)
	}
	// Fully unrolled: no backward branches.
	for pc, in := range seg.Code {
		switch in.Op {
		case vm.BR, vm.BEQZ, vm.BNEZ:
			if in.Target <= pc {
				t.Errorf("backward branch at %d", pc)
			}
		}
	}
}

// A constant switch template (CONST_BRANCH on an n-way branch).
func TestStitchConstSwitch(t *testing.T) {
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 4), Region: -1}
	mem := make([]int64, 64)
	const tbl = 8
	mem[tbl+0] = 7 // switch selector

	mkLeaf := func(v int64) *tmpl.Block {
		return &tmpl.Block{
			Code:   []vm.Inst{{Op: vm.LI, Rd: vm.RRV, Imm: v}},
			Term:   tmpl.Term{Kind: tmpl.TermRet},
			LoopID: -1,
		}
	}
	region := &tmpl.Region{
		Index: 0, Name: "t:r0", TableSize: 1,
		Blocks: []*tmpl.Block{
			{
				Term: tmpl.Term{Kind: tmpl.TermSwitch,
					ConstSlot: &tmpl.SlotRef{LoopID: -1, Slot: 0},
					Cases:     []int64{3, 7, 9},
					Succs:     []tmpl.Edge{{Block: 1}, {Block: 2}, {Block: 3}, {Block: 4}},
				},
				LoopID: -1,
			},
			mkLeaf(30), mkLeaf(70), mkLeaf(90), mkLeaf(-1),
		},
		Entry: 0,
	}
	withStencil(t, region)
	seg, _, err := Stitch(region, mem, tbl, parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := execStitched(t, seg, nil); got != 70 {
		t.Errorf("switch selected %d, want 70", got)
	}
	// Untaken cases are dead code.
	for _, in := range seg.Code {
		if in.Op == vm.LI && (in.Imm == 30 || in.Imm == 90 || in.Imm == -1) {
			t.Errorf("dead case stitched: %v", in)
		}
	}
}
