package stitcher

import (
	"testing"
	"testing/quick"

	"dyncc/internal/stencil"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// execSnippet runs a code fragment with r20 preloaded and returns r21.
func execSnippet(t *testing.T, code []vm.Inst, r20 int64, consts []int64) int64 {
	t.Helper()
	code = append(code, vm.Inst{Op: vm.MOV, Rd: vm.RRV, Rs: 21}, vm.Inst{Op: vm.RET})
	prog := &vm.Program{
		Segs:      []*vm.Segment{{Name: "t", Code: code, Consts: consts, Region: -1}},
		FuncIndex: map[string]int{"t": 0},
	}
	m := vm.NewMachine(prog, 1<<12)
	m.Regs[20] = r20
	v, err := m.Call("t")
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return v
}

// holePatch returns the precompiled patch the stencil builder makes for a
// one-instruction region whose only instruction is a hole.
func holePatch(in vm.Inst) *tmpl.Patch {
	s, err := stencil.Build(&tmpl.Region{
		Name: "t:r0",
		Blocks: []*tmpl.Block{{
			Code:   []vm.Inst{in},
			Holes:  []tmpl.Hole{{Pc: 0, Slot: tmpl.SlotRef{LoopID: -1, Slot: 0}}},
			Term:   tmpl.Term{Kind: tmpl.TermRet},
			LoopID: -1,
		}},
	})
	if err != nil {
		panic(err)
	}
	return &s.Blocks[0].Patches[0]
}

// patchOne runs the stitcher's patch logic on a single instruction.
func patchOne(in vm.Inst, v int64, opts Options) ([]vm.Inst, []int64, *Stats) {
	st := &stitch{opts: opts, cindex: map[int64]int{}, stats: &Stats{}}
	st.patch(holePatch(in), v)
	return st.out, st.consts, st.stats
}

// Property: strength-reduced multiply sequences compute exactly rs * v.
func TestMulStrengthReductionProperty(t *testing.T) {
	check := func(x int64, v int32) bool {
		code, consts, _ := patchOne(vm.Inst{Op: vm.MULI, Rd: 21, Rs: 20}, int64(v), Options{})
		got := execSnippet(t, code, x, consts)
		return got == x*int64(v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Deterministic corners.
	for _, v := range []int64{0, 1, -1, 2, 3, 5, 7, 8, 9, 15, 17, 31, 33, 97, 100,
		255, 256, 257, 1000, -8, -7, 65535, 65536, 1 << 30} {
		code, consts, _ := patchOne(vm.Inst{Op: vm.MULI, Rd: 21, Rs: 20}, v, Options{})
		for _, x := range []int64{0, 1, -1, 123456, -987654} {
			if got := execSnippet(t, code, x, consts); got != x*v {
				t.Errorf("mul by %d: %d * %d = %d, want %d", v, x, v, got, x*v)
			}
		}
	}
}

func TestUDivUModPow2Reduction(t *testing.T) {
	for _, v := range []int64{1, 2, 4, 32, 16384, 1 << 20} {
		code, consts, st := patchOne(vm.Inst{Op: vm.UDIVI, Rd: 21, Rs: 20}, v, Options{})
		if v > 1 && st.StrengthReductions == 0 {
			t.Errorf("udiv by %d not reduced", v)
		}
		for _, x := range []int64{0, 5, 123456789, -1} {
			want := int64(uint64(x) / uint64(v))
			if got := execSnippet(t, code, x, consts); got != want {
				t.Errorf("udiv %d/%d = %d, want %d", x, v, got, want)
			}
		}
		code, consts, _ = patchOne(vm.Inst{Op: vm.UMODI, Rd: 21, Rs: 20}, v, Options{})
		for _, x := range []int64{0, 5, 123456789, -1} {
			want := int64(uint64(x) % uint64(v))
			if got := execSnippet(t, code, x, consts); got != want {
				t.Errorf("umod %d%%%d = %d, want %d", x, v, got, want)
			}
		}
	}
	// Non-power-of-two must not be reduced, still correct.
	code, consts, st := patchOne(vm.Inst{Op: vm.UDIVI, Rd: 21, Rs: 20}, 7, Options{})
	if st.StrengthReductions != 0 {
		t.Error("udiv by 7 wrongly reduced")
	}
	if got := execSnippet(t, code, 100, consts); got != 14 {
		t.Errorf("100/7 = %d", got)
	}
}

func TestNoStrengthReductionOption(t *testing.T) {
	code, _, st := patchOne(vm.Inst{Op: vm.MULI, Rd: 21, Rs: 20}, 8, Options{NoStrengthReduction: true})
	if st.StrengthReductions != 0 {
		t.Error("reduction applied despite option")
	}
	if len(code) != 1 || code[0].Op != vm.MULI || code[0].Imm != 8 {
		t.Errorf("expected plain MULI, got %v", code)
	}
}

func TestLargeConstantsGoToLinearizedTable(t *testing.T) {
	big := int64(1) << 40
	// LI of an oversized value becomes an LDC.
	code, consts, _ := patchOne(vm.Inst{Op: vm.LI, Rd: 21}, big, Options{})
	if len(code) != 1 || code[0].Op != vm.LDC {
		t.Fatalf("expected LDC, got %v", code)
	}
	if consts[code[0].Imm] != big {
		t.Errorf("table entry: %v", consts)
	}
	if got := execSnippet(t, code, 0, consts); got != big {
		t.Errorf("loaded %d", got)
	}
	// An oversized ALU immediate is rewritten via the scratch register.
	code, consts, _ = patchOne(vm.Inst{Op: vm.ADDI, Rd: 21, Rs: 20}, big, Options{})
	if got := execSnippet(t, code, 5, consts); got != big+5 {
		t.Errorf("add big: %d", got)
	}
	// Interning: the same constant is stored once.
	st := &stitch{opts: Options{}, cindex: map[int64]int{}, stats: &Stats{}}
	st.patch(holePatch(vm.Inst{Op: vm.LI, Rd: 21}), big)
	st.patch(holePatch(vm.Inst{Op: vm.LI, Rd: 22}), big)
	if len(st.consts) != 1 {
		t.Errorf("constant not interned: %v", st.consts)
	}
}

func TestSmallImmediatesPatchInPlace(t *testing.T) {
	code, _, _ := patchOne(vm.Inst{Op: vm.ANDI, Rd: 21, Rs: 20}, 511, Options{})
	if len(code) != 1 || code[0].Op != vm.ANDI || code[0].Imm != 511 {
		t.Errorf("expected patched ANDI, got %v", code)
	}
}

func TestCSDTerms(t *testing.T) {
	check := func(v int64) bool {
		terms, n, complete := csdTerms(v)
		if !complete {
			return true // incomplete decompositions are rejected by emitCSD
		}
		var sum int64
		for _, tm := range terms[:n] {
			term := int64(1) << uint(tm.shift)
			if tm.neg {
				sum -= term
			} else {
				sum += term
			}
		}
		return sum == v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Stitching a minimal template: one block, one hole, a constant branch.
func TestStitchMinimalRegion(t *testing.T) {
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 20), Region: -1}
	mem := make([]int64, 64)
	const tbl = 8
	mem[tbl+0] = 7 // hole value
	mem[tbl+1] = 1 // branch condition: true

	region := &tmpl.Region{
		Index: 0,
		Name:  "t:r0",
		Blocks: []*tmpl.Block{
			{
				Code:  []vm.Inst{{Op: vm.ADDI, Rd: 21, Rs: 20}},
				Holes: []tmpl.Hole{{Pc: 0, Slot: tmpl.SlotRef{LoopID: -1, Slot: 0}}},
				Term: tmpl.Term{Kind: tmpl.TermBr,
					ConstSlot: &tmpl.SlotRef{LoopID: -1, Slot: 1},
					Succs:     []tmpl.Edge{{Block: 1}, {Block: 2}}},
				LoopID: -1,
			},
			{ // taken path
				Code:   []vm.Inst{{Op: vm.ADDI, Rd: 21, Rs: 21, Imm: 100}},
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: -1, ExitPC: 9}}},
				LoopID: -1,
			},
			{ // dead path
				Code:   []vm.Inst{{Op: vm.ADDI, Rd: 21, Rs: 21, Imm: 999}},
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: -1, ExitPC: 9}}},
				LoopID: -1,
			},
		},
		Entry: 0,
	}
	withStencil(t, region)
	seg, stats, err := Stitch(region, mem, tbl, parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BranchesResolved != 1 {
		t.Errorf("branches resolved: %d", stats.BranchesResolved)
	}
	// Dead path must not be present: no ADDI 999.
	for _, in := range seg.Code {
		if in.Op == vm.ADDI && in.Imm == 999 {
			t.Error("dead path was stitched")
		}
	}
	// Execute: r21 = r20 + 7 + 100, then XFER to parent pc 9.
	parent.Code[9] = vm.Inst{Op: vm.MOV, Rd: vm.RRV, Rs: 21}
	parent.Code[10] = vm.Inst{Op: vm.RET}
	seg.Parent = parent
	prog := &vm.Program{Segs: []*vm.Segment{parent}, FuncIndex: map[string]int{"f": 0}, NumRegions: 1}
	m := vm.NewMachine(prog, 1<<12)
	copy(m.Mem, mem)
	m.Regs[20] = 5
	// Enter the stitched segment directly.
	parent.Code[0] = vm.Inst{Op: vm.DYNENTER, Imm: 0}
	m.OnDynEnter = func(m *vm.Machine, region int) (*vm.Segment, error) {
		return seg, nil
	}
	got, err := m.Call("f")
	if err != nil {
		t.Fatal(err)
	}
	if got != 5+7+100 {
		t.Errorf("stitched exec: %d", got)
	}
}
