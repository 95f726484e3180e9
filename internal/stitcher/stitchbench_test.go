package stitcher

import (
	"strings"
	"testing"

	"dyncc/internal/stencil"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// benchRegion hand-builds a region shaped like the stitcher's typical
// workload: a preheader with a region-table hole, then an unrolled loop of
// `iters` linked records, each contributing a patched body copy. Record
// layout: slot 0 = per-iteration hole value, slot 1 = continue flag,
// slot 2 = next-record link; the terminal record's flag is 0.
func benchRegion(iters int) (*tmpl.Region, []int64, int64) {
	const (
		tbl     = 8
		recBase = 16
		recSize = 3
	)
	mem := make([]int64, recBase+recSize*(iters+1))
	mem[tbl+0] = 7       // preheader hole value
	mem[tbl+1] = recBase // loop header record
	for i := 0; i <= iters; i++ {
		r := recBase + recSize*i
		mem[r+0] = int64(3*i + 1)
		if i < iters {
			mem[r+1] = 1
		}
		mem[r+2] = int64(r + recSize)
	}
	region := &tmpl.Region{
		Index: 0,
		Name:  "bench:r0",
		Blocks: []*tmpl.Block{
			{ // preheader
				Code:   []vm.Inst{{Op: vm.ADDI, Rd: 21, Rs: 20}},
				Holes:  []tmpl.Hole{{Pc: 0, Slot: tmpl.SlotRef{LoopID: -1, Slot: 0}}},
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: 1}}},
				LoopID: -1,
			},
			{ // loop head: continue flag decides body vs region exit
				Code: []vm.Inst{{Op: vm.ADDI, Rd: 22, Rs: 22, Imm: 1}},
				Term: tmpl.Term{Kind: tmpl.TermBr,
					ConstSlot: &tmpl.SlotRef{LoopID: 0, Slot: 1},
					Succs:     []tmpl.Edge{{Block: 2}, {Block: -1, ExitPC: 9}}},
				LoopID: 0,
			},
			{ // body + latch: one hole patched per unrolled iteration
				Code: []vm.Inst{
					{Op: vm.ADDI, Rd: 21, Rs: 21},
					{Op: vm.XORI, Rd: 22, Rs: 21, Imm: 5},
				},
				Holes:  []tmpl.Hole{{Pc: 0, Slot: tmpl.SlotRef{LoopID: 0, Slot: 0}}},
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: 1}}},
				LoopID: 0,
			},
		},
		Loops: []*tmpl.Loop{{
			ID: 0, ParentID: -1,
			HeaderSlot: tmpl.SlotRef{LoopID: -1, Slot: 1},
			NextSlot:   2, RecordSize: recSize,
			HeadBlock: 1, LatchBlock: 2,
		}},
		Entry: 0,
	}
	return region, mem, tbl
}

// withStencil attaches the precompiled copy-and-patch form, as the
// `stencil` pipeline pass would.
func withStencil(tb testing.TB, region *tmpl.Region) {
	s, err := stencil.Build(region)
	if err != nil {
		tb.Fatal(err)
	}
	region.Stencil = s
}

// TestBenchRegionIdentity pins what the benchmark region stitches to: 32
// unrolled iterations and 33 patched holes (one preheader hole plus one
// per iteration).
func TestBenchRegionIdentity(t *testing.T) {
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 20), Region: -1}
	region, mem, tbl := benchRegion(32)
	withStencil(t, region)
	_, stats, err := Stitch(region, mem, tbl, parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoopIterations != 32 || stats.HolesPatched != 33 {
		t.Errorf("stitch did %d iterations, %d holes; want 32, 33",
			stats.LoopIterations, stats.HolesPatched)
	}
}

// TestStitchWithoutStencil: the stencil is the stitcher's only input
// form, so a region the `stencil` pass did not precompile is an error,
// for a full stitch and a dry one alike.
func TestStitchWithoutStencil(t *testing.T) {
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 20), Region: -1}
	region, mem, tbl := benchRegion(4)
	if _, _, err := Stitch(region, mem, tbl, parent, Options{}); err == nil ||
		!strings.Contains(err.Error(), "no stencil") {
		t.Errorf("Stitch without a stencil: err = %v", err)
	}
	if _, err := DryStitch(region, mem, tbl, Options{}); err == nil {
		t.Error("DryStitch without a stencil succeeded")
	}
}

// TestStitchStencilWarmZeroAllocs is the stitcher's allocation budget:
// emission on warm scratch (everything up to segment materialization) must
// not allocate at all. A private scratch stands in for the pool so GC
// clearing sync.Pool cannot flake the count.
func TestStitchStencilWarmZeroAllocs(t *testing.T) {
	region, mem, tbl := benchRegion(32)
	withStencil(t, region)
	sc := new(scratch)
	st := &sc.st
	emit := func() {
		st.begin(region, mem, tbl, Options{})
		if err := st.emit(); err != nil {
			t.Fatal(err)
		}
	}
	emit() // grow every buffer to its steady state
	if n := testing.AllocsPerRun(50, emit); n != 0 {
		t.Errorf("warm stencil emission allocates %.1f objects per stitch, want 0", n)
	}
}

// TestStitchAllocBudget is a full stitch's allocation budget: a warm
// stencil-path Stitch allocates only the finished segment (the segment,
// its fused code, its exec plan's header and three arrays): 6 objects
// (the region has no large constants).
func TestStitchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	region, mem, tbl := benchRegion(32)
	withStencil(t, region)
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 20), Region: -1}
	stitch := func() {
		if _, _, err := Stitch(region, mem, tbl, parent, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	stitch() // warm the pooled stitch and fusion scratch
	if n := testing.AllocsPerRun(100, stitch); n > 6 {
		t.Errorf("warm stencil stitch allocates %.1f objects, want at most 6", n)
	}
}

// BenchmarkStitchStencil times a full stitch of the 32-iteration loop
// region (emission + segment materialization).
func BenchmarkStitchStencil(b *testing.B) {
	region, mem, tbl := benchRegion(32)
	withStencil(b, region)
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 20), Region: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Stitch(region, mem, tbl, parent, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDryStitchStencil isolates emission (no segment built); warm,
// this is the allocation-free loop the zero-allocs test pins.
func BenchmarkDryStitchStencil(b *testing.B) {
	region, mem, tbl := benchRegion(32)
	withStencil(b, region)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DryStitch(region, mem, tbl, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// serveRegion hand-builds a region shaped like serving's median stitch
// (stitcher.insts_per_stitch is about 13): an entry block with two holes,
// one of them a multiply the stitcher strength-reduces, a constant branch
// the stitch resolves, and an arm with a load, a compare-branch pair and
// a third hole before the region exits back to the parent.
func serveRegion() (*tmpl.Region, []int64, int64) {
	const tbl = 8
	mem := make([]int64, 16)
	mem[tbl+0] = 7 // ADDI operand
	mem[tbl+1] = 8 // MULI operand: becomes a shift
	mem[tbl+2] = 1 // constant branch: take the fast arm
	mem[tbl+3] = 3 // compare bound
	region := &tmpl.Region{
		Index: 0,
		Name:  "serve:r0",
		Blocks: []*tmpl.Block{
			{ // entry: two patched immediates, then the constant branch
				Code: []vm.Inst{
					{Op: vm.ADDI, Rd: 21, Rs: 20},
					{Op: vm.LI, Rd: 25, Imm: 0},
					{Op: vm.MULI, Rd: 22, Rs: 21},
					{Op: vm.MOV, Rd: 23, Rs: 22},
				},
				Holes: []tmpl.Hole{
					{Pc: 0, Slot: tmpl.SlotRef{LoopID: -1, Slot: 0}},
					{Pc: 2, Slot: tmpl.SlotRef{LoopID: -1, Slot: 1}},
				},
				Term: tmpl.Term{Kind: tmpl.TermBr,
					ConstSlot: &tmpl.SlotRef{LoopID: -1, Slot: 2},
					Succs:     []tmpl.Edge{{Block: 1}, {Block: 2}}},
				LoopID: -1,
			},
			{ // fast arm: load, ALU over it, compare against a hole
				Code: []vm.Inst{
					{Op: vm.LD, Rd: 24, Rs: 23, Imm: 2},
					{Op: vm.ADD, Rd: 25, Rs: 24, Rt: 21},
					{Op: vm.SLTI, Rd: 26, Rs: 25},
				},
				Holes: []tmpl.Hole{{Pc: 2, Slot: tmpl.SlotRef{LoopID: -1, Slot: 3}}},
				Term: tmpl.Term{Kind: tmpl.TermBr, CondReg: 26,
					Succs: []tmpl.Edge{{Block: 3}, {Block: -1, ExitPC: 40}}},
				LoopID: -1,
			},
			{ // slow arm: resolved away
				Code: []vm.Inst{{Op: vm.MUL, Rd: 25, Rs: 22, Rt: 22}},
				Term: tmpl.Term{Kind: tmpl.TermJump,
					Succs: []tmpl.Edge{{Block: -1, ExitPC: 44}}},
				LoopID: -1,
			},
			{ // taken side: a multiply-add and a mask into the result
				Code: []vm.Inst{
					{Op: vm.MULI, Rd: 27, Rs: 25, Imm: 3},
					{Op: vm.ADD, Rd: vm.RRV, Rs: 27, Rt: 21},
					{Op: vm.ANDI, Rd: 28, Rs: vm.RRV, Imm: 255},
					{Op: vm.ADD, Rd: vm.RRV, Rs: vm.RRV, Rt: 28},
				},
				Term: tmpl.Term{Kind: tmpl.TermJump,
					Succs: []tmpl.Edge{{Block: -1, ExitPC: 52}}},
				LoopID: -1,
			},
		},
		Entry: 0,
	}
	return region, mem, tbl
}

// TestServeRegionIdentity pins the serve-shaped region's stitch to the
// serving median: 13 instructions, three holes, one resolved branch.
func TestServeRegionIdentity(t *testing.T) {
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 60), Region: -1}
	region, mem, tbl := serveRegion()
	withStencil(t, region)
	seg, stats, err := Stitch(region, mem, tbl, parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InstsStitched != 13 || stats.HolesPatched != 3 || stats.BranchesResolved != 1 {
		t.Errorf("stitch: %d insts, %d holes, %d branches resolved; want 13, 3, 1\n%s",
			stats.InstsStitched, stats.HolesPatched, stats.BranchesResolved, seg.Disasm())
	}
}

// BenchmarkStitchServeShape times a warm full stitch of the serve-shaped
// region: the per-miss cost in serving.
func BenchmarkStitchServeShape(b *testing.B) {
	region, mem, tbl := serveRegion()
	withStencil(b, region)
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 60), Region: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Stitch(region, mem, tbl, parent, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
