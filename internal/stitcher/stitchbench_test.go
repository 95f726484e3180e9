package stitcher

import (
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

// TestBenchRegionIdentity pins the benchmark's two subjects to byte
// identity: the hand-built loop region must stitch to the same segment on
// both paths (testgen covers compiler-produced regions; this covers the
// synthetic one the benchmarks time).
func TestBenchRegionIdentity(t *testing.T) {
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 20), Region: -1}

	interp, mem, tbl := benchRegion(32)
	iseg, istats, err := Stitch(interp, mem, tbl, parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sten, _, _ := benchRegion(32)
	withStencil(t, sten)
	sseg, sstats, err := Stitch(sten, mem, tbl, parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if istats.StencilPath || !sstats.StencilPath {
		t.Fatalf("path mix-up: interp=%v stencil=%v", istats.StencilPath, sstats.StencilPath)
	}
	if sstats.LoopIterations != 32 || sstats.HolesPatched != 33 {
		t.Errorf("stencil stitch did %d iterations, %d holes; want 32, 33",
			sstats.LoopIterations, sstats.HolesPatched)
	}
	if len(iseg.Code) != len(sseg.Code) {
		t.Fatalf("code length diverges: %d vs %d", len(iseg.Code), len(sseg.Code))
	}
	for i := range iseg.Code {
		if iseg.Code[i] != sseg.Code[i] {
			t.Fatalf("code[%d] diverges: %+v vs %+v", i, iseg.Code[i], sseg.Code[i])
		}
	}
	if len(iseg.Consts) != len(sseg.Consts) {
		t.Fatalf("const pool diverges: %v vs %v", iseg.Consts, sseg.Consts)
	}
}

// TestStitchStencilWarmZeroAllocs is the fast path's allocation budget:
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
// stencil-path Stitch allocates only the finished segment (fused code and
// its PCMap, the segment, its exec plan) and the returned stats, at most
// 10 objects.
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
	if n := testing.AllocsPerRun(100, stitch); n > 10 {
		t.Errorf("warm stencil stitch allocates %.1f objects, want at most 10", n)
	}
}

func benchStitch(b *testing.B, precompiled bool) {
	region, mem, tbl := benchRegion(32)
	if precompiled {
		withStencil(b, region)
	}
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 20), Region: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Stitch(region, mem, tbl, parent, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDryStitch(b *testing.B, precompiled bool) {
	region, mem, tbl := benchRegion(32)
	if precompiled {
		withStencil(b, region)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DryStitch(region, mem, tbl, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStitch times a full interpretive stitch of the 32-iteration
// loop region (emission + segment materialization).
func BenchmarkStitch(b *testing.B) { benchStitch(b, false) }

// BenchmarkStitchStencil times the same stitch on the copy-and-patch fast
// path.
func BenchmarkStitchStencil(b *testing.B) { benchStitch(b, true) }

// BenchmarkDryStitch isolates interpretive emission (no segment built).
func BenchmarkDryStitch(b *testing.B) { benchDryStitch(b, false) }

// BenchmarkDryStitchStencil isolates fast-path emission; warm, this is the
// allocation-free loop the zero-allocs test pins.
func BenchmarkDryStitchStencil(b *testing.B) { benchDryStitch(b, true) }
