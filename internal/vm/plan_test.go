package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randSegment draws a segment for the plan builder: random code, stitched
// or static attribution with tables shorter or longer than the code,
// region-entry markers and jump tables with out-of-range entries.
func randSegment(rng *rand.Rand) *Segment {
	code, opts := randFuseInput(rng)
	n := len(code)
	seg := &Segment{Name: "s", Code: code, Region: rng.Intn(3) - 1,
		Stitched: rng.Intn(3) == 0, RegionOf: opts.RegionOf, SetupOf: opts.SetupOf}
	if rng.Intn(2) == 0 {
		seg.RegionEntry = make([]int32, rng.Intn(n+3))
		for i := range seg.RegionEntry {
			seg.RegionEntry[i] = -1
			if rng.Intn(5) == 0 {
				seg.RegionEntry[i] = int32(rng.Intn(3))
			}
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		tbl := make([]int, rng.Intn(5))
		for i := range tbl {
			tbl[i] = rng.Intn(n+5) - 2
		}
		seg.JumpTables = append(seg.JumpTables, tbl)
	}
	return seg
}

// planDiff compares a plan with the per-slice reference
// (plan_ref_test.go) for seg: every block and every per-pc value. It
// returns the first difference, or "" when none.
func planDiff(seg *Segment, got *execPlan) string {
	want := refBuildPlan(seg)
	if !reflect.DeepEqual(got.blocks, want.blocks) {
		return fmt.Sprintf("blocks differ:\n got %+v\nwant %+v", got.blocks, want.blocks)
	}
	if len(got.at) != len(seg.Code) || len(got.sum) != len(seg.Code)+1 {
		return fmt.Sprintf("plan sized %d/%d for %d insts", len(got.at), len(got.sum), len(seg.Code))
	}
	for pc, a := range got.at {
		w := pcPlan{block: want.blockAt[pc], region: want.regionAt[pc], entry: want.entryAt[pc],
			cost: want.costAt[pc], insts: want.instsAt[pc], setup: want.setupAt[pc]}
		if a != w {
			return fmt.Sprintf("pc %d: got %+v, want %+v", pc, a, w)
		}
	}
	for pc, s := range got.sum {
		w := planSum{want.costTo[pc], want.xtraTo[pc], want.instsTo[pc]}
		if s != w {
			return fmt.Sprintf("prefix %d: got %+v, want %+v", pc, s, w)
		}
	}
	return ""
}

// TestBuildPlanMatchesReference pins the flat plan to the per-slice
// reference (plan_ref_test.go): every block and every per-pc value.
func TestBuildPlanMatchesReference(t *testing.T) {
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < iters; i++ {
		seg := randSegment(rng)
		if msg := planDiff(seg, buildPlan(seg)); msg != "" {
			t.Fatalf("segment %d: %s", i, msg)
		}
	}
}

// planSink keeps the measured calls' results live.
var planSink *execPlan

func benchBuildPlan(b *testing.B, seg *Segment) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		planSink = buildPlan(seg)
	}
}

// BenchmarkBuildPlan times exec-plan derivation for BenchmarkFuse's bodies,
// fused as the stitcher and codegen install them.
func BenchmarkBuildPlan(b *testing.B) {
	b.Run("stitched", func(b *testing.B) {
		fr := Fuse(stitchedBody(), FuseOptions{})
		benchBuildPlan(b, &Segment{Name: "r.stitched", Code: fr.Code, Region: 0, Stitched: true})
	})
	b.Run("static", func(b *testing.B) {
		fr := Fuse(staticBody())
		benchBuildPlan(b, &Segment{Name: "f", Code: fr.Code, Region: -1,
			RegionOf: fr.RegionOf, SetupOf: fr.SetupOf})
	})
}
