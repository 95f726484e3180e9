package stencil

import (
	"strings"
	"testing"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// loopRegion is a well-formed region with one unrolled loop: an entry
// block jumps to the loop head (block 1), which either runs the body
// (block 2, one hole, back edge to the head) or exits.
func loopRegion() *tmpl.Region {
	return &tmpl.Region{
		Name: "t:r0",
		Blocks: []*tmpl.Block{
			{
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: 1}}},
				LoopID: -1,
			},
			{
				Term: tmpl.Term{Kind: tmpl.TermBr,
					ConstSlot: &tmpl.SlotRef{LoopID: 0, Slot: 0},
					Succs:     []tmpl.Edge{{Block: 2}, {Block: -1, ExitPC: 3}}},
				LoopID: 0,
			},
			{
				Code:   []vm.Inst{{Op: vm.ADDI, Rd: 21, Rs: 21}},
				Holes:  []tmpl.Hole{{Pc: 0, Slot: tmpl.SlotRef{LoopID: 0, Slot: 1}}},
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: 1}}},
				LoopID: 0,
			},
		},
		Loops: []*tmpl.Loop{{
			ID: 0, ParentID: -1,
			HeaderSlot: tmpl.SlotRef{LoopID: -1, Slot: 0},
			NextSlot:   2, RecordSize: 3,
			HeadBlock: 1, LatchBlock: 2,
		}},
	}
}

// TestBuildRejects: every malformed template structure the builder
// checks is an error naming the region, and Precompile returns it.
func TestBuildRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(r *tmpl.Region)
		want   string
	}{
		{"negative loop id", func(r *tmpl.Region) { r.Loops[0].ID = -2 }, "negative loop id"},
		{"duplicate loop id", func(r *tmpl.Region) {
			dup := *r.Loops[0]
			r.Loops = append(r.Loops, &dup)
		}, "duplicate loop id"},
		{"loop head out of range", func(r *tmpl.Region) { r.Loops[0].HeadBlock = 3 }, "head block 3 out of range"},
		{"unknown loop", func(r *tmpl.Region) { r.Blocks[2].LoopID = 5 }, "unknown loop 5"},
		{"cyclic parent chain", func(r *tmpl.Region) { r.Loops[0].ParentID = 0 }, "cyclic loop parent chain"},
		{"entry out of range", func(r *tmpl.Region) { r.Entry = 3 }, "entry block 3 out of range"},
		{"hole offset out of range", func(r *tmpl.Region) { r.Blocks[2].Holes[0].Pc = 1 }, "hole offset 1 out of range"},
		{"terminator/successor mismatch", func(r *tmpl.Region) {
			r.Blocks[1].Term.Succs = r.Blocks[1].Term.Succs[:1]
		}, "has 1 successors, needs 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := loopRegion()
			c.mutate(r)
			if _, err := Build(r); err == nil || !strings.Contains(err.Error(), c.want) ||
				!strings.Contains(err.Error(), "region t:r0") {
				t.Errorf("Build: err = %v, want one naming region t:r0 and %q", err, c.want)
			}
			// Precompile skips regions without template blocks, lowers
			// the good region before the bad one and stops at the
			// rejection.
			good := loopRegion()
			n, err := Precompile([]*tmpl.Region{nil, {Name: "t:r1"}, good, r})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Precompile: err = %v, want %q", err, c.want)
			}
			if n != 1 || good.Stencil == nil || r.Stencil != nil {
				t.Errorf("Precompile lowered %d regions (good %v, bad %v)", n, good.Stencil != nil, r.Stencil != nil)
			}
		})
	}
}
