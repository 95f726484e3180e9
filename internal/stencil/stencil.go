// Package stencil precompiles a region's machine-code templates into their
// copy-and-patch form (tmpl.Stencil): flat block bodies with sorted patch
// tables, per-edge loop-transition plans, and integer-coded memoization
// chains. It runs once per compilation, as the `stencil` pipeline pass, so
// every stitch of the region afterwards is a memcpy plus a patch loop
// instead of a walk over the directive structure.
//
// The builder is strict: a region whose template structure it cannot
// prove well-formed (bad or duplicate loop ids, out-of-range loop heads,
// entries or hole offsets, unknown loops, loops entered away from their
// head block, cyclic loop parent chains, terminator/successor mismatches)
// is rejected with an error naming the region. The stencil is the only
// form the stitcher consumes, so a rejection fails the compilation.
package stencil

import (
	"fmt"
	"sort"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// Precompile builds stencils for every region that has template blocks
// (static placeholder regions have none) and returns how many regions were
// lowered. The first region the builder rejects fails the whole call: no
// region is left to stitch without a stencil.
func Precompile(regions []*tmpl.Region) (int, error) {
	n := 0
	for _, r := range regions {
		if r == nil || len(r.Blocks) == 0 {
			continue
		}
		s, err := Build(r)
		if err != nil {
			return n, err
		}
		r.Stencil = s
		n++
	}
	return n, nil
}

// Build lowers one region into its stencil form without attaching it. A
// rejection's error names the region.
func Build(r *tmpl.Region) (*tmpl.Stencil, error) {
	s, err := build(r)
	if err != nil {
		return nil, fmt.Errorf("stencil: region %s: %w", r.Name, err)
	}
	return s, nil
}

func build(r *tmpl.Region) (*tmpl.Stencil, error) {
	b := &builder{r: r}
	if err := b.index(); err != nil {
		return nil, err
	}
	if r.Entry < 0 || r.Entry >= len(r.Blocks) {
		return nil, fmt.Errorf("entry block %d out of range", r.Entry)
	}
	s := &tmpl.Stencil{
		Blocks:       make([]tmpl.StencilBlock, len(r.Blocks)),
		Entry:        int32(r.Entry),
		NumLoopSlots: b.nSlots,
		SegName:      r.Name + tmpl.StitchedSuffix,
	}
	for bi := range r.Blocks {
		if err := b.block(bi, &s.Blocks[bi]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

type builder struct {
	r        *tmpl.Region
	loopByID []*tmpl.Loop
	nSlots   int
	chains   [][]int // per block: enclosing-loop ids, innermost first
}

// index validates the loop table and precomputes per-block loop chains.
func (b *builder) index() error {
	r := b.r
	maxID := -1
	for _, l := range r.Loops {
		if l.ID < 0 {
			return fmt.Errorf("negative loop id %d", l.ID)
		}
		if l.ID > maxID {
			maxID = l.ID
		}
	}
	b.nSlots = maxID + 1
	b.loopByID = make([]*tmpl.Loop, b.nSlots)
	for _, l := range r.Loops {
		if b.loopByID[l.ID] != nil {
			return fmt.Errorf("duplicate loop id %d", l.ID)
		}
		if l.HeadBlock < 0 || l.HeadBlock >= len(r.Blocks) {
			return fmt.Errorf("loop %d head block %d out of range", l.ID, l.HeadBlock)
		}
		b.loopByID[l.ID] = l
	}
	b.chains = make([][]int, len(r.Blocks))
	for bi, bk := range r.Blocks {
		var ids []int
		id := bk.LoopID
		for id >= 0 {
			if id >= b.nSlots || b.loopByID[id] == nil {
				return fmt.Errorf("block %d references unknown loop %d", bi, id)
			}
			if len(ids) > len(r.Loops) {
				return fmt.Errorf("cyclic loop parent chain at block %d", bi)
			}
			ids = append(ids, id)
			id = b.loopByID[id].ParentID
		}
		b.chains[bi] = ids
	}
	return nil
}

// block lowers one template block: body, patch table, memo chain,
// terminator plan.
func (b *builder) block(bi int, out *tmpl.StencilBlock) error {
	bk := b.r.Blocks[bi]
	out.Body = bk.Code

	// Patch table: sorted by Pc; on duplicate offsets the last declared
	// hole wins.
	if len(bk.Holes) > 0 {
		ps := make([]tmpl.Patch, 0, len(bk.Holes))
		for _, h := range bk.Holes {
			if h.Pc < 0 || h.Pc >= len(bk.Code) {
				return fmt.Errorf("block %d hole offset %d out of range", bi, h.Pc)
			}
			in := bk.Code[h.Pc]
			p := tmpl.Patch{
				Pc:   int32(h.Pc),
				Loop: int32(h.Slot.LoopID),
				Slot: int32(h.Slot.Slot),
				Inst: in,
			}
			switch in.Op {
			case vm.LDC:
				p.Kind = tmpl.PatchLDC
			case vm.LI:
				p.Kind = tmpl.PatchLI
			default:
				p.Kind = tmpl.PatchALU
				p.RegOp = vm.ImmToRegForm(in.Op)
			}
			ps = append(ps, p)
		}
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].Pc < ps[j].Pc })
		w := 0
		for i := range ps {
			if i+1 < len(ps) && ps[i+1].Pc == ps[i].Pc {
				continue // stable sort kept declaration order: keep the last
			}
			ps[w] = ps[i]
			w++
		}
		out.Patches = ps[:w]
	}

	// Memo chain: enclosing loop ids, ascending.
	if chain := b.chains[bi]; len(chain) > 0 {
		ids := make([]int, len(chain))
		copy(ids, chain)
		sort.Ints(ids)
		out.Chain = make([]int32, len(ids))
		for i, id := range ids {
			out.Chain[i] = int32(id)
		}
	}

	return b.term(bi, bk, out)
}

// succCount returns how many successor edges a terminator must carry.
func succCount(t *tmpl.Term) int {
	switch t.Kind {
	case tmpl.TermRet:
		return 0
	case tmpl.TermJump:
		return 1
	case tmpl.TermBr:
		return 2
	case tmpl.TermSwitch:
		return len(t.Cases) + 1
	}
	return -1
}

func (b *builder) term(bi int, bk *tmpl.Block, out *tmpl.StencilBlock) error {
	t := &bk.Term
	n := succCount(t)
	if n < 0 {
		return fmt.Errorf("block %d has unknown terminator kind %d", bi, t.Kind)
	}
	if len(t.Succs) < n {
		return fmt.Errorf("block %d terminator has %d successors, needs %d", bi, len(t.Succs), n)
	}
	st := tmpl.StencilTerm{Kind: t.Kind, CondReg: t.CondReg, Cases: t.Cases}
	if t.ConstSlot != nil {
		st.HasConst = true
		st.ConstLoop = int32(t.ConstSlot.LoopID)
		st.ConstSlot = int32(t.ConstSlot.Slot)
	} else if t.Kind == tmpl.TermSwitch {
		return fmt.Errorf("block %d switch without a constant slot", bi)
	}
	if n > 0 {
		st.Edges = make([]tmpl.EdgePlan, n)
		for i := 0; i < n; i++ {
			e, err := b.edge(bi, t.Succs[i])
			if err != nil {
				return err
			}
			st.Edges[i] = e
		}
	}
	out.Term = st
	return nil
}

// edge precomputes the loop-record transition for following one successor
// edge: which loops are entered (outermost-first, reading header slots)
// and which active records advance along their next link (back edges).
// These are pure functions of the (from, to) block pair, which is what
// lets the stitcher skip chain derivation entirely.
func (b *builder) edge(from int, e tmpl.Edge) (tmpl.EdgePlan, error) {
	if e.Block < 0 {
		return tmpl.EdgePlan{Block: -1, ExitPC: int32(e.ExitPC)}, nil
	}
	if e.Block >= len(b.r.Blocks) {
		return tmpl.EdgePlan{}, fmt.Errorf("block %d edge to out-of-range block %d", from, e.Block)
	}
	p := tmpl.EdgePlan{Block: int32(e.Block)}
	fromChain := b.chains[from]
	toChain := b.chains[e.Block]
	// Entering loops: collected in chain (innermost-first) order, then
	// reversed so parent records resolve before their children's header
	// slots are read.
	var entering []int
	for _, id := range toChain {
		if !chainHas(fromChain, id) {
			entering = append(entering, id)
		}
	}
	for i := len(entering) - 1; i >= 0; i-- {
		l := b.loopByID[entering[i]]
		if l.HeadBlock != e.Block {
			return tmpl.EdgePlan{}, fmt.Errorf("loop %d entered at non-head block %d", l.ID, e.Block)
		}
		p.Enter = append(p.Enter, tmpl.EnterStep{
			Loop:    int32(l.ID),
			HdrLoop: int32(l.HeaderSlot.LoopID),
			HdrSlot: int32(l.HeaderSlot.Slot),
		})
	}
	// Back edges: loops whose head is the target and that were already
	// active advance to their next record.
	for _, id := range toChain {
		l := b.loopByID[id]
		if l.HeadBlock == e.Block && chainHas(fromChain, id) {
			p.Advance = append(p.Advance, tmpl.AdvanceStep{
				Loop:     int32(id),
				NextSlot: int32(l.NextSlot),
			})
		}
	}
	return p, nil
}

func chainHas(chain []int, id int) bool {
	for _, c := range chain {
		if c == id {
			return true
		}
	}
	return false
}
