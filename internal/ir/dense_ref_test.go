package ir_test

// Map-based reference implementations of the passes that now keep their
// per-value and per-block state in dense tables: Verify, the pre-SSA
// live-in analysis and BuildDomTree, exactly as they were written before
// the change. TestDenseMatchesReference runs both over a seeded program
// corpus and requires identical results.

import (
	"fmt"

	"dyncc/internal/ir"
)

func refVerify(f *ir.Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	blockSet := map[*ir.Block]bool{}
	for _, b := range f.Blocks {
		blockSet[b] = true
	}
	defs := map[ir.Value]*ir.Instr{}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s b%d: empty block", f.Name, b.ID)
		}
		t := b.Term()
		if t == nil {
			return fmt.Errorf("%s b%d: missing terminator", f.Name, b.ID)
		}
		for i, in := range b.Instrs {
			if in.Blk != b {
				return fmt.Errorf("%s b%d: instr %d has wrong owner", f.Name, b.ID, i)
			}
			if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
				return fmt.Errorf("%s b%d: terminator %s not last", f.Name, b.ID, in.Op)
			}
			if in.Op == ir.OpPhi {
				if len(in.Args) != len(b.Preds) {
					return fmt.Errorf("%s b%d: phi has %d args, %d preds",
						f.Name, b.ID, len(in.Args), len(b.Preds))
				}
				if i > 0 && b.Instrs[i-1].Op != ir.OpPhi {
					return fmt.Errorf("%s b%d: phi not at block head", f.Name, b.ID)
				}
			}
			for _, tg := range in.Targets {
				if !blockSet[tg] {
					return fmt.Errorf("%s b%d: branch to removed block b%d", f.Name, b.ID, tg.ID)
				}
				found := false
				for _, p := range tg.Preds {
					if p == b {
						found = true
					}
				}
				if !found {
					return fmt.Errorf("%s b%d: successor b%d lacks pred edge", f.Name, b.ID, tg.ID)
				}
			}
			if in.Dst != 0 {
				if int(in.Dst) >= f.NumValues() {
					return fmt.Errorf("%s b%d: dst v%d out of range", f.Name, b.ID, in.Dst)
				}
				if f.SSA {
					if prev, ok := defs[in.Dst]; ok {
						return fmt.Errorf("%s b%d: v%d redefined (first at %s)",
							f.Name, b.ID, in.Dst, prev)
					}
					defs[in.Dst] = in
				}
			}
			for _, a := range in.Args {
				if a == 0 || int(a) >= f.NumValues() {
					return fmt.Errorf("%s b%d: bad arg v%d in %s", f.Name, b.ID, a, in)
				}
			}
		}
		for _, p := range b.Preds {
			if !blockSet[p] {
				return fmt.Errorf("%s b%d: stale pred b%d", f.Name, b.ID, p.ID)
			}
			ok := false
			for _, s := range p.Succs() {
				if s == b {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("%s b%d: pred b%d has no edge here", f.Name, b.ID, p.ID)
			}
		}
	}
	return nil
}

// refBlockLiveIn is the map-of-maps pre-SSA live-in analysis.
func refBlockLiveIn(f *ir.Func) map[*ir.Block]map[ir.Value]bool {
	use := map[*ir.Block]map[ir.Value]bool{}
	def := map[*ir.Block]map[ir.Value]bool{}
	for _, b := range f.Blocks {
		u, d := map[ir.Value]bool{}, map[ir.Value]bool{}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a != 0 && !d[a] {
					u[a] = true
				}
			}
			if in.Dst != 0 {
				d[in.Dst] = true
			}
		}
		use[b], def[b] = u, d
	}
	liveIn := map[*ir.Block]map[ir.Value]bool{}
	for _, b := range f.Blocks {
		liveIn[b] = map[ir.Value]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			in := liveIn[b]
			for _, s := range b.Succs() {
				for v := range liveIn[s] {
					if !def[b][v] && !in[v] {
						in[v] = true
						changed = true
					}
				}
			}
			for v := range use[b] {
				if !in[v] {
					in[v] = true
					changed = true
				}
			}
		}
	}
	return liveIn
}

// refDomTree is the map-keyed dominator tree.
type refDomTree struct {
	Idom     map[*ir.Block]*ir.Block
	Children map[*ir.Block][]*ir.Block
	Frontier map[*ir.Block][]*ir.Block
}

func refBuildDomTree(f *ir.Func) *refDomTree {
	rpo := f.ReversePostorder()
	idx := make(map[*ir.Block]int, len(rpo))
	for i, b := range rpo {
		idx[b] = i
	}
	idom := make(map[*ir.Block]*ir.Block, len(rpo))
	entry := f.Entry()
	idom[entry] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for idx[a] > idx[b] {
				a = idom[a]
			}
			for idx[b] > idx[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[entry] = nil

	t := &refDomTree{
		Idom:     idom,
		Children: map[*ir.Block][]*ir.Block{},
		Frontier: map[*ir.Block][]*ir.Block{},
	}
	for _, b := range rpo {
		if d := idom[b]; d != nil {
			t.Children[d] = append(t.Children[d], b)
		}
	}
	addFrontier := func(b, f *ir.Block) {
		for _, x := range t.Frontier[b] {
			if x == f {
				return
			}
		}
		t.Frontier[b] = append(t.Frontier[b], f)
	}
	for _, b := range rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if _, ok := idx[p]; !ok {
				continue
			}
			runner := p
			for runner != nil && runner != idom[b] {
				addFrontier(runner, b)
				runner = idom[runner]
			}
		}
	}
	return t
}
