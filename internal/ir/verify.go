package ir

import "fmt"

// Verify checks structural invariants of the function and returns the first
// violation found, or nil. In SSA form it additionally checks single
// assignment and that φ argument counts match predecessor counts.
func Verify(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	// Block membership by ID with a pointer check (a removed block keeps
	// its ID), and SSA definitions as a bitset: the first definition of a
	// redefined value is looked up again only to report the error.
	member := make([]*Block, f.numBlocks)
	for _, b := range f.Blocks {
		if uint(b.ID) < uint(len(member)) {
			member[b.ID] = b
		}
	}
	isMember := func(b *Block) bool { return uint(b.ID) < uint(len(member)) && member[b.ID] == b }
	var defs ValueSet
	if f.SSA {
		defs = NewValueSet(f.NumValues())
	}
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
			if in.Op == OpPhi {
				if len(in.Args) != len(b.Preds) {
					return fmt.Errorf("%s b%d: phi has %d args, %d preds",
						f.Name, b.ID, len(in.Args), len(b.Preds))
				}
				// φs must be at the block head.
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					return fmt.Errorf("%s b%d: phi not at block head", f.Name, b.ID)
				}
			}
			for _, tg := range in.Targets {
				if !isMember(tg) {
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
					if defs.Has(in.Dst) {
						return fmt.Errorf("%s b%d: v%d redefined (first at %s)",
							f.Name, b.ID, in.Dst, firstDef(f, in.Dst))
					}
					defs.Add(in.Dst)
				}
			}
			for _, a := range in.Args {
				if a == 0 || int(a) >= f.NumValues() {
					return fmt.Errorf("%s b%d: bad arg v%d in %s", f.Name, b.ID, a, in)
				}
			}
		}
		for _, p := range b.Preds {
			if !isMember(p) {
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

// firstDef returns the first instruction, in block order, defining v.
func firstDef(f *Func, v Value) *Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst == v {
				return in
			}
		}
	}
	return nil
}
