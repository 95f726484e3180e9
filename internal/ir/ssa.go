package ir

// SSA construction (Cytron et al.: φ insertion at iterated dominance
// frontiers, then renaming along the dominator tree) and destruction
// (two-stage copy insertion, swap- and lost-copy-safe).

import "slices"

// BuildSSA converts f from multiply-assigned virtual registers into SSA
// form (pruned: φs are only inserted where the variable is live). It also
// resolves each region's annotated constant/key variables to the SSA values
// reaching the region entry.
func BuildSSA(f *Func) {
	if f.SSA {
		return
	}
	f.RemoveUnreachable()
	dt := BuildDomTree(f)
	live := ComputeLiveness(f, nil)
	nvars := f.NumValues()

	// Definition sites per variable, in block order, flattened: siteEnd
	// first holds a prefix sum of counts (v's first slot at siteEnd[v]);
	// filling advances each entry to v's end, after which the sites of v
	// are sites[siteEnd[v-1]:siteEnd[v]].
	siteEnd := make([]int32, nvars+1)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				siteEnd[in.Dst+1]++
			}
		}
	}
	for v := 1; v <= nvars; v++ {
		siteEnd[v] += siteEnd[v-1]
	}
	sites := make([]*Block, siteEnd[nvars])
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				sites[siteEnd[in.Dst]] = b
				siteEnd[in.Dst]++
			}
		}
	}

	// Insert φ nodes at iterated dominance frontiers (pruned by liveness:
	// without pruning, every switch-arm temporary grows a dead φ web
	// around enclosing loop heads). hasPhi[id] is the last variable that
	// was given, or denied, a φ at block id.
	hasPhi := make([]Value, f.numBlocks)
	ndefs := int(siteEnd[nvars])
	var work []*Block
	for v := Value(1); int(v) < nvars; v++ {
		work = append(work[:0], sites[siteEnd[v-1]:siteEnd[v]]...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, df := range dt.Frontier[b.ID] {
				if hasPhi[df.ID] == v {
					continue
				}
				hasPhi[df.ID] = v
				if !live.In(df).Has(v) {
					// The variable is dead here; a φ would only feed
					// further dead φs. Still propagate the def site so
					// deeper frontiers are considered.
					work = append(work, df)
					continue
				}
				phi := &Instr{
					Op:   OpPhi,
					Dst:  v,
					Args: make([]Value, len(df.Preds)),
					Typ:  f.TypeOf(v),
				}
				for i := range phi.Args {
					phi.Args[i] = v
				}
				df.InsertBefore(0, phi)
				ndefs++
				work = append(work, df)
			}
		}
	}

	// Rename. cur[v] is the SSA value of variable v reaching the block
	// being renamed (0: none yet); undo logs each overwrite so leaving a
	// dominator subtree restores its parent's view.
	cur := make([]Value, nvars)
	f.vals = slices.Grow(f.vals, ndefs) // renaming gives every definition a new value
	type undo struct{ v, prev Value }
	var log []undo
	top := func(v Value) Value {
		if int(v) < len(cur) && cur[v] != 0 {
			return cur[v]
		}
		// Use of a variable with no dominating definition (e.g. a
		// parameter, or uninitialized along some path): keep the original
		// id, which acts as an implicit entry definition of an undefined
		// value.
		return v
	}
	for _, p := range f.Params {
		f.vals[p].Def = nil
	}

	var rename func(b *Block)
	rename = func(b *Block) {
		mark := len(log)
		for _, in := range b.Instrs {
			if in.Op != OpPhi {
				for i, a := range in.Args {
					in.Args[i] = top(a)
				}
			}
			if in.Dst != 0 {
				orig := in.Dst
				info := f.vals[orig]
				nv := f.NewValue(info.Name, info.Typ)
				in.Dst = nv
				f.vals[nv].Def = in
				log = append(log, undo{orig, cur[orig]})
				cur[orig] = nv
			}
		}
		// Resolve region annotations at region entries: the SSA values of
		// the annotated variables reaching this point.
		for _, r := range f.Regions {
			if r.Entry == b {
				r.Consts = r.Consts[:0]
				for _, cv := range r.ConstVars {
					r.Consts = append(r.Consts, top(cv))
				}
				r.Keys = r.Keys[:0]
				for _, kv := range r.KeyVars {
					r.Keys = append(r.Keys, top(kv))
				}
			}
		}
		// Fill φ args of successors. Until its edge is filled, a φ's
		// argument still names the variable the φ merges.
		for _, s := range b.Succs() {
			pi := s.predIndex(b)
			if pi < 0 {
				continue
			}
			for _, phi := range s.Instrs {
				if phi.Op != OpPhi {
					break
				}
				phi.Args[pi] = top(phi.Args[pi])
			}
		}
		for _, c := range dt.Children[b.ID] {
			rename(c)
		}
		for i := len(log) - 1; i >= mark; i-- {
			cur[log[i].v] = log[i].prev
		}
		log = log[:mark]
	}
	rename(f.Entry())
	f.SSA = true
}

// DestroySSA eliminates φ instructions by inserting copies. Critical edges
// must already be split. The two-stage scheme (copy into a fresh temporary
// in each predecessor, then copy to the φ destination at the block head)
// is immune to the swap and lost-copy problems.
func DestroySSA(f *Func) {
	if !f.SSA {
		return
	}
	for _, b := range f.Blocks {
		phis := b.Phis()
		if len(phis) == 0 {
			continue
		}
		temps := make([]Value, len(phis))
		for i, phi := range phis {
			temps[i] = f.NewValue(f.vals[phi.Dst].Name+".t", phi.Typ)
		}
		for pi, p := range b.Preds {
			insertAt := len(p.Instrs)
			if p.Term() != nil {
				insertAt--
			}
			for i, phi := range phis {
				cp := &Instr{Op: OpCopy, Dst: temps[i], Args: []Value{phi.Args[pi]}, Typ: phi.Typ}
				p.InsertBefore(insertAt, cp)
				insertAt++
			}
		}
		// Replace φs with copies from the temporaries.
		for i, phi := range phis {
			phi.Op = OpCopy
			phi.Args = []Value{temps[i]}
			_ = i
		}
	}
	f.SSA = false
}
