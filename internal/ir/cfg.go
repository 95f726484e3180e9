package ir

// Dominance computation (Cooper/Harvey/Kennedy iterative algorithm) and
// CFG-editing helpers.

// DomTree holds immediate dominators and dominance frontiers. Every table
// is indexed by Block.ID and sized NumBlockIDs at construction.
type DomTree struct {
	Idom     []*Block   // immediate dominator (nil for entry and unreachable blocks)
	Children [][]*Block // dominator-tree children, in reverse postorder
	Frontier [][]*Block // dominance frontier
}

// BuildDomTree computes the dominator tree and dominance frontiers for the
// blocks reachable from f's entry.
func BuildDomTree(f *Func) *DomTree {
	rpo := f.ReversePostorder()
	nb := f.numBlocks
	idx := make([]int32, nb) // position in reverse postorder, -1 when unreachable
	for i := range idx {
		idx[i] = -1
	}
	for i, b := range rpo {
		idx[b.ID] = int32(i)
	}
	idom := make([]*Block, nb)
	entry := f.Entry()
	idom[entry.ID] = entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for idx[a.ID] > idx[b.ID] {
				a = idom[a.ID]
			}
			for idx[b.ID] > idx[a.ID] {
				b = idom[b.ID]
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
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p.ID] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	idom[entry.ID] = nil

	// Children, in reverse postorder.
	kids := make(adjacency, 0, len(rpo))
	for _, b := range rpo {
		if d := idom[b.ID]; d != nil {
			kids.add(d, b)
		}
	}
	// Dominance frontiers. All insertions of b happen while b is the merge
	// being processed, so a duplicate is always the runner's last entry.
	df := make(adjacency, 0, len(rpo))
	for _, b := range rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if idx[p.ID] < 0 {
				continue
			}
			runner := p
			for runner != nil && runner != idom[b.ID] {
				df.addOnce(runner, b)
				runner = idom[runner.ID]
			}
		}
	}
	return &DomTree{
		Idom:     idom,
		Children: kids.lists(nb),
		Frontier: df.lists(nb),
	}
}

// adjacency collects (from, to) block pairs and lays them out as one list
// per from-block, in insertion order, over a single backing array.
type adjacency []struct{ from, to *Block }

func (a *adjacency) add(from, to *Block) {
	*a = append(*a, struct{ from, to *Block }{from, to})
}

// addOnce adds the pair unless to is already from's latest entry.
func (a *adjacency) addOnce(from, to *Block) {
	for i := len(*a) - 1; i >= 0 && (*a)[i].to == to; i-- {
		if (*a)[i].from == from {
			return
		}
	}
	a.add(from, to)
}

// lists returns the per-block lists indexed by Block.ID (nb entries).
func (a adjacency) lists(nb int) [][]*Block {
	out := make([][]*Block, nb)
	if len(a) == 0 {
		return out
	}
	// fill[id] starts as the offset of id's list (a prefix sum of counts).
	fill := make([]int32, nb+1)
	for _, e := range a {
		fill[e.from.ID+1]++
	}
	for i := 1; i <= nb; i++ {
		fill[i] += fill[i-1]
	}
	backing := make([]*Block, len(a))
	for _, e := range a {
		backing[fill[e.from.ID]] = e.to
		fill[e.from.ID]++
	}
	// fill[id] is now the end of id's list, and the start of id+1's.
	start := int32(0)
	for id := range out {
		if e := fill[id]; e > start {
			out[id] = backing[start:e:e]
			start = e
		}
	}
	return out
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = t.Idom[b.ID]
	}
	return false
}

// SplitCriticalEdges inserts an empty block on every edge whose source has
// multiple successors and whose destination has multiple predecessors.
// Inserted blocks inherit the region/template/loop marks of the edge source
// so that splitter invariants (template vs. set-up membership) survive.
// Back edges of unrolled loops are preserved: the new block becomes the
// latch if the split edge was latch->head.
func (f *Func) SplitCriticalEdges() {
	blocks := append([]*Block(nil), f.Blocks...)
	for _, b := range blocks {
		term := b.Term()
		if term == nil || len(term.Targets) < 2 {
			continue
		}
		// Dynamic-region boundary edges are virtual (the runtime transfers
		// control); they must not be split.
		if term.Op == OpDynEnter || term.Op == OpDynStitch {
			continue
		}
		for ti, s := range term.Targets {
			if len(s.Preds) < 2 {
				continue
			}
			nb := f.NewBlock()
			nb.Region = b.Region
			nb.Template = b.Template
			nb.Setup = b.Setup
			nb.Loops = append([]*Loop(nil), b.Loops...)
			nb.Append(&Instr{Op: OpJump, Targets: []*Block{s}})
			term.Targets[ti] = s
			// Rewire: b -> nb -> s.
			term.Targets[ti] = nb
			nb.Preds = []*Block{b}
			if i := s.predIndex(b); i >= 0 {
				s.Preds[i] = nb
			}
			// Preserve unrolled-loop latch identity.
			for _, r := range f.Regions {
				for _, l := range r.Loops {
					if l.Latch == b && l.Head == s {
						l.Latch = nb
						nb.Loops = append([]*Loop(nil), b.Loops...)
					}
				}
			}
		}
	}
}
