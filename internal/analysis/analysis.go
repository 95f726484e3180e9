package analysis

import (
	"fmt"
	"slices"

	"dyncc/internal/ir"
)

// Result holds the combined solution of the run-time constants and
// reachability analyses over one dynamic region.
type Result struct {
	Region *ir.Region

	// Const is the set of SSA values that are run-time constants. Values
	// created after the analysis are not members.
	Const ir.ValueSet

	// BlockReach is the reachability condition at each block entry.
	BlockReach map[*ir.Block]Cond

	// EdgeReach is the reachability condition on each CFG edge into a
	// region block, keyed by (successor, predecessor index).
	EdgeReach map[EdgeKey]Cond

	// ConstMerge marks merge blocks whose predecessors' reachability
	// conditions are pairwise mutually exclusive (or which are unrolled
	// loop heads), enabling the idempotent-φ rule.
	ConstMerge map[*ir.Block]bool

	// ConstBranch marks Br/Switch terminators whose predicate is a
	// run-time constant.
	ConstBranch map[*ir.Instr]bool
}

// EdgeKey identifies a CFG edge by its destination and the predecessor slot
// (aligned with φ argument order).
type EdgeKey struct {
	To      *ir.Block
	PredIdx int
}

// Analyze runs the paper's interleaved optimistic fixpoint over region r of
// function f. f must be in SSA form. forcedNonConst lists values the caller
// requires to be treated as non-constant (used by the splitter to demote
// values whose set-up computation cannot be scheduled).
func Analyze(f *ir.Func, r *ir.Region, forcedNonConst map[ir.Value]bool) (*Result, error) {
	if !f.SSA {
		return nil, fmt.Errorf("analysis: %s is not in SSA form", f.Name)
	}
	nv := f.NumValues()
	res := &Result{
		Region:      r,
		Const:       ir.NewValueSet(nv),
		BlockReach:  map[*ir.Block]Cond{},
		EdgeReach:   map[EdgeKey]Cond{},
		ConstMerge:  map[*ir.Block]bool{},
		ConstBranch: map[*ir.Instr]bool{},
	}

	inRegion := func(b *ir.Block) bool { return b != nil && b.Region == r }

	// Region blocks in reverse postorder (within the whole function's RPO).
	var blocks []*ir.Block
	for _, b := range f.ReversePostorder() {
		if inRegion(b) {
			blocks = append(blocks, b)
		}
	}

	// Seed values: annotated constants (incl. keys).
	seeds := ir.NewValueSet(nv)
	for _, v := range r.Consts {
		seeds.Add(v)
	}

	// Per-block marks, by Block.ID. Unrolled loop heads are constant
	// merges by decree (exactly one predecessor arc is ever taken per
	// unrolled copy, paper section 3.1).
	nb := f.NumBlockIDs()
	loopHead := make([]bool, nb)
	for _, l := range r.Loops {
		loopHead[l.Head.ID] = true
	}

	// Heads of loops that are *not* unrolled must be non-constant merges
	// (paper: "the reachability conditions of the loop entry arc and the
	// loop back edge arc will not normally be mutually exclusive" — we make
	// the safe choice unconditionally). Detect back-edge targets with a DFS
	// over the region subgraph.
	ordinaryLoopHead := make([]bool, nb)
	{
		state := make([]uint8, nb) // 0 unvisited, 1 on stack, 2 done
		var dfs func(b *ir.Block)
		dfs = func(b *ir.Block) {
			state[b.ID] = 1
			for _, s := range b.Succs() {
				if !inRegion(s) {
					continue
				}
				switch state[s.ID] {
				case 0:
					dfs(s)
				case 1:
					if !loopHead[s.ID] {
						ordinaryLoopHead[s.ID] = true
					}
				}
			}
			state[b.ID] = 2
		}
		dfs(r.Entry)
	}

	// Optimistic initialization: every value defined inside the region is
	// assumed constant; values defined outside are constant iff seeded.
	definedIn := ir.NewValueSet(nv)
	for _, b := range blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				definedIn.Add(in.Dst)
				res.Const.Add(in.Dst)
			}
		}
	}
	for i, w := range seeds {
		res.Const[i] |= w
	}
	// Compile-time literal constants are a special case of run-time
	// constants (paper section 3.1 footnote): a literal defined before the
	// region flowing in is constant without annotation.
	for _, b := range blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if definedIn.Has(a) || res.Const.Has(a) {
					continue
				}
				if def := f.DefOf(a); def != nil &&
					(def.Op == ir.OpConst || def.Op == ir.OpFConst) {
					res.Const.Add(a)
				}
			}
		}
	}
	for v := range forcedNonConst {
		res.Const.Remove(v)
		seeds.Remove(v)
	}

	isConst := res.Const.Has
	roots := &globalRoots{f: f, visited: ir.NewValueSet(nv)}
	allConst := func(vs []ir.Value) bool {
		for _, v := range vs {
			if !isConst(v) {
				return false
			}
		}
		return true
	}

	// Reachability state lives in slices indexed by a block's position in
	// blocks: reach[i] is the condition at the entry of blocks[i], and
	// edge[predBase[i]+pi] the condition on its pi-th predecessor edge.
	// succEdge[succBase[i]+ti] is the edge slot that target ti of blocks[i]
	// feeds (-1 when the target is outside the region), matching duplicate
	// edges to predecessor slots once rather than every iteration.
	maxID := 0
	for _, b := range blocks {
		maxID = max(maxID, b.ID)
	}
	pos := make([]int, maxID+1)
	predBase := make([]int, len(blocks)+1)
	succBase := make([]int, len(blocks)+1)
	for i, b := range blocks {
		pos[b.ID] = i
		predBase[i+1] = predBase[i] + len(b.Preds)
		succBase[i+1] = succBase[i] + len(b.Succs())
	}
	succEdge := make([]int, succBase[len(blocks)])
	for i, b := range blocks {
		for ti, s := range b.Succs() {
			slot := -1
			if inRegion(s) {
				// Count earlier occurrences of s to align duplicate edges
				// with predecessor slots.
				n := 0
				for _, t := range b.Succs()[:ti] {
					if t == s {
						n++
					}
				}
				if p := nthPredIndex(s, b, n); p >= 0 {
					slot = predBase[pos[s.ID]] + p
				}
			}
			succEdge[succBase[i]+ti] = slot
		}
	}
	entry := slices.Index(blocks, r.Entry)
	reach := make([]Cond, len(blocks))
	edge := make([]Cond, predBase[len(blocks)])
	edgeOf := func(i, pi int) Cond { return edge[predBase[i]+pi] }
	// The reachability iterations mostly recompute what they computed
	// before. memo[succBase[i]+ti] is the last transfer across target ti
	// of blocks[i], reused while its input is equal; written[slot] counts
	// edge writes up to edge[slot]'s last change and derived[i] up to
	// reach[i]'s last derivation (-1: derive again), so a merge none of
	// whose incoming edges changed is skipped. Both are pure shortcuts:
	// the conditions are immutable and the transfers deterministic.
	type transfer struct {
		in, out Cond
		constBr bool
		ok      bool
	}
	memo := make([]transfer, len(succEdge))
	written := make([]int, len(edge))
	derived := make([]int, len(blocks))
	writes := 0

	// Interleaved fixpoint: facts only move downward (const→nonconst,
	// conditions toward weaker), so iteration terminates.
	maxRounds := 4*len(blocks) + f.NumValues() + 16
	for round := 0; ; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("analysis: fixpoint did not converge in region %d of %s", r.ID, f.Name)
		}
		changed := false

		// --- Reachability pass (forward, least fixpoint over the region).
		clear(reach)
		clear(edge)
		for i := range derived {
			derived[i] = -1
		}
		if entry >= 0 {
			reach[entry] = True()
		}
		for iter := 0; ; iter++ {
			rchanged := false
			for i, b := range blocks {
				term := b.Term()
				if term == nil {
					continue
				}
				constBr := res.constPredicate(term, isConst) && !reach[i].IsFalse()
				for ti, s := range term.Targets {
					slot := succEdge[succBase[i]+ti]
					if slot < 0 {
						continue
					}
					m := &memo[succBase[i]+ti]
					if !m.ok || m.constBr != constBr || !Equal(m.in, reach[i]) {
						ec := reach[i]
						if constBr {
							ec = ec.And(Atom{Block: b, Succ: ti})
						}
						// Atoms of branches inside an unrolled loop describe
						// a *per-iteration* outcome; once control leaves the
						// loop they no longer denote a single fixed value,
						// so strip them (weakening the condition, which is
						// conservative).
						ec = stripLeftLoopAtoms(ec, b, s)
						*m = transfer{in: reach[i], out: ec, constBr: constBr, ok: true}
					}
					if !Equal(edge[slot], m.out) {
						edge[slot] = m.out
						writes++
						written[slot] = writes
						rchanged = true
					}
				}
			}
			for i, b := range blocks {
				if b == r.Entry {
					continue
				}
				stale := derived[i] < 0
				for pi := range b.Preds {
					stale = stale || written[predBase[i]+pi] > derived[i]
				}
				if !stale {
					continue
				}
				derived[i] = writes
				nc := False()
				for pi, p := range b.Preds {
					if !inRegion(p) {
						// Control entering the region other than at the
						// entry is rejected by lowering; defensively treat
						// as always-reachable.
						nc = nc.Or(True())
						continue
					}
					nc = nc.Or(edgeOf(i, pi))
				}
				if !Equal(reach[i], nc) {
					reach[i] = nc
					rchanged = true
				}
			}
			if !rchanged {
				break
			}
			if iter > (len(blocks)+2)*(MaxConjs+2)*4 {
				return nil, fmt.Errorf("analysis: reachability did not converge")
			}
		}

		// --- Constant merges.
		for i, b := range blocks {
			cm := true
			if loopHead[b.ID] {
				res.ConstMerge[b] = true
				continue
			}
			if ordinaryLoopHead[b.ID] {
				res.ConstMerge[b] = false
				continue
			}
			for pi := 0; pi < len(b.Preds) && cm; pi++ {
				for pj := pi + 1; pj < len(b.Preds) && cm; pj++ {
					if !inRegion(b.Preds[pi]) || !inRegion(b.Preds[pj]) {
						cm = false
						break
					}
					if !Exclusive(edgeOf(i, pi), edgeOf(i, pj)) {
						cm = false
					}
				}
			}
			if res.ConstMerge[b] != cm {
				res.ConstMerge[b] = cm
				changed = true
			}
		}

		// --- Run-time constants pass (lower values per the flow rules).
		for _, b := range blocks {
			for _, in := range b.Instrs {
				if in.Dst == 0 || !res.Const.Has(in.Dst) || seeds.Has(in.Dst) {
					continue
				}
				ok := false
				switch in.Op {
				case ir.OpPhi:
					ok = allConst(in.Args) && res.ConstMerge[b]
				case ir.OpLoad:
					// Loads through run-time-constant pointers are constant
					// (paper section 3.1) — but global variables cannot be
					// annotated, so their contents must be assumed mutable:
					// a load whose address is rooted at a global is never a
					// run-time constant. Constant global data is shared by
					// passing an annotated pointer instead.
					ok = !in.Dynamic && isConst(in.Args[0]) &&
						!roots.rootedAtGlobal(in.Args[0])
				case ir.OpCall:
					bi := ir.Builtins[in.Sym]
					ok = bi != nil && bi.Pure && allConst(in.Args)
				case ir.OpStackAddr:
					// The stitched code is cached across invocations of the
					// enclosing function, whose frame address differs per
					// call — stack addresses are never run-time constants.
					ok = false
				default:
					ok = in.Op.IsPureNonTrapping() && allConst(in.Args)
				}
				if !ok {
					res.Const.Remove(in.Dst)
					changed = true
				}
			}
		}

		// --- Constant branches.
		for _, b := range blocks {
			term := b.Term()
			if term == nil {
				continue
			}
			c := res.constPredicate(term, isConst)
			if res.ConstBranch[term] != c {
				res.ConstBranch[term] = c
				changed = true
			}
		}

		if !changed {
			break
		}
	}

	// Publish the final round's conditions.
	if entry < 0 {
		res.BlockReach[r.Entry] = True()
	}
	for i, b := range blocks {
		res.BlockReach[b] = reach[i]
		for ti, s := range b.Succs() {
			if slot := succEdge[succBase[i]+ti]; slot >= 0 {
				res.EdgeReach[EdgeKey{To: s, PredIdx: slot - predBase[pos[s.ID]]}] = edge[slot]
			}
		}
	}
	return res, nil
}

// constPredicate reports whether term is a branch whose predicate is a
// run-time constant.
func (res *Result) constPredicate(term *ir.Instr, isConst func(ir.Value) bool) bool {
	switch term.Op {
	case ir.OpBr, ir.OpSwitch:
		return isConst(term.Args[0])
	}
	return false
}

// globalRoots answers rootedAtGlobal queries for one function, reusing
// one visited set: each walk clears the bits it set.
type globalRoots struct {
	f       *ir.Func
	visited ir.ValueSet
	trail   []ir.Value
}

// rootedAtGlobal reports whether the address computation of v involves a
// global's address (bounded def-chain walk over pure address arithmetic).
func (g *globalRoots) rootedAtGlobal(v ir.Value) bool {
	found := g.walk(v, 0)
	for _, u := range g.trail {
		g.visited.Remove(u)
	}
	g.trail = g.trail[:0]
	return found
}

func (g *globalRoots) walk(v ir.Value, depth int) bool {
	if depth > 64 || g.visited.Has(v) {
		return false
	}
	g.visited.Add(v)
	g.trail = append(g.trail, v)
	def := g.f.DefOf(v)
	if def == nil {
		return false
	}
	switch def.Op {
	case ir.OpGlobalAddr:
		return true
	case ir.OpCopy, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpPhi:
		for _, a := range def.Args {
			if g.walk(a, depth+1) {
				return true
			}
		}
	}
	return false
}

// stripLeftLoopAtoms removes, from cond, atoms whose branch lives in an
// unrolled loop that the edge from -> to leaves.
func stripLeftLoopAtoms(cond Cond, from, to *ir.Block) Cond {
	var left []*ir.Loop
	for _, l := range from.Loops {
		if !to.InLoop(l) {
			left = append(left, l)
		}
	}
	if len(left) == 0 {
		return cond
	}
	inLeft := func(b *ir.Block) bool {
		for _, l := range left {
			if b.InLoop(l) {
				return true
			}
		}
		return false
	}
	var out []Conj
	for _, cj := range cond.Disj {
		var n Conj
		for _, a := range cj {
			if !inLeft(a.Block) {
				n = append(n, a)
			}
		}
		out = append(out, n)
	}
	return Cond{Disj: out}.normalize()
}

// nthPredIndex returns the predecessor slot of the n-th occurrence of p in
// s.Preds (duplicate edges from multi-target terminators).
func nthPredIndex(s, p *ir.Block, n int) int {
	for i, q := range s.Preds {
		if q == p {
			if n == 0 {
				return i
			}
			n--
		}
	}
	return -1
}
