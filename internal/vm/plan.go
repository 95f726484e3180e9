package vm

import "math/bits"

// The execution plan precomputes, once per segment, everything the seed
// interpreter re-derived on every step: per-pc cycle attribution
// (stitched-region / static-region / set-up), region-entry invocation
// markers, and static instruction costs. On top of the per-pc records it
// lays out basic blocks with summed costs so the interpreter can charge a
// whole straight-line run with one update per counter at block entry,
// falling back to exact per-instruction accounting when tracing, when the
// cycle budget is nearly exhausted, or when control enters a block
// mid-way (e.g. a stitched segment XFERing into its parent).
//
// The invariant throughout: for any execution, the machine's Cycles,
// Insts and per-region counters are bit-identical to what the seed
// per-instruction loop would have produced.
//
// A stitch builds a plan on every miss. Leaders are marked in a bitset
// (stack-held for segments of up to 256 pcs) before anything else, so
// the block array is allocated at its exact size alongside the per-pc
// records and prefix sums. TestBuildPlanMatchesReference pins the builder
// to the earlier one kept in plan_ref_test.go.

// planBlock is one straight-line run: [start, end) with uniform
// attribution, entered only at start (or handled exactly otherwise).
type planBlock struct {
	start  int32
	end    int32  // exclusive
	cost   uint64 // summed static cost, attributed to region when >= 0
	xtra   uint64 // summed machine-only cycles (wide-LI penalties)
	insts  uint64 // summed guest instruction count
	region int32  // uniform attribution region, or -1
	entry  int32  // region invoked when the block is entered at start, or -1
	setup  bool   // attribute cost to SetupCycles instead of ExecCycles
}

// pcPlan is one instruction's exact-mode record (trace mode, budget-near
// mode, mid-block entry), reproducing the seed's per-instruction
// accounting, plus the index of its enclosing block.
type pcPlan struct {
	block  int32  // index of the enclosing block
	region int32  // attribution region, or -1
	entry  int32  // region invoked when this pc executes, or -1
	cost   uint16 // StaticCost of the instruction
	insts  uint8  // InstCount of the instruction
	setup  bool   // attribute cost to SetupCycles instead of ExecCycles
}

// planSum is one prefix-sum record: the totals over pcs [0, i). The
// difference of two records is a span's charge, which unwinds a block's
// pre-charge when an instruction traps mid-block.
type planSum struct {
	cost  uint64
	xtra  uint64 // machine-only cycles (wide-LI penalties)
	insts uint64
}

// execPlan is the per-segment derived plan. It is machine-independent
// (indices, never counter pointers: a machine's region slice may grow) and
// immutable once built, so all machines running the segment share it.
// Three arrays: blocks, one record per pc, and len+1 prefix sums.
type execPlan struct {
	blocks []planBlock
	at     []pcPlan
	sum    []planSum
}

// attrAt returns pc's cycle attribution, mirroring the seed's per-step
// re-derivation: the region its cost is charged to (or -1) and whether it
// is set-up code.
func attrAt(seg *Segment, pc int) (region int32, setup bool) {
	if seg.Stitched && seg.Region >= 0 {
		return int32(seg.Region), false
	}
	if seg.RegionOf != nil && pc < len(seg.RegionOf) && seg.RegionOf[pc] >= 0 {
		return int32(seg.RegionOf[pc]), seg.SetupOf != nil && pc < len(seg.SetupOf) && seg.SetupOf[pc]
	}
	return -1, false
}

// buildPlan derives the execution plan from an immutable segment.
func buildPlan(seg *Segment) *execPlan {
	n := len(seg.Code)

	// Block leaders: entry, branch targets, jump-table entries,
	// instructions after a control transfer, attribution changes and
	// region-entry markers. Stitched segments fit the stack bitset.
	var small [4]uint64
	marks := small[:]
	if w := (n + 63) / 64; w > len(small) {
		marks = make([]uint64, w)
	}
	mark := func(pc int) {
		if pc >= 0 && pc < n {
			marks[pc>>6] |= 1 << (pc & 63)
		}
	}
	mark(0)
	prevR, prevSetup := int32(-1), false
	for pc := range seg.Code {
		r, setup := attrAt(seg, pc)
		if pc > 0 && (r != prevR || setup != prevSetup) {
			mark(pc)
		}
		prevR, prevSetup = r, setup
		switch in := &seg.Code[pc]; in.Op {
		case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI:
			mark(in.Target)
			mark(pc + 1)
		case JTBL, CALL, RET, XFER, HALT, DYNENTER, DYNSTITCH, GUARD:
			// GUARD's taken target is a parent-segment pc (like XFER's),
			// never a leader in this segment.
			mark(pc + 1)
		}
	}
	for pc, r := range seg.RegionEntry {
		if r >= 0 {
			mark(pc)
		}
	}
	for _, tbl := range seg.JumpTables {
		for _, t := range tbl {
			mark(t)
		}
	}
	nb := 0
	for _, w := range marks[:(n+63)/64] {
		nb += bits.OnesCount64(w)
	}

	p := &execPlan{
		at:  make([]pcPlan, n),
		sum: make([]planSum, n+1),
	}
	if nb > 0 {
		p.blocks = make([]planBlock, 0, nb)
	}

	// Per-pc records and prefix sums.
	for pc := range seg.Code {
		r, setup := attrAt(seg, pc)
		in := &seg.Code[pc]
		a := pcPlan{region: r, entry: -1, cost: uint16(StaticCost(in)),
			insts: uint8(InstCount(in)), setup: setup}
		p.at[pc] = a
		xtra := uint64(0)
		if in.Op == LI && !FitsImm(in.Imm) {
			xtra = 1 // wide-constant penalty: machine cycles only
		}
		s := &p.sum[pc]
		p.sum[pc+1] = planSum{s.cost + uint64(a.cost), s.xtra + xtra, s.insts + uint64(a.insts)}
	}
	for pc, r := range seg.RegionEntry {
		if pc < n && r >= 0 {
			p.at[pc].entry = r
		}
	}

	// Lay out blocks, each from a leader to the next, and sum their costs.
	for pc := 0; pc < n; {
		end := pc + 1
		for end < n && marks[end>>6]&(1<<(end&63)) == 0 {
			end++
		}
		a := &p.at[pc]
		p.blocks = append(p.blocks, planBlock{
			start:  int32(pc),
			end:    int32(end),
			cost:   p.sum[end].cost - p.sum[pc].cost,
			xtra:   p.sum[end].xtra - p.sum[pc].xtra,
			insts:  p.sum[end].insts - p.sum[pc].insts,
			region: a.region,
			setup:  a.setup,
			entry:  a.entry,
		})
		bi := int32(len(p.blocks) - 1)
		for i := pc; i < end; i++ {
			p.at[i].block = bi
		}
		pc = end
	}
	return p
}
