package vm

// The reference execution-plan builder: buildPlan as it was before the
// plan moved to one per-pc record array and one prefix-sum array (ten
// per-pc slices, a leader slice, blocks grown by append). It is kept,
// test-only, as the oracle for plan.go: TestBuildPlanMatchesReference
// requires every block and every per-pc value to agree.

// refPlan is the per-segment derived plan in its per-slice layout. It is machine-independent
// (indices, never counter pointers: a machine's region slice may grow) and
// immutable once built, so all machines running the segment share it.
type refPlan struct {
	blocks  []planBlock
	blockAt []int32 // pc -> index of the enclosing block

	// Exact-mode per-pc tables (trace mode, budget-near mode, mid-block
	// entry) reproducing the seed's per-instruction accounting.
	costAt   []uint16 // StaticCost of each instruction
	regionAt []int32
	setupAt  []bool
	entryAt  []int32
	instsAt  []uint8

	// Prefix sums (len+1 entries) for unwinding a block's pre-charge when
	// an instruction traps mid-block: costTo[i] = sum of costAt[0..i).
	costTo  []uint64
	xtraTo  []uint64
	instsTo []uint64
}

// refBuildPlan derives the reference plan from an immutable segment.
func refBuildPlan(seg *Segment) *refPlan {
	n := len(seg.Code)
	p := &refPlan{
		blockAt:  make([]int32, n),
		costAt:   make([]uint16, n),
		regionAt: make([]int32, n),
		setupAt:  make([]bool, n),
		entryAt:  make([]int32, n),
		instsAt:  make([]uint8, n),
		costTo:   make([]uint64, n+1),
		xtraTo:   make([]uint64, n+1),
		instsTo:  make([]uint64, n+1),
	}

	// Per-pc attribution, mirroring the seed's per-step re-derivation.
	for pc := range seg.Code {
		r, setup := int32(-1), false
		if seg.Stitched && seg.Region >= 0 {
			r = int32(seg.Region)
		} else if seg.RegionOf != nil && pc < len(seg.RegionOf) && seg.RegionOf[pc] >= 0 {
			r = int32(seg.RegionOf[pc])
			setup = seg.SetupOf != nil && pc < len(seg.SetupOf) && seg.SetupOf[pc]
		}
		p.regionAt[pc] = r
		p.setupAt[pc] = setup
		p.entryAt[pc] = -1
		in := &seg.Code[pc]
		p.costAt[pc] = uint16(StaticCost(in))
		p.instsAt[pc] = uint8(InstCount(in))
	}
	if seg.RegionEntry != nil {
		for pc, r := range seg.RegionEntry {
			if pc < n && r >= 0 {
				p.entryAt[pc] = r
			}
		}
	}

	// Prefix sums.
	for pc := 0; pc < n; pc++ {
		xtra := uint64(0)
		if in := &seg.Code[pc]; in.Op == LI && !FitsImm(in.Imm) {
			xtra = 1 // wide-constant penalty: machine cycles only
		}
		p.costTo[pc+1] = p.costTo[pc] + uint64(p.costAt[pc])
		p.xtraTo[pc+1] = p.xtraTo[pc] + xtra
		p.instsTo[pc+1] = p.instsTo[pc] + uint64(p.instsAt[pc])
	}

	// Block leaders: entry, branch targets, jump-table entries,
	// instructions after a control transfer, attribution changes and
	// region-entry markers.
	leader := make([]bool, n+1)
	if n > 0 {
		leader[0] = true
	}
	mark := func(pc int) {
		if pc >= 0 && pc <= n {
			leader[pc] = true
		}
	}
	for pc, in := range seg.Code {
		switch in.Op {
		case BEQZ, BNEZ, BEQI, CMPBR, CMPBRI:
			mark(in.Target)
			mark(pc + 1)
		case BR:
			mark(in.Target)
			mark(pc + 1)
		case JTBL, CALL, RET, XFER, HALT, DYNENTER, DYNSTITCH, GUARD:
			// GUARD's taken target is a parent-segment pc (like XFER's),
			// never a leader in this segment.
			mark(pc + 1)
		}
	}
	for _, tbl := range seg.JumpTables {
		for _, t := range tbl {
			mark(t)
		}
	}
	for pc := 1; pc < n; pc++ {
		if p.regionAt[pc] != p.regionAt[pc-1] || p.setupAt[pc] != p.setupAt[pc-1] {
			leader[pc] = true
		}
		if p.entryAt[pc] >= 0 {
			leader[pc] = true
		}
	}

	// Lay out blocks and sum their costs.
	for pc := 0; pc < n; {
		end := pc + 1
		for end < n && !leader[end] {
			end++
		}
		b := planBlock{
			start:  int32(pc),
			end:    int32(end),
			cost:   p.costTo[end] - p.costTo[pc],
			xtra:   p.xtraTo[end] - p.xtraTo[pc],
			insts:  p.instsTo[end] - p.instsTo[pc],
			region: p.regionAt[pc],
			setup:  p.setupAt[pc],
			entry:  p.entryAt[pc],
		}
		bi := int32(len(p.blocks))
		p.blocks = append(p.blocks, b)
		for i := pc; i < end; i++ {
			p.blockAt[i] = bi
		}
		pc = end
	}
	return p
}
