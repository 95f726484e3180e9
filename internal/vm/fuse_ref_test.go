package vm

// The reference superinstruction pipeline: Fuse as it was before its
// scratch moved into a pool (fresh buffers per call, map-indexed live-in
// sets, a full register scan per copy-propagation write, a compaction that
// rebuilds every per-pc array). It is kept, test-only, as the byte-identity
// oracle for fuse.go: TestFuseMatchesReference requires both to agree on
// code, PCMap, attribution and stats for random inputs. The opcode
// classifiers (readSet, writesRd, pureWrite, isControl, isBarrier), absorb
// and the fusable-op tables are shared with fuse.go; this file pins the
// pipeline built on them.

// refFuser carries the reference pipeline state over one refFuse call.
type refFuser struct {
	code     []Inst
	regionOf []int16
	setupOf  []bool
	leader   []bool // external leaders + control-flow leaders, current code
	extern   []bool // externally-referenced pcs only, current code
	entry    []bool // region-entry pcs, current code
	pcMap    []int  // original pc -> current pc
	stats    FuseStats
}

// refFuse runs the superinstruction pipeline over code and returns the
// rewritten sequence. The input slice is not modified.
func refFuse(code []Inst, opts FuseOptions) FuseResult {
	f := &refFuser{
		code:  append([]Inst(nil), code...),
		pcMap: make([]int, len(code)+1),
	}
	for i := range f.pcMap {
		f.pcMap[i] = i
	}
	if opts.RegionOf != nil {
		f.regionOf = append([]int16(nil), opts.RegionOf...)
		for len(f.regionOf) < len(code) {
			f.regionOf = append(f.regionOf, -1)
		}
	}
	if opts.SetupOf != nil {
		f.setupOf = append([]bool(nil), opts.SetupOf...)
		for len(f.setupOf) < len(code) {
			f.setupOf = append(f.setupOf, false)
		}
	}
	f.extern = make([]bool, len(code)+1)
	for _, pc := range opts.Leaders {
		if pc >= 0 && pc <= len(code) {
			f.extern[pc] = true
		}
	}
	f.entry = make([]bool, len(code)+1)
	for _, pc := range opts.EntryPCs {
		if pc >= 0 && pc <= len(code) {
			f.entry[pc] = true
		}
	}
	f.stats.InstsBefore = len(code)

	f.computeLeaders()
	f.copyProp()
	kill := f.deadWrites()
	f.compact(kill)

	f.computeLeaders()
	kill = f.fusePairs()
	f.compact(kill)

	f.computeLeaders()
	f.threadJumps()

	f.stats.InstsAfter = len(f.code)
	return FuseResult{
		Code:     f.code,
		PCMap:    f.pcMap,
		RegionOf: f.regionOf,
		SetupOf:  f.setupOf,
		Stats:    f.stats,
	}
}

// sameAttr reports whether pcs a and b share cycle attribution, i.e.
// modeled cost may move between them.
func (f *refFuser) sameAttr(a, b int) bool {
	ra, rb := int16(-1), int16(-1)
	if f.regionOf != nil {
		ra, rb = f.regionOf[a], f.regionOf[b]
	}
	if ra != rb {
		return false
	}
	sa, sb := false, false
	if f.setupOf != nil {
		sa, sb = f.setupOf[a], f.setupOf[b]
	}
	return sa == sb
}

// computeLeaders rebuilds the leader set for the current code: external
// references, branch targets, fall-throughs after control transfers,
// attribution changes and entry markers.
func (f *refFuser) computeLeaders() {
	n := len(f.code)
	f.leader = make([]bool, n+1)
	mark := func(pc int) {
		if pc >= 0 && pc <= n {
			f.leader[pc] = true
		}
	}
	if n > 0 {
		mark(0)
	}
	for pc := range f.extern {
		if f.extern[pc] || f.entry[pc] {
			mark(pc)
		}
	}
	for pc, in := range f.code {
		switch in.Op {
		case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI:
			mark(in.Target)
			mark(pc + 1)
		case JTBL, CALL, RET, XFER, HALT, DYNENTER, DYNSTITCH:
			mark(pc + 1)
		}
	}
	for pc := 1; pc < n; pc++ {
		if !f.sameAttr(pc-1, pc) {
			f.leader[pc] = true
		}
	}
}

// copyProp rewires readers of MOV copies to read the source register
// directly, within basic blocks. The MOVs themselves are left in place for
// the dead-write pass to absorb (implicit readers — hook dispatch, calls —
// keep them live where they matter).
func (f *refFuser) copyProp() {
	var src [NumRegs]Reg // src[d] = s when Regs[d] == Regs[s] holds; d when not
	reset := func() {
		for i := range src {
			src[i] = Reg(i)
		}
	}
	invalidate := func(d Reg) {
		src[d] = d
		for i := range src {
			if src[i] == d {
				src[i] = Reg(i)
			}
		}
	}
	reset()
	for pc := range f.code {
		if f.leader[pc] {
			reset()
		}
		in := &f.code[pc]
		if isBarrier(in.Op) {
			reset()
			continue
		}
		// Rewrite explicit reads to the tracked source.
		switch in.Op {
		case LI, LDC, BR, NOP:
			// no register reads
		case ST:
			in.Rs, in.Rt = src[in.Rs], src[in.Rt]
		case BEQZ, BNEZ, BEQI:
			in.Rs = src[in.Rs]
		case MOV, NEG, NOT, FNEG, ITOF, FTOI, LD, ALLOC:
			in.Rs = src[in.Rs]
		default:
			if in.Op.HasImmOperand() {
				in.Rs = src[in.Rs]
			} else {
				in.Rs, in.Rt = src[in.Rs], src[in.Rt]
			}
		}
		if writesRd(in) && in.Rd != RZero {
			if in.Op == MOV && in.Rs != in.Rd {
				invalidate(in.Rd)
				src[in.Rd] = in.Rs
			} else {
				invalidate(in.Rd)
			}
		}
	}
}

// liveness computes, for every pc, the set of registers live after the
// instruction executes (block-level backward fixpoint, conservative at
// barriers and segment exits).
func (f *refFuser) liveness() []uint64 {
	n := len(f.code)
	liveOut := make([]uint64, n)
	if n == 0 {
		return liveOut
	}
	// Block starts, in order.
	var starts []int
	for pc := 0; pc <= n; pc++ {
		if pc < n && f.leader[pc] {
			starts = append(starts, pc)
		}
	}
	liveIn := make(map[int]uint64, len(starts)) // block start -> live-in
	inAt := func(pc int) uint64 {
		if pc < 0 || pc >= n {
			return allRegs
		}
		if f.leader[pc] {
			return liveIn[pc]
		}
		return allRegs // not a block start: only reachable by fallthrough
	}
	// Transfer over a single instruction.
	step := func(in *Inst, after uint64) uint64 {
		if in.Op == RET {
			// CALL snapshots the whole register file and RET restores
			// it: only the return value survives into the caller.
			return uint64(1) << RRV
		}
		if isBarrier(in.Op) {
			return allRegs
		}
		live := after
		if writesRd(in) && in.Rd != RZero {
			live &^= uint64(1) << (in.Rd & 63)
		}
		return live | readSet(in)
	}
	for changed := true; changed; {
		changed = false
		for bi := len(starts) - 1; bi >= 0; bi-- {
			start := starts[bi]
			end := start + 1
			for end < n && !f.leader[end] {
				end++
			}
			// Live-out of the block's last instruction.
			last := &f.code[end-1]
			var out uint64
			switch last.Op {
			case BR:
				out = inAt(last.Target)
			case BEQZ, BNEZ, BEQI, CMPBR, CMPBRI:
				out = inAt(last.Target) | inAt(end)
			case RET:
				out = 0 // step yields {RRV}; nothing else outlives the frame restore
			case HALT, XFER, JTBL, CALL, DYNENTER, DYNSTITCH:
				out = allRegs
			default:
				out = inAt(end)
			}
			live := out
			for pc := end - 1; pc >= start; pc-- {
				liveOut[pc] = live
				live = step(&f.code[pc], live)
			}
			if liveIn[start] != live {
				liveIn[start] = live
				changed = true
			}
		}
	}
	return liveOut
}

// deadWrites marks pure register writes whose destination is dead for
// removal, absorbing each one's modeled cost into an adjacent instruction
// that executes exactly when it would have. NOPs are absorbed the same way
// (zero cost, one instruction of count).
func (f *refFuser) deadWrites() []bool {
	n := len(f.code)
	kill := make([]bool, n)
	liveOut := f.liveness()
	for pc := 0; pc < n; pc++ {
		in := &f.code[pc]
		dead := in.Op == NOP && !isControl(in.Op)
		if !dead {
			if !pureWrite(in) {
				continue
			}
			if in.Rd != RZero && liveOut[pc]&(uint64(1)<<(in.Rd&63)) != 0 {
				continue
			}
			dead = true
		}
		// Find the absorber: forward into pc+1 when no other path enters
		// there, else backward into pc-1 when no other path enters at pc.
		var host *Inst
		if pc+1 < n && !f.leader[pc+1] && !kill[pc+1] && f.sameAttr(pc, pc+1) {
			host = &f.code[pc+1]
		} else if pc > 0 && !f.leader[pc] && !kill[pc-1] && f.sameAttr(pc-1, pc) {
			host = &f.code[pc-1]
		}
		if host == nil || !absorb(host, in) {
			continue
		}
		kill[pc] = true
		if in.Op == MOV {
			f.stats.MovsEliminated++
		} else if in.Op != NOP {
			f.stats.DeadWritesAbsorbed++
		}
	}
	return kill
}

// compact removes killed slots, remapping branch targets, attribution
// tables, the external reference sets and the cumulative PCMap. XFER
// targets point into the parent segment and are never touched.
func (f *refFuser) compact(kill []bool) {
	n := len(f.code)
	newpc := make([]int, n+1)
	j := 0
	for pc := 0; pc < n; pc++ {
		newpc[pc] = j
		if !kill[pc] {
			j++
		}
	}
	newpc[n] = j
	if j == n {
		return // nothing killed
	}
	code := make([]Inst, 0, j)
	var regionOf []int16
	var setupOf []bool
	extern := make([]bool, j+1)
	entry := make([]bool, j+1)
	for pc := 0; pc < n; pc++ {
		if f.extern[pc] {
			extern[newpc[pc]] = true
		}
		if f.entry[pc] {
			entry[newpc[pc]] = true
		}
		if kill[pc] {
			continue
		}
		in := f.code[pc]
		switch in.Op {
		case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI:
			if in.Target >= 0 && in.Target <= n {
				in.Target = newpc[in.Target]
			}
		}
		code = append(code, in)
		if f.regionOf != nil {
			regionOf = append(regionOf, f.regionOf[pc])
		}
		if f.setupOf != nil {
			setupOf = append(setupOf, f.setupOf[pc])
		}
	}
	if f.extern[n] {
		extern[j] = true
	}
	if f.entry[n] {
		entry[j] = true
	}
	for i := range f.pcMap {
		f.pcMap[i] = newpc[f.pcMap[i]]
	}
	f.code = code
	f.regionOf = regionOf
	f.setupOf = setupOf
	f.extern = extern
	f.entry = entry
}

// fusePairs collapses adjacent instruction pairs into superinstructions.
// A pair fuses only when the second slot has no other predecessors, both
// halves share attribution, and the intermediate register dies with the
// pair.
func (f *refFuser) fusePairs() []bool {
	n := len(f.code)
	kill := make([]bool, n)
	liveOut := f.liveness()
	for pc := 0; pc+1 < n; pc++ {
		if kill[pc] || f.leader[pc+1] || !f.sameAttr(pc, pc+1) {
			continue
		}
		a, b := &f.code[pc], &f.code[pc+1]
		deadAfter := func(t Reg) bool {
			if writesRd(b) && b.Rd == t {
				return true
			}
			return liveOut[pc+1]&(uint64(1)<<(t&63)) == 0
		}
		var fused Inst
		var counter *int
		switch {
		// compare + branch-on-zero -> CMPBR / CMPBRI
		case (b.Op == BEQZ || b.Op == BNEZ) && writesRd(a) && a.Rd != RZero &&
			b.Rs == a.Rd && liveOut[pc+1]&(uint64(1)<<(a.Rd&63)) == 0:
			sub, imm, ok := cmpSub(a.Op)
			if !ok {
				continue
			}
			sense := Reg(0)
			if b.Op == BNEZ {
				sense = 1
			}
			fused = Inst{Op: CMPBR, Rd: sense, Rs: a.Rs, Rt: a.Rt, Sub: sub, Target: b.Target}
			if imm {
				fused.Op = CMPBRI
				fused.Rt = 0
				fused.Imm = a.Imm
			}
			counter = &f.stats.CmpBranchFused

		// load + ALU over the loaded value -> LDOP / LDOPR
		case a.Op == LD && a.Rd != RZero && ldSub(b.Op) &&
			(b.Rs == a.Rd) != (b.Rt == a.Rd) && deadAfter(a.Rd):
			t := a.Rd
			fused = Inst{Op: LDOP, Rd: b.Rd, Rs: a.Rs, Sub: b.Op, Imm: a.Imm}
			if b.Rs == t {
				fused.Op = LDOPR // Mem[addr] op Regs[Rt]
				fused.Rt = b.Rt
			} else {
				fused.Rt = b.Rs // Regs[Rt] op Mem[addr]
			}
			counter = &f.stats.LoadOpFused

		// multiply-by-constant + add -> MADDI
		case a.Op == MULI && a.Rd != RZero && b.Op == ADD &&
			(b.Rs == a.Rd) != (b.Rt == a.Rd) && deadAfter(a.Rd):
			other := b.Rs
			if b.Rs == a.Rd {
				other = b.Rt
			}
			fused = Inst{Op: MADDI, Rd: b.Rd, Rs: a.Rs, Rt: other, Imm: a.Imm}
			counter = &f.stats.MulAddFused

		// immediate-add chain -> single ADDI (cost of both absorbed)
		case a.Op == ADDI && a.Rd != RZero && b.Op == ADDI && b.Rs == a.Rd &&
			deadAfter(a.Rd) && FitsImm(a.Imm+b.Imm):
			fused = Inst{Op: ADDI, Rd: b.Rd, Rs: a.Rs, Imm: a.Imm + b.Imm, XCost: 1, XInsts: 1}
			counter = &f.stats.AddChainsFused

		default:
			continue
		}
		// Carry both halves' absorbed cost and count.
		xc := uint64(fused.XCost) + uint64(a.XCost) + uint64(b.XCost)
		xn := uint64(fused.XInsts) + uint64(a.XInsts) + uint64(b.XInsts)
		if xc > 255 || xn > 255 {
			continue
		}
		fused.XCost = uint8(xc)
		fused.XInsts = uint8(xn)
		f.code[pc] = fused
		kill[pc+1] = true
		*counter++
		pc++ // the killed slot cannot start another pair
	}
	return kill
}

// threadJumps retargets BR instructions that land on another BR, absorbing
// the skipped branch's static cost and taken penalty. Only unconditional
// chains thread (the absorbed cost is charged on every execution), and
// never through a region-entry marker or a parked self-branch.
func (f *refFuser) threadJumps() {
	for pass := 0; pass < 4; pass++ {
		changed := false
		for pc := range f.code {
			in := &f.code[pc]
			if in.Op != BR || in.Target == pc {
				continue
			}
			t := in.Target
			if t < 0 || t >= len(f.code) || f.entry[t] {
				continue
			}
			inner := &f.code[t]
			if inner.Op != BR || inner.Target == t {
				continue
			}
			if !f.sameAttr(pc, t) {
				continue
			}
			// Absorb: inner BR's static cost plus its taken penalty.
			xc := uint64(in.XCost) + uint64(CostBranch+CostTaken) + uint64(inner.XCost)
			xn := uint64(in.XInsts) + 1 + uint64(inner.XInsts)
			if xc > 255 || xn > 255 {
				continue
			}
			in.XCost = uint8(xc)
			in.XInsts = uint8(xn)
			in.Target = inner.Target
			f.stats.BranchesThreaded++
			changed = true
		}
		if !changed {
			break
		}
	}
}
