package vm

import (
	"math/bits"
	"sync"
)

// Stitch-time superinstruction fusion.
//
// Fuse rewrites a finished code sequence — stitched output or a statically
// compiled function body — into a shorter one that executes fewer
// interpreter dispatches for the same guest-visible behaviour:
//
//   - copy propagation rewires readers of MOV copies to the source so the
//     copies die;
//   - dead pure register writes are removed, with their modeled cost and
//     instruction count absorbed into an adjacent instruction's XCost /
//     XInsts fields;
//   - adjacent pairs collapse into superinstructions: compare+branch
//     (CMPBR/CMPBRI), load+ALU (LDOP/LDOPR), multiply+add (MADDI), and
//     immediate-add chains;
//   - unconditional branch chains are threaded.
//
// The rewrite is modeled-cost neutral: every eliminated or folded
// instruction's static cycle cost and instruction count is carried by the
// survivor (StaticCost/InstCount), branch-taken and wide-LI penalties are
// preserved, and attribution never moves across a region or set-up
// boundary. Running the fused code therefore leaves Machine.Cycles,
// Machine.Insts and all per-region counters bit-identical to the unfused
// code. The one documented divergence is on error paths: when a fused
// load+op traps on its load, the pair's combined cost has already been
// charged where the seed would have charged the load alone.
//
// Fusion runs on every stitch, over segments of a dozen or so
// instructions, so its cost is bookkeeping rather than analysis. The
// per-pc working state comes from a pooled scratch (fuserPool, capped by
// maxPooledFuse), liveness is one reverse sweep unless a branch points
// backwards, copy propagation touches only aliased registers, compaction
// works in place, and a pass that removes nothing leaves the leader set
// and liveness current for the next. One fuser serves two entry points:
// Fuse, for static code, copies its input and returns a PCMap;
// FuseStitched, for stitched code, skips what its callers discarded (the
// input copy, the reference and entry sets, the PCMap) and installs the
// fused code in the segment. The output is
// byte-identical to the earlier fresh-buffer pipeline kept in
// fuse_ref_test.go (TestFuseMatchesReference,
// TestFuseStitchedMatchesReference).
type FuseOptions struct {
	// Per-pc attribution of the input code (nil: uniform, e.g. stitched
	// segments). Fusion never moves cost across an attribution change.
	RegionOf []int16
	SetupOf  []bool

	// Leaders are pcs that external references point at (labels, jump-table
	// entries, region exit arcs). They survive as instruction boundaries:
	// nothing is fused across them and PCMap tracks where they land. All
	// indirect-branch targets must be listed here.
	Leaders []int

	// EntryPCs are pcs carrying a region-invocation marker. Jump threading
	// never skips over one (the invocation count would be lost).
	EntryPCs []int
}

// FuseStats reports what the pipeline did.
type FuseStats struct {
	MovsEliminated     int // MOV copies removed by copy propagation
	DeadWritesAbsorbed int // other dead pure writes removed
	CmpBranchFused     int // compare+branch pairs -> CMPBR/CMPBRI
	LoadOpFused        int // load+ALU pairs -> LDOP/LDOPR
	MulAddFused        int // MULI+ADD pairs -> MADDI
	AddChainsFused     int // ADDI+ADDI chains collapsed
	BranchesThreaded   int // BR-to-BR jumps retargeted
	InstsBefore        int
	InstsAfter         int
}

// FuseResult is the rewritten code plus the bookkeeping the caller needs
// to relocate labels and attribution tables.
type FuseResult struct {
	Code []Inst

	// PCMap maps every input pc (plus one-past-the-end) to the output pc of
	// its instruction — or, when the instruction was eliminated, of the next
	// surviving instruction. Monotone, so label and table remapping is a
	// direct index.
	PCMap []int

	// Remapped attribution for the output code (nil if the input's was nil).
	RegionOf []int16
	SetupOf  []bool

	Stats FuseStats
}

const allRegs = ^uint64(0)

// maxPooledFuse is the retention cap on pooled fuser scratch, in
// instructions: a scratch that grew past it (a very large static function
// body) is dropped rather than pinned in the pool.
const maxPooledFuse = 1 << 14

// fuser carries the pipeline state over one Fuse or FuseStitched call.
// Everything but pcMap (which the result owns) and, on the stitched path,
// code (the caller's buffer) is per-pc scratch reused across calls through
// fuserPool: stitches fuse on every miss, and fresh buffers per call would
// cost more than the copy-and-patch emission fusion follows.
type fuser struct {
	code     []Inst  // working code: a pooled copy of the input, or the caller's buffer
	codeBuf  []Inst  // pooled backing for the copy
	stitched bool    // FuseStitched: no attribution, references, entry markers or PCMap
	regionOf []int16 // working attribution (nil: uniform)
	setupOf  []bool
	regBuf   []int16 // pooled backing for regionOf
	setupBuf []bool  // pooled backing for setupOf
	leader   []bool  // external leaders + control-flow leaders, current code
	back     bool    // the current code has a backward branch
	extern   []bool  // externally-referenced pcs only, current code
	entry    []bool  // region-entry pcs, current code
	pcMap    []int   // original pc -> current pc; handed to the result
	kill     []bool
	liveOut  []uint64
	liveIn   []uint64 // block start pc -> live-in (only leader slots are read)
	newpc    []int    // compaction map
	stats    FuseStats
}

var fuserPool = sync.Pool{New: func() any { return new(fuser) }}

// identityRegs maps every register to itself: copyProp's empty alias map.
var identityRegs = func() (m [NumRegs]Reg) {
	for i := range m {
		m[i] = Reg(i)
	}
	return m
}()

// Fuse runs the superinstruction pipeline over code and returns the
// rewritten sequence. The input slice is not modified, and the result
// shares no memory with it or with the pooled scratch: Code is one
// exact-size copy, PCMap and the attribution tables are fresh.
func Fuse(code []Inst, opts FuseOptions) FuseResult {
	n := len(code)
	f := fuserPool.Get().(*fuser)
	f.stitched = false
	f.code = append(f.codeBuf[:0], code...)
	f.pcMap = make([]int, n+1)
	for i := range f.pcMap {
		f.pcMap[i] = i
	}
	f.regionOf = nil
	if opts.RegionOf != nil {
		f.regionOf = append(f.regBuf[:0], opts.RegionOf...)
		for len(f.regionOf) < n {
			f.regionOf = append(f.regionOf, -1)
		}
	}
	f.setupOf = nil
	if opts.SetupOf != nil {
		f.setupOf = append(f.setupBuf[:0], opts.SetupOf...)
		for len(f.setupOf) < n {
			f.setupOf = append(f.setupOf, false)
		}
	}
	f.extern = cleared(f.extern, n+1)
	for _, pc := range opts.Leaders {
		if pc >= 0 && pc <= n {
			f.extern[pc] = true
		}
	}
	f.entry = cleared(f.entry, n+1)
	for _, pc := range opts.EntryPCs {
		if pc >= 0 && pc <= n {
			f.entry[pc] = true
		}
	}
	f.run()
	res := FuseResult{PCMap: f.pcMap, Stats: f.stats}
	if len(f.code) > 0 {
		res.Code = make([]Inst, len(f.code))
		copy(res.Code, f.code)
	}
	if len(f.regionOf) > 0 {
		res.RegionOf = append([]int16(nil), f.regionOf...)
	}
	if len(f.setupOf) > 0 {
		res.SetupOf = append([]bool(nil), f.setupOf...)
	}
	f.codeBuf = f.code[:0]
	f.release()
	return res
}

// FuseStitched fuses stitched code (uniform attribution, no external
// leaders or entry markers, no jump tables) and installs the result as
// seg's Code. Stitched segments need no PCMap. code is the caller's
// scratch: it is rewritten in place rather than copied, and neither
// retained nor returned; seg.Code is one exact-size copy. The output
// equals Fuse(code, FuseOptions{}).Code.
func FuseStitched(seg *Segment, code []Inst) FuseStats {
	f := fuserPool.Get().(*fuser)
	f.stitched = true
	f.code = code
	f.regionOf, f.setupOf, f.pcMap = nil, nil, nil
	f.run()
	if len(f.code) > 0 {
		seg.Code = make([]Inst, len(f.code))
		copy(seg.Code, f.code)
	}
	stats := f.stats
	f.release()
	return stats
}

// run is the pipeline: copy propagation, dead-write absorption, pair
// fusion and jump threading, each over the leader set and liveness of the
// code it sees. A pass that removes nothing leaves the opcodes, targets
// and register fields as they were (absorption only moves cost), so the
// leader set and liveness it saw stay current and are not rebuilt.
func (f *fuser) run() {
	f.stats = FuseStats{InstsBefore: len(f.code)}

	f.computeLeaders()
	f.copyProp()
	f.liveness()
	if f.compact(f.deadWrites()) {
		f.computeLeaders()
		f.liveness()
	}
	if f.compact(f.fusePairs()) {
		f.computeLeaders()
	}
	f.threadJumps()

	f.stats.InstsAfter = len(f.code)
}

// release drops the result-owned map, the working code (on the stitched
// path, the caller's buffer) and any buffer grown past the retention cap,
// and returns the scratch to the pool. The scratch holds only copies,
// never caller memory.
func (f *fuser) release() {
	f.pcMap = nil
	if f.regionOf != nil {
		f.regBuf = f.regionOf[:0]
	}
	if f.setupOf != nil {
		f.setupBuf = f.setupOf[:0]
	}
	f.code = nil
	if cap(f.codeBuf) > maxPooledFuse || cap(f.leader) > maxPooledFuse+1 {
		*f = fuser{}
	}
	fuserPool.Put(f)
}

// resized returns buf with length n, reallocated only when its capacity
// is short; the contents are unspecified.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// cleared returns buf with length n and every element zero.
func cleared[T any](buf []T, n int) []T {
	buf = resized(buf, n)
	clear(buf)
	return buf
}

// sameAttr reports whether pcs a and b share cycle attribution, i.e.
// modeled cost may move between them.
func (f *fuser) sameAttr(a, b int) bool {
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

// isControl reports whether in ends a straight-line run.
func isControl(op Op) bool {
	switch op {
	case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI, JTBL, CALL, RET, XFER, HALT,
		DYNENTER, DYNSTITCH, GUARD:
		return true
	}
	return false
}

// isBarrier reports whether op may read or write arbitrary registers or
// leave the segment (call, hook dispatch, indirect or inter-segment jump).
func isBarrier(op Op) bool {
	switch op {
	case JTBL, CALL, RET, XFER, HALT, DYNENTER, DYNSTITCH, GUARD:
		return true
	}
	return false
}

// computeLeaders rebuilds the leader set for the current code: external
// references, branch targets, fall-throughs after control transfers,
// attribution changes and entry markers. It also notes whether any branch
// goes backward, for liveness.
func (f *fuser) computeLeaders() {
	n := len(f.code)
	f.leader = cleared(f.leader, n+1)
	f.back = false
	mark := func(pc int) {
		if pc >= 0 && pc <= n {
			f.leader[pc] = true
		}
	}
	if n > 0 {
		mark(0)
	}
	if !f.stitched {
		for pc := range f.extern {
			if f.extern[pc] || f.entry[pc] {
				mark(pc)
			}
		}
	}
	for pc := range f.code {
		in := &f.code[pc]
		switch in.Op {
		case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI:
			mark(in.Target)
			mark(pc + 1)
			f.back = f.back || (in.Target >= 0 && in.Target <= pc)
		case JTBL, CALL, RET, XFER, HALT, DYNENTER, DYNSTITCH:
			mark(pc + 1)
		}
	}
	if f.regionOf == nil && f.setupOf == nil {
		return // uniform attribution (stitched code): no changes to mark
	}
	for pc := 1; pc < n; pc++ {
		if !f.sameAttr(pc-1, pc) {
			f.leader[pc] = true
		}
	}
}

// readSet returns the bitmask of registers in reads explicitly.
func readSet(in *Inst) uint64 {
	bit := func(r Reg) uint64 { return uint64(1) << (r & 63) }
	switch in.Op {
	case LI, LDC, BR, RET, XFER, NOP, HALT:
		return 0
	case JTBL:
		return bit(in.Rs)
	case ST:
		return bit(in.Rs) | bit(in.Rt)
	case BEQZ, BNEZ, BEQI, CMPBRI:
		return bit(in.Rs)
	case MOV, NEG, NOT, FNEG, ITOF, FTOI, LD, ALLOC:
		return bit(in.Rs)
	case CMPBR, LDOP, LDOPR, MADDI:
		return bit(in.Rs) | bit(in.Rt)
	case CALL, DYNENTER, DYNSTITCH:
		return allRegs
	}
	if in.Op.HasImmOperand() {
		return bit(in.Rs)
	}
	return bit(in.Rs) | bit(in.Rt)
}

// writesRd reports whether in writes its Rd field.
func writesRd(in *Inst) bool {
	switch in.Op {
	case ST, BEQZ, BNEZ, BEQI, BR, RET, XFER, NOP, HALT, JTBL,
		CMPBR, CMPBRI, CALL, DYNENTER, DYNSTITCH:
		return false
	}
	return true
}

// pureWrite reports whether in's only effect is writing Rd (no traps, no
// memory access, no dynamic cycle penalties beyond its static cost).
// Oversized-LI constants are excluded: their +1 materialization penalty is
// charged dynamically and would be lost with the instruction.
func pureWrite(in *Inst) bool {
	switch in.Op {
	case LI:
		return FitsImm(in.Imm)
	case MOV, NEG, NOT, FNEG, ITOF, FTOI,
		ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, SHRU,
		SEQ, SNE, SLT, SLE, SLTU, SLEU,
		ADDI, SUBI, MULI, ANDI, ORI, XORI, SHLI, SHRI, SHRUI,
		SEQI, SNEI, SLTI, SLEI, SLTUI, SLEUI,
		FADD, FSUB, FMUL, MADDI:
		return true
	}
	return false
}

// copyProp rewires readers of MOV copies to read the source register
// directly, within basic blocks. The MOVs themselves are left in place for
// the dead-write pass to absorb (implicit readers — hook dispatch, calls —
// keep them live where they matter).
func (f *fuser) copyProp() {
	src := identityRegs // src[d] = s when Regs[d] == Regs[s] holds; d when not
	var aliased uint64  // registers d with src[d] != d
	reset := func() {
		for m := aliased; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			src[i] = Reg(i)
		}
		aliased = 0
	}
	invalidate := func(d Reg) {
		src[d] = d
		aliased &^= uint64(1) << d
		for m := aliased; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); src[i] == d {
				src[i] = Reg(i)
				aliased &^= uint64(1) << i
			}
		}
	}
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
			invalidate(in.Rd)
			if in.Op == MOV && in.Rs != in.Rd {
				src[in.Rd] = in.Rs
				aliased |= uint64(1) << in.Rd
			}
		}
	}
}

// liveness computes, for every pc, the set of registers live after the
// instruction executes into f.liveOut (block-level backward fixpoint,
// conservative at barriers and segment exits). A block ends before each
// leader; live-in sets are kept for block starts, the only pcs other
// paths enter.
func (f *fuser) liveness() {
	n := len(f.code)
	f.liveOut = resized(f.liveOut, n)
	f.liveIn = resized(f.liveIn, n)
	liveOut, liveIn, leader := f.liveOut, f.liveIn, f.leader
	// Without a backward branch every successor's live-in is final before
	// its predecessors are visited, so one reverse sweep is the fixpoint
	// (straight-line stitched code, loops unrolled, is the common case)
	// and no live-in is read before it is written. With one, the sweeps
	// repeat from empty live-in sets until none changes.
	if f.back {
		clear(liveIn)
	}
	inAt := func(pc int) uint64 {
		if pc < 0 || pc >= n || !leader[pc] {
			return allRegs // not a block start: only reachable by fallthrough
		}
		return liveIn[pc]
	}
	for changed := true; changed; changed = changed && f.back {
		changed = false
		var live uint64 // live-in of pc+1 within its block
		for pc := n - 1; pc >= 0; pc-- {
			in := &f.code[pc]
			out := live
			if pc+1 == n || leader[pc+1] {
				// Live-out of a block's last instruction.
				switch in.Op {
				case BR:
					out = inAt(in.Target)
				case BEQZ, BNEZ, BEQI, CMPBR, CMPBRI:
					out = inAt(in.Target) | inAt(pc+1)
				case RET:
					out = 0 // the step yields {RRV}; nothing else outlives the frame restore
				case HALT, XFER, JTBL, CALL, DYNENTER, DYNSTITCH:
					out = allRegs
				default:
					out = inAt(pc + 1)
				}
			}
			liveOut[pc] = out
			// Transfer over the instruction.
			switch {
			case in.Op == RET:
				// CALL snapshots the whole register file and RET restores
				// it: only the return value survives into the caller.
				live = uint64(1) << RRV
			case isBarrier(in.Op):
				live = allRegs
			default:
				live = out
				if writesRd(in) && in.Rd != RZero {
					live &^= uint64(1) << (in.Rd & 63)
				}
				live |= readSet(in)
			}
			if leader[pc] && liveIn[pc] != live {
				liveIn[pc] = live
				changed = true
			}
		}
	}
}

// absorb folds StaticCost(victim)/InstCount(victim) into host's XCost /
// XInsts, returning false when the 8-bit absorbers would overflow.
func absorb(host, victim *Inst) bool {
	c, n := StaticCost(victim), InstCount(victim)
	if uint64(host.XCost)+c > 255 || uint64(host.XInsts)+n > maxXInsts(host.Op) {
		return false
	}
	host.XCost += uint8(c)
	host.XInsts += uint8(n)
	return true
}

// maxXInsts is the most absorbed instructions an op may carry: its whole
// InstCount must fit the exec plan's 8-bit per-pc count, and a fused
// superinstruction already counts as the two it replaced.
func maxXInsts(op Op) uint64 { return 255 - InstCount(&Inst{Op: op}) }

// deadWrites marks pure register writes whose destination is dead for
// removal, absorbing each one's modeled cost into an adjacent instruction
// that executes exactly when it would have. NOPs are absorbed the same way
// (zero cost, one instruction of count).
func (f *fuser) deadWrites() []bool {
	n := len(f.code)
	liveOut := f.liveOut
	f.kill = cleared(f.kill, n)
	kill := f.kill
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
// tables, the external reference sets and the cumulative PCMap, and
// reports whether it removed any. XFER targets point into the parent
// segment and are never touched. It works in place: newpc[pc] <= pc, so
// every slot is read before it is written.
func (f *fuser) compact(kill []bool) bool {
	n := len(f.code)
	f.newpc = resized(f.newpc, n+1)
	newpc := f.newpc
	j := 0
	for pc := 0; pc < n; pc++ {
		newpc[pc] = j
		if !kill[pc] {
			j++
		}
	}
	newpc[n] = j
	if j == n {
		return false
	}
	if !f.stitched {
		// extern and entry map every pc, the one-past-the-end slot
		// included, onto its new pc; several old pcs may land on one new
		// pc (OR them).
		for pc := 0; pc <= n; pc++ {
			to, x, e := newpc[pc], f.extern[pc], f.entry[pc]
			if pc > 0 && newpc[pc-1] == to {
				x = x || f.extern[to]
				e = e || f.entry[to]
			}
			f.extern[to], f.entry[to] = x, e
		}
		f.extern, f.entry = f.extern[:j+1], f.entry[:j+1]
	}
	for pc := 0; pc < n; pc++ {
		if kill[pc] {
			continue
		}
		to := newpc[pc]
		in := f.code[pc]
		switch in.Op {
		case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI:
			if in.Target >= 0 && in.Target <= n {
				in.Target = newpc[in.Target]
			}
		}
		f.code[to] = in
		if f.regionOf != nil {
			f.regionOf[to] = f.regionOf[pc]
		}
		if f.setupOf != nil {
			f.setupOf[to] = f.setupOf[pc]
		}
	}
	f.code = f.code[:j]
	if f.regionOf != nil {
		f.regionOf = f.regionOf[:j]
	}
	if f.setupOf != nil {
		f.setupOf = f.setupOf[:j]
	}
	for i := range f.pcMap {
		f.pcMap[i] = newpc[f.pcMap[i]]
	}
	return true
}

// cmpSub returns the reg-form compare sub-op for a fusable compare, the
// immediate flag, and ok.
func cmpSub(op Op) (sub Op, imm bool, ok bool) {
	switch op {
	case SEQ, SNE, SLT, SLE, SLTU, SLEU, FEQ, FNE, FLT, FLE:
		return op, false, true
	case SEQI, SNEI, SLTI, SLEI, SLTUI, SLEUI:
		return ImmToRegForm(op), true, true
	}
	return 0, false, false
}

// ldSub reports whether op is a reg-form ALU op foldable into LDOP/LDOPR
// (trap-free: divide and modulus are excluded to keep trap pcs exact).
func ldSub(op Op) bool {
	switch op {
	case ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, SHRU,
		SEQ, SNE, SLT, SLE, SLTU, SLEU, FADD, FSUB, FMUL:
		return true
	}
	return false
}

// fusePairs collapses adjacent instruction pairs into superinstructions.
// A pair fuses only when the second slot has no other predecessors, both
// halves share attribution, and the intermediate register dies with the
// pair.
func (f *fuser) fusePairs() []bool {
	n := len(f.code)
	liveOut := f.liveOut
	f.kill = cleared(f.kill, n)
	kill := f.kill
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
		if xc > 255 || xn > maxXInsts(fused.Op) {
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
func (f *fuser) threadJumps() {
	for pass := 0; pass < 4; pass++ {
		changed := false
		for pc := range f.code {
			in := &f.code[pc]
			if in.Op != BR || in.Target == pc {
				continue
			}
			t := in.Target
			if t < 0 || t >= len(f.code) || (!f.stitched && f.entry[t]) {
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
			if xc > 255 || xn > maxXInsts(in.Op) {
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
