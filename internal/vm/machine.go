package vm

import (
	"fmt"
	"io"
	"math"
)

// RegionCounters accumulates per-region measurements: everything the
// paper's Table 2 needs.
type RegionCounters struct {
	Invocations   uint64
	ExecCycles    uint64 // cycles in region code (stitched or static)
	SetupCycles   uint64 // cycles in set-up code (dynamic-compile overhead)
	StitchCycles  uint64 // modeled stitcher cost (added by the runtime)
	StitchedInsts uint64 // instructions emitted by the stitcher
	Compiles      uint64 // distinct stitched versions produced
}

// Overhead returns the total dynamic-compilation overhead in cycles.
func (rc RegionCounters) Overhead() uint64 { return rc.SetupCycles + rc.StitchCycles }

// Machine executes a Program.
//
// Concurrency contract: a Machine is single-goroutine — its registers,
// memory, frames and counters must only be touched by the goroutine
// driving Call/Run. Many machines may execute the same Program
// concurrently, each on its own goroutine; the runtime hooks below are
// then invoked concurrently from different machines, so hook
// implementations must be safe for cross-machine concurrency (per-machine
// state they close over needs no locking, shared state does).
type Machine struct {
	Prog *Program
	Mem  []int64
	Regs [NumRegs]int64

	Cycles  uint64
	Insts   uint64
	regions []RegionCounters

	// MaxCycles aborts runaway executions.
	MaxCycles uint64

	Output io.Writer

	// Trace, when non-nil, receives one line per executed instruction
	// (segment, pc, disassembly, input register values).
	Trace io.Writer

	// Runtime hooks for dynamic regions (wired by the rtr package).
	// A non-nil segment is entered at pc 0 (stitched segments always
	// begin at their entry). Returning a nil segment from OnDynEnter
	// means "not compiled yet": control falls through into the inline
	// set-up code, which ends in DYNSTITCH. OnDynStitch must return a
	// segment (the freshly stitched code) or an error.
	OnDynEnter  func(m *Machine, region int) (*Segment, error)
	OnDynStitch func(m *Machine, region int) (*Segment, error)

	// OnDeopt is invoked when a GUARD fails in stitched code of an
	// automatically promoted region, just before control transfers back to
	// the region's set-up entry in the parent segment. The runtime uses it
	// to demote the region and orphan its stale stitches.
	OnDeopt func(m *Machine, region int)

	// OnReset is called by Reset: the runtime invalidates this machine's
	// stitched-code cache (the memory holding its tables is being wiped).
	OnReset func(m *Machine)

	hp     int64 // heap pointer (bump allocator)
	frames []frame
}

type frame struct {
	regs [NumRegs]int64
	seg  *Segment
	pc   int
}

// NewMachine creates a machine with the given memory size in words
// (0 picks a 4M-word default). make already returns zeroed memory, so the
// initial image is laid down without Reset's clear.
func NewMachine(p *Program, memWords int) *Machine {
	if memWords <= 0 {
		memWords = 1 << 22
	}
	m := &Machine{
		Prog:      p,
		Mem:       make([]int64, memWords),
		MaxCycles: 200e9,
		regions:   make([]RegionCounters, p.NumRegions),
	}
	m.initState()
	return m
}

// Reset restores the initial memory image and clears registers. Region
// counters are preserved; use ResetCounters to clear them.
func (m *Machine) Reset() {
	if m.OnReset != nil {
		m.OnReset(m)
	}
	clear(m.Mem)
	m.initState()
}

// initState lays the initial image over zeroed memory and resets the heap
// pointer, registers and frames.
func (m *Machine) initState() {
	copy(m.Mem, m.Prog.GlobalInit)
	m.hp = int64(m.Prog.GlobalWords)
	m.Regs = [NumRegs]int64{}
	m.Regs[RSP] = int64(len(m.Mem))
	m.frames = m.frames[:0]
}

// ResetCounters zeroes cycle counts and region statistics.
func (m *Machine) ResetCounters() {
	m.Cycles, m.Insts = 0, 0
	for i := range m.regions {
		m.regions[i] = RegionCounters{}
	}
}

// Region returns the counters for region index r.
func (m *Machine) Region(r int) *RegionCounters {
	for r >= len(m.regions) {
		m.regions = append(m.regions, RegionCounters{})
	}
	return &m.regions[r]
}

// Alloc reserves n zeroed words on the heap and returns their address.
// It is exported so harness code can build input data structures directly.
func (m *Machine) Alloc(n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("vm: alloc of negative size %d", n)
	}
	a := m.hp
	m.hp += n
	if m.hp > m.Regs[RSP] {
		return 0, fmt.Errorf("vm: heap (%d) collided with stack (%d)", m.hp, m.Regs[RSP])
	}
	return a, nil
}

type vmError struct {
	seg *Segment
	pc  int
	msg string
}

func (e *vmError) Error() string {
	return fmt.Sprintf("vm: %s at %s+%d", e.msg, e.seg.Name, e.pc)
}

// Call runs function name with the given arguments and returns RRV.
func (m *Machine) Call(name string, args ...int64) (int64, error) {
	id := m.Prog.FuncID(name)
	if id < 0 {
		return 0, fmt.Errorf("vm: no function %q", name)
	}
	if len(args) > NumArgs {
		return 0, fmt.Errorf("vm: too many arguments (%d > %d)", len(args), NumArgs)
	}
	for i, a := range args {
		m.Regs[RA0+Reg(i)] = a
	}
	// A top-level call behaves like a register window too: the stack
	// pointer (and everything else except the result) is restored, so
	// repeated calls do not leak stack space.
	saved := m.Regs
	v, err := m.run(m.Prog.Segs[id])
	rv := m.Regs[RRV]
	m.Regs = saved
	m.Regs[RRV] = rv
	return v, err
}

// CallF is Call for a float argument list and float result.
func (m *Machine) CallF(name string, args ...float64) (float64, error) {
	ia := make([]int64, len(args))
	for i, a := range args {
		ia[i] = int64(math.Float64bits(a))
	}
	r, err := m.Call(name, ia...)
	return math.Float64frombits(uint64(r)), err
}

// vmErrorf builds a vm error without closing over loop state.
func vmErrorf(seg *Segment, pc int, format string, args ...any) error {
	return &vmError{seg: seg, pc: pc, msg: fmt.Sprintf(format, args...)}
}

// trapUnwind reverses the batched block pre-charge for the unexecuted tail
// (pc+1 .. blkEnd) when an instruction traps mid-block, restoring the
// exact counters the seed per-instruction loop would have left. A no-op in
// exact mode (blkEnd == 0) and for block-terminal traps.
func (m *Machine) trapUnwind(pl *execPlan, pc, blkEnd int, region int32, setup bool) {
	if blkEnd <= pc+1 {
		return
	}
	end, next := &pl.sum[blkEnd], &pl.sum[pc+1]
	over := end.cost - next.cost
	m.Cycles -= over + end.xtra - next.xtra
	m.Insts -= end.insts - next.insts
	if region >= 0 {
		rc := m.Region(int(region))
		if setup {
			rc.SetupCycles -= over
		} else {
			rc.ExecCycles -= over
		}
	}
}

// trap unwinds any batched over-charge and returns the execution error.
func (m *Machine) trap(pl *execPlan, seg *Segment, pc, blkEnd int, region int32,
	setup bool, format string, args ...any) (int64, error) {
	m.trapUnwind(pl, pc, blkEnd, region, setup)
	return 0, vmErrorf(seg, pc, format, args...)
}

// takenCharge adds the branch-taken penalty with the current attribution
// (rc is the cached counter pointer for the attributed region, nil when
// the instruction is unattributed).
func (m *Machine) takenCharge(rc *RegionCounters, setup bool) {
	m.Cycles += CostTaken
	if rc != nil {
		if setup {
			rc.SetupCycles += CostTaken
		} else {
			rc.ExecCycles += CostTaken
		}
	}
}

// cmpEval evaluates the folded compare of a fused CMPBR/CMPBRI.
func cmpEval(op Op, a, b int64) bool {
	switch op {
	case SEQ:
		return a == b
	case SNE:
		return a != b
	case SLT:
		return a < b
	case SLE:
		return a <= b
	case SLTU:
		return uint64(a) < uint64(b)
	case SLEU:
		return uint64(a) <= uint64(b)
	case FEQ:
		return f64(a) == f64(b)
	case FNE:
		return f64(a) != f64(b)
	case FLT:
		return f64(a) < f64(b)
	case FLE:
		return f64(a) <= f64(b)
	}
	return false
}

// aluEval evaluates the folded (trap-free) ALU op of a fused LDOP/LDOPR.
func aluEval(op Op, a, b int64) int64 {
	switch op {
	case ADD:
		return a + b
	case SUB:
		return a - b
	case MUL:
		return a * b
	case AND:
		return a & b
	case OR:
		return a | b
	case XOR:
		return a ^ b
	case SHL:
		return a << uint64(b&63)
	case SHR:
		return a >> uint64(b&63)
	case SHRU:
		return int64(uint64(a) >> uint64(b&63))
	case SEQ:
		return b2i(a == b)
	case SNE:
		return b2i(a != b)
	case SLT:
		return b2i(a < b)
	case SLE:
		return b2i(a <= b)
	case SLTU:
		return b2i(uint64(a) < uint64(b))
	case SLEU:
		return b2i(uint64(a) <= uint64(b))
	case FADD:
		return int64(math.Float64bits(f64(a) + f64(b)))
	case FSUB:
		return int64(math.Float64bits(f64(a) - f64(b)))
	case FMUL:
		return int64(math.Float64bits(f64(a) * f64(b)))
	}
	return 0
}

// run is the interpreter hot path. Where the seed re-derived attribution
// and created closures on every instruction, this loop consults the
// segment's precomputed execution plan: at each basic-block entry the
// whole block's cycles, instruction count, attribution and region-entry
// marker are charged with one update per counter, and the block body then
// executes with no per-instruction accounting at all. Exact
// per-instruction accounting (identical to the seed's) handles tracing,
// near-exhausted cycle budgets, and mid-block entry; mid-block traps
// unwind the pre-charged tail. Guest-visible counters are bit-identical
// to the seed loop in all cases.
func (m *Machine) run(seg *Segment) (int64, error) {
	pc := 0
	baseFrames := len(m.frames)
	pl := seg.execPlan()
	code := seg.Code
	if n := m.Prog.NumRegions; n > 0 {
		// Pre-grow the counters slice so per-region pointers are stable
		// for the whole run and can be cached across blocks.
		m.Region(n - 1)
	}

	var (
		blkEnd   int                  // exclusive end of the batched block; 0 = none active
		atRegion int32           = -2 // attribution of the current instruction (-2: nothing cached yet)
		atRC     *RegionCounters      // cached counters for atRegion; nil when unattributed
		atSetup  bool
	)

	for {
		if pc < 0 || pc >= len(code) {
			return 0, vmErrorf(seg, pc, "pc out of range (%d/%d)", pc, len(code))
		}
		exact := false
		if pc >= blkEnd {
			b := &pl.blocks[pl.at[pc].block]
			if m.Trace == nil && pc == int(b.start) && m.Cycles+b.cost+b.xtra <= m.MaxCycles {
				// Charge the whole straight-line block up front.
				m.Insts += b.insts
				m.Cycles += b.cost + b.xtra
				if b.entry >= 0 {
					m.Region(int(b.entry)).Invocations++
				}
				if b.region != atRegion {
					atRegion = b.region
					atRC = nil
					if atRegion >= 0 {
						atRC = m.Region(int(atRegion))
					}
				}
				atSetup = b.setup
				if atRC != nil {
					if atSetup {
						atRC.SetupCycles += b.cost
					} else {
						atRC.ExecCycles += b.cost
					}
				}
				blkEnd = int(b.end)
			} else {
				exact = true
				blkEnd = 0
			}
		}
		in := &code[pc]
		if exact {
			// Seed-identical per-instruction accounting.
			a := &pl.at[pc]
			c := uint64(a.cost)
			m.Insts += uint64(a.insts)
			if r := a.region; r != atRegion {
				atRegion = r
				atRC = nil
				if r >= 0 {
					atRC = m.Region(int(r))
				}
			}
			atSetup = a.setup
			if atRC != nil {
				if atSetup {
					atRC.SetupCycles += c
				} else {
					atRC.ExecCycles += c
				}
			}
			if e := a.entry; e >= 0 {
				m.Region(int(e)).Invocations++
			}
			m.Cycles += c
			if m.Cycles > m.MaxCycles {
				return 0, vmErrorf(seg, pc, "cycle budget exhausted (%d)", m.MaxCycles)
			}
			if m.Trace != nil {
				fmt.Fprintf(m.Trace, "%-20s %4d: %-28s rd=%d rs=%d rt=%d\n",
					seg.Name, pc, in.String(), m.Regs[in.Rd&63], m.Regs[in.Rs&63], m.Regs[in.Rt&63])
			}
		}

		rs, rt := m.Regs[in.Rs&63], m.Regs[in.Rt&63]

		switch in.Op {
		case NOP:
		case LI:
			m.Regs[in.Rd&63] = in.Imm
			if exact && !FitsImm(in.Imm) {
				m.Cycles++ // wide-constant penalty (pre-charged when batched)
			}
		case MOV:
			m.Regs[in.Rd&63] = rs
		case ADD:
			m.Regs[in.Rd&63] = rs + rt
		case SUB:
			m.Regs[in.Rd&63] = rs - rt
		case MUL:
			m.Regs[in.Rd&63] = rs * rt
		case DIV:
			if rt == 0 {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "integer divide by zero")
			}
			m.Regs[in.Rd&63] = rs / rt
		case UDIV:
			if rt == 0 {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "integer divide by zero")
			}
			m.Regs[in.Rd&63] = int64(uint64(rs) / uint64(rt))
		case MOD:
			if rt == 0 {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "integer modulus by zero")
			}
			m.Regs[in.Rd&63] = rs % rt
		case UMOD:
			if rt == 0 {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "integer modulus by zero")
			}
			m.Regs[in.Rd&63] = int64(uint64(rs) % uint64(rt))
		case AND:
			m.Regs[in.Rd&63] = rs & rt
		case OR:
			m.Regs[in.Rd&63] = rs | rt
		case XOR:
			m.Regs[in.Rd&63] = rs ^ rt
		case SHL:
			m.Regs[in.Rd&63] = rs << uint64(rt&63)
		case SHR:
			m.Regs[in.Rd&63] = rs >> uint64(rt&63)
		case SHRU:
			m.Regs[in.Rd&63] = int64(uint64(rs) >> uint64(rt&63))
		case SEQ:
			m.Regs[in.Rd&63] = b2i(rs == rt)
		case SNE:
			m.Regs[in.Rd&63] = b2i(rs != rt)
		case SLT:
			m.Regs[in.Rd&63] = b2i(rs < rt)
		case SLE:
			m.Regs[in.Rd&63] = b2i(rs <= rt)
		case SLTU:
			m.Regs[in.Rd&63] = b2i(uint64(rs) < uint64(rt))
		case SLEU:
			m.Regs[in.Rd&63] = b2i(uint64(rs) <= uint64(rt))
		case NEG:
			m.Regs[in.Rd&63] = -rs
		case NOT:
			m.Regs[in.Rd&63] = ^rs

		case ADDI:
			m.Regs[in.Rd&63] = rs + in.Imm
		case SUBI:
			m.Regs[in.Rd&63] = rs - in.Imm
		case MULI:
			m.Regs[in.Rd&63] = rs * in.Imm
		case DIVI:
			if in.Imm == 0 {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "integer divide by zero")
			}
			m.Regs[in.Rd&63] = rs / in.Imm
		case UDIVI:
			if in.Imm == 0 {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "integer divide by zero")
			}
			m.Regs[in.Rd&63] = int64(uint64(rs) / uint64(in.Imm))
		case MODI:
			if in.Imm == 0 {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "integer modulus by zero")
			}
			m.Regs[in.Rd&63] = rs % in.Imm
		case UMODI:
			if in.Imm == 0 {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "integer modulus by zero")
			}
			m.Regs[in.Rd&63] = int64(uint64(rs) % uint64(in.Imm))
		case ANDI:
			m.Regs[in.Rd&63] = rs & in.Imm
		case ORI:
			m.Regs[in.Rd&63] = rs | in.Imm
		case XORI:
			m.Regs[in.Rd&63] = rs ^ in.Imm
		case SHLI:
			m.Regs[in.Rd&63] = rs << uint64(in.Imm&63)
		case SHRI:
			m.Regs[in.Rd&63] = rs >> uint64(in.Imm&63)
		case SHRUI:
			m.Regs[in.Rd&63] = int64(uint64(rs) >> uint64(in.Imm&63))
		case SEQI:
			m.Regs[in.Rd&63] = b2i(rs == in.Imm)
		case SNEI:
			m.Regs[in.Rd&63] = b2i(rs != in.Imm)
		case SLTI:
			m.Regs[in.Rd&63] = b2i(rs < in.Imm)
		case SLEI:
			m.Regs[in.Rd&63] = b2i(rs <= in.Imm)
		case SLTUI:
			m.Regs[in.Rd&63] = b2i(uint64(rs) < uint64(in.Imm))
		case SLEUI:
			m.Regs[in.Rd&63] = b2i(uint64(rs) <= uint64(in.Imm))

		case FADD:
			m.Regs[in.Rd&63] = int64(math.Float64bits(f64(rs) + f64(rt)))
		case FSUB:
			m.Regs[in.Rd&63] = int64(math.Float64bits(f64(rs) - f64(rt)))
		case FMUL:
			m.Regs[in.Rd&63] = int64(math.Float64bits(f64(rs) * f64(rt)))
		case FDIV:
			m.Regs[in.Rd&63] = int64(math.Float64bits(f64(rs) / f64(rt)))
		case FNEG:
			m.Regs[in.Rd&63] = int64(math.Float64bits(-f64(rs)))
		case FEQ:
			m.Regs[in.Rd&63] = b2i(f64(rs) == f64(rt))
		case FNE:
			m.Regs[in.Rd&63] = b2i(f64(rs) != f64(rt))
		case FLT:
			m.Regs[in.Rd&63] = b2i(f64(rs) < f64(rt))
		case FLE:
			m.Regs[in.Rd&63] = b2i(f64(rs) <= f64(rt))
		case ITOF:
			m.Regs[in.Rd&63] = int64(math.Float64bits(float64(rs)))
		case FTOI:
			m.Regs[in.Rd&63] = int64(f64(rs))

		case LD:
			a := rs + in.Imm
			if a < 0 || a >= int64(len(m.Mem)) {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "load out of bounds: %d", a)
			}
			m.Regs[in.Rd&63] = m.Mem[a]
		case ST:
			a := rs + in.Imm
			if a < 0 || a >= int64(len(m.Mem)) {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "store out of bounds: %d", a)
			}
			m.Mem[a] = rt
		case LDC:
			if in.Imm < 0 || in.Imm >= int64(len(seg.Consts)) {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "ldc out of bounds: %d/%d", in.Imm, len(seg.Consts))
			}
			m.Regs[in.Rd&63] = seg.Consts[in.Imm]
		case ALLOC:
			a, err := m.Alloc(rs)
			if err != nil {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "%v", err)
			}
			m.Regs[in.Rd&63] = a

		case BEQZ:
			if rs == 0 {
				m.takenCharge(atRC, atSetup)
				pc = in.Target
				blkEnd = 0
				continue
			}
		case BNEZ:
			if rs != 0 {
				m.takenCharge(atRC, atSetup)
				pc = in.Target
				blkEnd = 0
				continue
			}
		case BEQI:
			if rs == in.Imm {
				m.takenCharge(atRC, atSetup)
				pc = in.Target
				blkEnd = 0
				continue
			}
		case CMPBR:
			if cmpEval(in.Sub, rs, rt) == (in.Rd != 0) {
				m.takenCharge(atRC, atSetup)
				pc = in.Target
				blkEnd = 0
				continue
			}
		case CMPBRI:
			if cmpEval(in.Sub, rs, in.Imm) == (in.Rd != 0) {
				m.takenCharge(atRC, atSetup)
				pc = in.Target
				blkEnd = 0
				continue
			}
		case BR:
			m.takenCharge(atRC, atSetup)
			pc = in.Target
			blkEnd = 0
			continue
		case JTBL:
			ti := int(in.Imm)
			if ti < 0 || ti >= len(seg.JumpTables) {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "jump table %d out of range", ti)
			}
			tbl := seg.JumpTables[ti]
			if rs < 0 || rs >= int64(len(tbl)) {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "jump table index %d out of range (%d)", rs, len(tbl))
			}
			pc = tbl[rs]
			blkEnd = 0
			continue
		case XFER:
			if seg.Parent == nil {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "xfer from segment without parent")
			}
			m.takenCharge(atRC, atSetup)
			seg = seg.Parent
			pl = seg.execPlan()
			code = seg.Code
			pc = in.Target
			blkEnd = 0
			continue
		case GUARD:
			if rs != in.Imm {
				if seg.Parent == nil {
					return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "guard failure in segment without parent")
				}
				if m.OnDeopt != nil {
					m.OnDeopt(m, seg.Region)
				}
				m.takenCharge(atRC, atSetup)
				seg = seg.Parent
				pl = seg.execPlan()
				code = seg.Code
				pc = in.Target
				blkEnd = 0
				continue
			}

		case LDOP, LDOPR:
			a := rs + in.Imm
			if a < 0 || a >= int64(len(m.Mem)) {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "load out of bounds: %d", a)
			}
			v := m.Mem[a]
			if in.Op == LDOP {
				m.Regs[in.Rd&63] = aluEval(in.Sub, rt, v)
			} else {
				m.Regs[in.Rd&63] = aluEval(in.Sub, v, rt)
			}
		case MADDI:
			m.Regs[in.Rd&63] = rt + rs*in.Imm

		case CALL:
			if in.Imm < 0 {
				if err := m.builtin(int(-in.Imm - 1)); err != nil {
					return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "%v", err)
				}
				break
			}
			if int(in.Imm) >= len(m.Prog.Segs) {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "call to unknown function %d", in.Imm)
			}
			if n := len(m.frames); n < cap(m.frames) {
				// Write the frame in place: appending a composite
				// literal would copy the 64-register file twice.
				m.frames = m.frames[:n+1]
				f := &m.frames[n]
				f.regs = m.Regs
				f.seg, f.pc = seg, pc+1
			} else {
				m.frames = append(m.frames, frame{regs: m.Regs, seg: seg, pc: pc + 1})
			}
			seg = m.Prog.Segs[in.Imm]
			pl = seg.execPlan()
			code = seg.Code
			pc = 0
			blkEnd = 0
			continue
		case RET:
			if len(m.frames) == baseFrames {
				return m.Regs[RRV], nil
			}
			fr := &m.frames[len(m.frames)-1]
			m.frames = m.frames[:len(m.frames)-1]
			rv := m.Regs[RRV]
			m.Regs = fr.regs
			m.Regs[RRV] = rv
			seg, pc = fr.seg, fr.pc
			pl = seg.execPlan()
			code = seg.Code
			blkEnd = 0
			continue
		case HALT:
			return m.Regs[RRV], nil

		case DYNENTER:
			m.Region(int(in.Imm)).Invocations++
			if m.OnDynEnter == nil {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "dynenter without runtime")
			}
			ns, err := m.OnDynEnter(m, int(in.Imm))
			if err != nil {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "%v", err)
			}
			if ns != nil {
				seg, pc = ns, 0
				pl = seg.execPlan()
				code = seg.Code
				blkEnd = 0
				continue
			}
			// Not yet compiled: fall through into inline set-up code.
		case DYNSTITCH:
			if m.OnDynStitch == nil {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "dynstitch without runtime")
			}
			ns, err := m.OnDynStitch(m, int(in.Imm))
			if err != nil {
				return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "%v", err)
			}
			seg, pc = ns, 0
			pl = seg.execPlan()
			code = seg.Code
			blkEnd = 0
			continue

		default:
			return m.trap(pl, seg, pc, blkEnd, atRegion, atSetup, "illegal opcode %d", in.Op)
		}
		m.Regs[RZero] = 0
		pc++
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func f64(v int64) float64 { return math.Float64frombits(uint64(v)) }

func fop(a, b int64, f func(float64, float64) float64) int64 {
	return int64(math.Float64bits(f(f64(a), f64(b))))
}

// builtin executes host intrinsic id (arguments in RA0..; result in RRV).
func (m *Machine) builtin(id int) error {
	a0 := m.Regs[RA0]
	a1 := m.Regs[RA0+1]
	switch BuiltinNames[id] {
	case "print_int":
		if m.Output != nil {
			fmt.Fprintf(m.Output, "%d\n", a0)
		}
	case "print_float":
		if m.Output != nil {
			fmt.Fprintf(m.Output, "%g\n", f64(a0))
		}
	case "print_str":
		if m.Output != nil {
			var bs []byte
			for a := a0; a >= 0 && a < int64(len(m.Mem)) && m.Mem[a] != 0; a++ {
				bs = append(bs, byte(m.Mem[a]))
			}
			fmt.Fprintf(m.Output, "%s\n", bs)
		}
	case "alloc":
		a, err := m.Alloc(a0)
		if err != nil {
			return err
		}
		m.Regs[RRV] = a
		m.Cycles += CostAlloc
	case "abs":
		if a0 < 0 {
			a0 = -a0
		}
		m.Regs[RRV] = a0
	case "min":
		if a1 < a0 {
			a0 = a1
		}
		m.Regs[RRV] = a0
	case "max":
		if a1 > a0 {
			a0 = a1
		}
		m.Regs[RRV] = a0
	case "cos":
		m.Regs[RRV] = int64(math.Float64bits(math.Cos(f64(a0))))
		m.Cycles += 20
	case "sin":
		m.Regs[RRV] = int64(math.Float64bits(math.Sin(f64(a0))))
		m.Cycles += 20
	case "sqrt":
		m.Regs[RRV] = int64(math.Float64bits(math.Sqrt(f64(a0))))
		m.Cycles += 20
	default:
		return fmt.Errorf("unknown builtin %d", id)
	}
	return nil
}
