package vm

import (
	"io"
	"math"
	"testing"
	"testing/quick"
)

// runSnippet executes code in a single-function program and returns RRV.
func runSnippet(t *testing.T, code []Inst, setup func(m *Machine)) (int64, *Machine) {
	t.Helper()
	prog := &Program{
		Segs:      []*Segment{{Name: "main", Code: code, Region: -1}},
		FuncIndex: map[string]int{"main": 0},
	}
	m := NewMachine(prog, 1<<16)
	if setup != nil {
		setup(m)
	}
	v, err := m.Call("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, m
}

func TestALUOpsAgainstGo(t *testing.T) {
	type binCase struct {
		op   Op
		gold func(a, b int64) int64
	}
	cases := []binCase{
		{ADD, func(a, b int64) int64 { return a + b }},
		{SUB, func(a, b int64) int64 { return a - b }},
		{MUL, func(a, b int64) int64 { return a * b }},
		{AND, func(a, b int64) int64 { return a & b }},
		{OR, func(a, b int64) int64 { return a | b }},
		{XOR, func(a, b int64) int64 { return a ^ b }},
		{SHL, func(a, b int64) int64 { return a << uint64(b&63) }},
		{SHR, func(a, b int64) int64 { return a >> uint64(b&63) }},
		{SHRU, func(a, b int64) int64 { return int64(uint64(a) >> uint64(b&63)) }},
		{SEQ, func(a, b int64) int64 { return b2i(a == b) }},
		{SNE, func(a, b int64) int64 { return b2i(a != b) }},
		{SLT, func(a, b int64) int64 { return b2i(a < b) }},
		{SLE, func(a, b int64) int64 { return b2i(a <= b) }},
		{SLTU, func(a, b int64) int64 { return b2i(uint64(a) < uint64(b)) }},
		{SLEU, func(a, b int64) int64 { return b2i(uint64(a) <= uint64(b)) }},
	}
	for _, tc := range cases {
		tc := tc
		f := func(a, b int64) bool {
			code := []Inst{
				{Op: tc.op, Rd: RRV, Rs: 12, Rt: 13},
				{Op: RET},
			}
			got, _ := runSnippet(t, code, func(m *Machine) {
				m.Regs[12], m.Regs[13] = a, b
			})
			return got == tc.gold(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", tc.op, err)
		}
	}
}

func TestDivModSemantics(t *testing.T) {
	f := func(a, b int64) bool {
		if b == 0 {
			return true
		}
		code := []Inst{
			{Op: DIV, Rd: 14, Rs: 12, Rt: 13},
			{Op: MOD, Rd: 15, Rs: 12, Rt: 13},
			{Op: UDIV, Rd: 16, Rs: 12, Rt: 13},
			{Op: UMOD, Rd: 17, Rs: 12, Rt: 13},
			{Op: ST, Rs: RZero, Imm: 10, Rt: 14},
			{Op: ST, Rs: RZero, Imm: 11, Rt: 15},
			{Op: ST, Rs: RZero, Imm: 12, Rt: 16},
			{Op: ST, Rs: RZero, Imm: 13, Rt: 17},
			{Op: RET},
		}
		_, m := runSnippet(t, code, func(m *Machine) {
			m.Regs[12], m.Regs[13] = a, b
		})
		return m.Mem[10] == a/b && m.Mem[11] == a%b &&
			m.Mem[12] == int64(uint64(a)/uint64(b)) &&
			m.Mem[13] == int64(uint64(a)%uint64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	prog := &Program{
		Segs: []*Segment{{Name: "main", Code: []Inst{
			{Op: DIV, Rd: RRV, Rs: 12, Rt: 13},
			{Op: RET},
		}, Region: -1}},
		FuncIndex: map[string]int{"main": 0},
	}
	m := NewMachine(prog, 1<<12)
	if _, err := m.Call("main"); err == nil {
		t.Error("expected divide-by-zero trap")
	}
}

func TestFloatOps(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		code := []Inst{
			{Op: FADD, Rd: 14, Rs: 12, Rt: 13},
			{Op: FMUL, Rd: 15, Rs: 12, Rt: 13},
			{Op: FLT, Rd: 16, Rs: 12, Rt: 13},
			{Op: FTOI, Rd: 17, Rs: 12},
			{Op: ST, Rs: RZero, Imm: 10, Rt: 14},
			{Op: ST, Rs: RZero, Imm: 11, Rt: 15},
			{Op: ST, Rs: RZero, Imm: 12, Rt: 16},
			{Op: ST, Rs: RZero, Imm: 13, Rt: 17},
			{Op: RET},
		}
		_, m := runSnippet(t, code, func(m *Machine) {
			m.Regs[12] = int64(math.Float64bits(a))
			m.Regs[13] = int64(math.Float64bits(b))
		})
		okAdd := math.Float64frombits(uint64(m.Mem[10])) == a+b
		okMul := math.Float64frombits(uint64(m.Mem[11])) == a*b
		okLt := m.Mem[12] == b2i(a < b)
		okCvt := math.Abs(a) >= 1e18 || m.Mem[13] == int64(a)
		return okAdd && okMul && okLt && okCvt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLoadStoreAndBounds(t *testing.T) {
	code := []Inst{
		{Op: LI, Rd: 12, Imm: 100},
		{Op: LI, Rd: 13, Imm: 777},
		{Op: ST, Rs: 12, Imm: 5, Rt: 13},
		{Op: LD, Rd: RRV, Rs: 12, Imm: 5},
		{Op: RET},
	}
	v, m := runSnippet(t, code, nil)
	if v != 777 || m.Mem[105] != 777 {
		t.Errorf("load/store: got %d", v)
	}
	// Out of bounds load traps.
	prog := &Program{
		Segs: []*Segment{{Name: "main", Code: []Inst{
			{Op: LI, Rd: 12, Imm: 1 << 40},
			{Op: LD, Rd: RRV, Rs: 12},
			{Op: RET},
		}, Region: -1}},
		FuncIndex: map[string]int{"main": 0},
	}
	if _, err := NewMachine(prog, 1<<12).Call("main"); err == nil {
		t.Error("expected OOB trap")
	}
}

func TestCallRestoresRegisters(t *testing.T) {
	// Callee clobbers r20 and SP; caller must see them restored, with RRV
	// carrying the return value (register-window semantics).
	callee := &Segment{Name: "callee", Region: -1, Code: []Inst{
		{Op: LI, Rd: 20, Imm: 999},
		{Op: SUBI, Rd: RSP, Rs: RSP, Imm: 64},
		{Op: LI, Rd: RRV, Imm: 5},
		{Op: RET},
	}}
	main := &Segment{Name: "main", Region: -1, Code: []Inst{
		{Op: LI, Rd: 20, Imm: 111},
		{Op: CALL, Imm: 1},
		{Op: ADD, Rd: RRV, Rs: RRV, Rt: 20}, // 5 + 111
		{Op: RET},
	}}
	prog := &Program{Segs: []*Segment{main, callee}, FuncIndex: map[string]int{"main": 0, "callee": 1}}
	m := NewMachine(prog, 1<<12)
	spBefore := m.Regs[RSP]
	v, err := m.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 116 {
		t.Errorf("got %d, want 116", v)
	}
	_ = spBefore
}

func TestRecursion(t *testing.T) {
	// fact(n): if n == 0 return 1; return n * fact(n-1). Arg in RA0.
	fact := &Segment{Name: "fact", Region: -1, Code: []Inst{
		{Op: BNEZ, Rs: RA0, Target: 3},
		{Op: LI, Rd: RRV, Imm: 1},
		{Op: RET},
		{Op: MOV, Rd: 20, Rs: RA0},
		{Op: SUBI, Rd: RA0, Rs: RA0, Imm: 1},
		{Op: CALL, Imm: 0},
		{Op: MUL, Rd: RRV, Rs: 20, Rt: RRV},
		{Op: RET},
	}}
	prog := &Program{Segs: []*Segment{fact}, FuncIndex: map[string]int{"fact": 0}}
	m := NewMachine(prog, 1<<12)
	v, err := m.Call("fact", 10)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3628800 {
		t.Errorf("fact(10) = %d", v)
	}
}

func TestJumpTable(t *testing.T) {
	seg := &Segment{Name: "main", Region: -1,
		Code: []Inst{
			{Op: JTBL, Rs: RA0, Imm: 0},
			{Op: LI, Rd: RRV, Imm: 10}, // entry 0
			{Op: RET},
			{Op: LI, Rd: RRV, Imm: 20}, // entry 1
			{Op: RET},
		},
		JumpTables: [][]int{{1, 3}},
	}
	prog := &Program{Segs: []*Segment{seg}, FuncIndex: map[string]int{"main": 0}}
	m := NewMachine(prog, 1<<12)
	for arg, want := range map[int64]int64{0: 10, 1: 20} {
		v, err := m.Call("main", arg)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Errorf("jtbl(%d) = %d, want %d", arg, v, want)
		}
	}
	if _, err := m.Call("main", 7); err == nil {
		t.Error("expected out-of-range jump table trap")
	}
}

func TestXFERTransfersToParent(t *testing.T) {
	parent := &Segment{Name: "main", Region: -1, Code: []Inst{
		{Op: LI, Rd: RRV, Imm: -1},
		{Op: DYNENTER, Imm: 0},
		{Op: LI, Rd: RRV, Imm: 42}, // reached via XFER from the stitched seg
		{Op: RET},
	}}
	prog := &Program{Segs: []*Segment{parent}, FuncIndex: map[string]int{"main": 0}, NumRegions: 1}
	stitched := &Segment{Name: "s", Parent: parent, Region: 0, Stitched: true, Code: []Inst{
		{Op: XFER, Target: 2},
	}}
	m := NewMachine(prog, 1<<12)
	m.OnDynEnter = func(m *Machine, region int) (*Segment, error) {
		return stitched, nil
	}
	v, err := m.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("got %d", v)
	}
	if m.Region(0).Invocations != 1 {
		t.Errorf("invocations: %d", m.Region(0).Invocations)
	}
}

func TestCycleAccounting(t *testing.T) {
	code := []Inst{
		{Op: LI, Rd: 12, Imm: 1},        // 1
		{Op: MUL, Rd: 13, Rs: 12},       // CostMul
		{Op: LD, Rd: 14, Rs: 0, Imm: 1}, // CostLoad
		{Op: RET},                       // CostRet
	}
	_, m := runSnippet(t, code, nil)
	want := uint64(1 + CostMul + CostLoad + CostRet)
	if m.Cycles != want {
		t.Errorf("cycles = %d, want %d", m.Cycles, want)
	}
}

func TestHeapStackCollision(t *testing.T) {
	prog := &Program{
		Segs: []*Segment{{Name: "main", Code: []Inst{
			{Op: LI, Rd: 12, Imm: 1 << 20},
			{Op: ALLOC, Rd: 13, Rs: 12},
			{Op: RET},
		}, Region: -1}},
		FuncIndex: map[string]int{"main": 0},
	}
	m := NewMachine(prog, 1<<10) // tiny memory
	if _, err := m.Call("main"); err == nil {
		t.Error("expected heap/stack collision")
	}
}

func TestBuiltins(t *testing.T) {
	call := func(name string, args ...int64) int64 {
		id := int64(-(BuiltinIndex[name] + 1))
		var code []Inst
		for i := range args {
			code = append(code, Inst{Op: LI, Rd: RA0 + Reg(i), Imm: args[i]})
		}
		code = append(code, Inst{Op: CALL, Imm: id}, Inst{Op: RET})
		v, _ := runSnippet(t, code, nil)
		return v
	}
	if got := call("abs", -5); got != 5 {
		t.Errorf("abs(-5) = %d", got)
	}
	if got := call("min", 3, 9); got != 3 {
		t.Errorf("min = %d", got)
	}
	if got := call("max", 3, 9); got != 9 {
		t.Errorf("max = %d", got)
	}
}

// TestTrapUnwindMatchesExact: a trap in the middle of a block pre-charged
// whole must leave the counters the exact per-instruction accounting
// (trace mode) leaves, wide-constant penalties and region attribution
// included: the unwind takes back exactly the unexecuted tail.
func TestTrapUnwindMatchesExact(t *testing.T) {
	for trapAt := 0; trapAt < 6; trapAt++ {
		code := []Inst{
			{Op: LI, Rd: 12, Imm: 1 << 40}, // wide: one machine-only cycle
			{Op: MULI, Rd: 13, Rs: 12, Imm: 3},
			{Op: ADDI, Rd: 14, Rs: 13, Imm: 1},
			{Op: LI, Rd: 15, Imm: 1 << 41},
			{Op: MUL, Rd: 16, Rs: 14, Rt: 15},
			{Op: ADD, Rd: RRV, Rs: 16, Rt: 12},
			{Op: RET},
		}
		code = append(code[:trapAt+1], code[trapAt:]...)
		code[trapAt] = Inst{Op: DIV, Rd: 17, Rs: 12, Rt: RZero} // traps
		run := func(exact bool) *Machine {
			seg := &Segment{Name: "main", Code: code, Region: -1,
				RegionOf: make([]int16, len(code)), SetupOf: make([]bool, len(code))}
			prog := &Program{Segs: []*Segment{seg}, FuncIndex: map[string]int{"main": 0}, NumRegions: 1}
			m := NewMachine(prog, 1<<12)
			if exact {
				m.Trace = io.Discard
			}
			if _, err := m.Call("main"); err == nil {
				t.Fatalf("trap at %d: no error", trapAt)
			}
			return m
		}
		batched, exact := run(false), run(true)
		if batched.Cycles != exact.Cycles || batched.Insts != exact.Insts ||
			*batched.Region(0) != *exact.Region(0) {
			t.Errorf("trap at %d: batched %d cycles, %d insts, %+v; exact %d, %d, %+v",
				trapAt, batched.Cycles, batched.Insts, *batched.Region(0),
				exact.Cycles, exact.Insts, *exact.Region(0))
		}
	}
}

// resetTestProg has a non-trivial globals image (GlobalWords covers more
// than GlobalInit sets) so the initial memory image is not all zeros.
func resetTestProg() *Program {
	return &Program{
		Segs:        []*Segment{{Name: "main", Code: []Inst{{Op: RET}}, Region: -1}},
		FuncIndex:   map[string]int{"main": 0},
		GlobalInit:  []int64{7, -1, 0, 42, math.MaxInt64},
		GlobalWords: 9,
		NumRegions:  2,
	}
}

// TestNewMachineMatchesReset: NewMachine skips Reset's memory clear
// (make already zeroes), so its state must equal what Reset restores on a
// machine whose memory, heap, registers and frames were all dirtied.
func TestNewMachineMatchesReset(t *testing.T) {
	prog := resetTestProg()
	fresh := NewMachine(prog, 1<<12)
	m := NewMachine(prog, 1<<12)
	for i := range m.Mem {
		m.Mem[i] = int64(i)*3 + 1
	}
	if _, err := m.Alloc(100); err != nil {
		t.Fatal(err)
	}
	for i := range m.Regs {
		m.Regs[i] = int64(-i - 1)
	}
	m.frames = append(m.frames, frame{pc: 3})
	m.Reset()
	for i := range fresh.Mem {
		if fresh.Mem[i] != m.Mem[i] {
			t.Fatalf("Mem[%d]: NewMachine %d, after Reset %d", i, fresh.Mem[i], m.Mem[i])
		}
	}
	if fresh.hp != m.hp || fresh.hp != int64(prog.GlobalWords) {
		t.Errorf("hp: NewMachine %d, after Reset %d, want %d", fresh.hp, m.hp, prog.GlobalWords)
	}
	if fresh.Regs != m.Regs {
		t.Errorf("Regs: NewMachine %v, after Reset %v", fresh.Regs, m.Regs)
	}
	if fresh.Regs[RSP] != int64(len(fresh.Mem)) {
		t.Errorf("RSP = %d, want %d", fresh.Regs[RSP], len(fresh.Mem))
	}
	if len(fresh.frames) != 0 || len(m.frames) != 0 {
		t.Errorf("frames: NewMachine %d, after Reset %d", len(fresh.frames), len(m.frames))
	}
}

// BenchmarkNewMachine creates a machine of a serving tenant's size (64K
// words, 512 KiB): the per-machine cost a restart pays before its first
// request.
func BenchmarkNewMachine(b *testing.B) {
	prog := resetTestProg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchMachine = NewMachine(prog, 1<<16)
	}
}

var benchMachine *Machine
