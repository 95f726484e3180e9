package vm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeadWriteNopsBasics(t *testing.T) {
	code := []Inst{
		{Op: LI, Rd: 12, Imm: 5}, // dead: r12 redefined before read
		{Op: LI, Rd: 12, Imm: 7}, // live
		{Op: MOV, Rd: RRV, Rs: 12},
		{Op: RET},
	}
	n := DeadWriteNops(code)
	if n != 1 || code[0].Op != NOP {
		t.Errorf("removed %d, code[0]=%v", n, code[0])
	}
	if code[1].Op != LI || code[1].Imm != 7 {
		t.Error("live write removed")
	}
}

func TestDeadWriteNopsRespectsBranches(t *testing.T) {
	// r12's redefinition is after a branch target: another path might read
	// it, so the first write must stay.
	code := []Inst{
		{Op: LI, Rd: 12, Imm: 5},
		{Op: BEQZ, Rs: 13, Target: 3},
		{Op: LI, Rd: 12, Imm: 7},
		{Op: MOV, Rd: RRV, Rs: 12}, // branch target: reads r12
		{Op: RET},
	}
	if n := DeadWriteNops(code); n != 0 {
		t.Errorf("removed %d across a branch target", n)
	}
}

func TestDeadWriteNopsKeepsSideEffects(t *testing.T) {
	code := []Inst{
		{Op: LD, Rd: 12, Rs: 0, Imm: 5}, // load: may fault, never removed
		{Op: LI, Rd: 12, Imm: 7},
		{Op: MOV, Rd: RRV, Rs: 12},
		{Op: RET},
	}
	if n := DeadWriteNops(code); n != 0 {
		t.Errorf("removed a load (%d)", n)
	}
	code = []Inst{
		{Op: ST, Rs: 0, Imm: 5, Rt: 12}, // store: never removed
		{Op: RET},
	}
	if n := DeadWriteNops(code); n != 0 {
		t.Error("removed a store")
	}
}

func TestDeadWriteNopsStopsAtCalls(t *testing.T) {
	code := []Inst{
		{Op: LI, Rd: 12, Imm: 5},
		{Op: CALL, Imm: 0}, // conservatively reads everything
		{Op: LI, Rd: 12, Imm: 7},
		{Op: MOV, Rd: RRV, Rs: 12},
		{Op: RET},
	}
	if n := DeadWriteNops(code); n != 0 {
		t.Errorf("removed %d across a call", n)
	}
}

// Property: on random straight-line ALU code, DeadWriteNops preserves the
// final value of every register that is still read afterwards — checked by
// executing original and cleaned code on the same machine state.
func TestDeadWriteNopsSemanticsProperty(t *testing.T) {
	ops := []Op{LI, MOV, ADD, SUB, MUL, AND, OR, XOR, ADDI, SUBI, ANDI}
	gen := func(r *rand.Rand, n int) []Inst {
		code := make([]Inst, 0, n+2)
		reg := func() Reg { return Reg(12 + r.Intn(6)) }
		for i := 0; i < n; i++ {
			op := ops[r.Intn(len(ops))]
			in := Inst{Op: op, Rd: reg(), Rs: reg(), Rt: reg(),
				Imm: int64(r.Intn(100) - 50)}
			code = append(code, in)
		}
		// Fold every register into the result so "read afterwards" is
		// well-defined for r12..r17.
		code = append(code,
			Inst{Op: ADD, Rd: RRV, Rs: 12, Rt: 13},
			Inst{Op: ADD, Rd: RRV, Rs: RRV, Rt: 14},
			Inst{Op: ADD, Rd: RRV, Rs: RRV, Rt: 15},
			Inst{Op: ADD, Rd: RRV, Rs: RRV, Rt: 16},
			Inst{Op: ADD, Rd: RRV, Rs: RRV, Rt: 17},
			Inst{Op: RET})
		return code
	}
	exec := func(code []Inst) int64 {
		prog := &Program{
			Segs:      []*Segment{{Name: "t", Code: code, Region: -1}},
			FuncIndex: map[string]int{"t": 0},
		}
		m := NewMachine(prog, 1<<12)
		for i := Reg(12); i <= 17; i++ {
			m.Regs[i] = int64(i) * 11
		}
		v, err := m.Call("t")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := gen(r, 3+r.Intn(20))
		want := exec(orig)
		cleaned := make([]Inst, len(orig))
		copy(cleaned, orig)
		DeadWriteNops(cleaned)
		return exec(cleaned) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// deadWriteOps are the opcodes randDeadWriteCode draws from: pure writes
// of every kind, memory operations, calls, returns, branches, exits, and
// the hooks and markers the round loop treats specially.
var deadWriteOps = []Op{
	LI, LI, MOV, MOV, ADD, SUB, MUL, ADDI, SHLI, SLTI, FADD, NEG, ITOF,
	LD, ST, LDC, ALLOC, DIV, CALL, RET, BR, BEQZ, BNEZ, BEQI, CMPBR, CMPBRI,
	JTBL, XFER, HALT, NOP, DYNENTER, DYNSTITCH, GUARD, LDOP, MADDI,
}

// randDeadWriteCode draws a sequence for the sweep/round-loop comparison:
// registers from a small set that includes RZero, RRV and RSP; branch
// targets mostly forward, some backward or one past the end; and, in some
// sequences, a copy chain deep enough to need five or more rounds.
func randDeadWriteCode(rng *rand.Rand) []Inst {
	regs := []Reg{RZero, RRV, RSP, 12, 13, 14, 15, 16}
	reg := func() Reg { return regs[rng.Intn(len(regs))] }
	n := 1 + rng.Intn(32)
	code := make([]Inst, 0, n+16)
	for i := 0; i < n; i++ {
		in := Inst{Op: deadWriteOps[rng.Intn(len(deadWriteOps))],
			Rd: reg(), Rs: reg(), Rt: reg(), Imm: int64(rng.Intn(16))}
		switch rng.Intn(4) {
		case 0:
			in.Target = rng.Intn(n + 1) // anywhere, the end included
		default:
			in.Target = i + 1 + rng.Intn(4) // forward
		}
		code = append(code, in)
	}
	if rng.Intn(4) == 0 {
		// A copy chain r12 -> r13 -> ... of depth 3..7, every link then
		// redefined: each round frees one more link from the tail.
		depth := 3 + rng.Intn(5)
		at := rng.Intn(len(code) + 1)
		chain := []Inst{{Op: LI, Rd: 12, Imm: 1}}
		for d := 1; d < depth; d++ {
			chain = append(chain, Inst{Op: MOV, Rd: 12 + Reg(d%5), Rs: 12 + Reg((d-1)%5)})
		}
		for r := Reg(12); r <= 16; r++ {
			chain = append(chain, Inst{Op: LI, Rd: r})
		}
		code = append(code[:at], append(chain, code[at:]...)...)
	}
	return code
}

// TestDeadWriteSweepMatchesReference pins the backward sweep to the round
// loop it replaced (peep_ref_test.go): on random sequences both must leave
// NOPs at exactly the same pcs, and every feature the loop reacts to must
// have come up.
func TestDeadWriteSweepMatchesReference(t *testing.T) {
	const perSeed = 40000
	var removed, deep, blocked int
	target := make([]bool, 64)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < perSeed; i++ {
			code := randDeadWriteCode(rng)
			want := slices.Clone(code)
			wantN := refDeadWriteRounds(want, 4)
			got := slices.Clone(code)
			if len(target) < len(got)+1 {
				target = make([]bool, len(got)+1)
			}
			gotN := DeadWriteNopsBuf(got, target)
			if gotN != wantN || !slices.Equal(got, want) {
				t.Fatalf("seed %d input %d: sweep removed %d, rounds %d\ninput %v\n got %v\nwant %v",
					seed, i, gotN, wantN, code, got, want)
			}
			removed += gotN
			if more := slices.Clone(want); refDeadWriteRounds(more, 1) > 0 {
				deep++ // a fifth round would have removed more
			}
			for j := range code {
				if code[j].Op == BEQZ && code[j].Target > j+1 && code[j].Target < len(code) {
					blocked++
					break
				}
			}
		}
	}
	if removed == 0 || deep == 0 || blocked == 0 {
		t.Errorf("generator lost coverage: %d removed, %d needing a fifth round, %d with forward targets",
			removed, deep, blocked)
	}
	t.Logf("%d sequences: %d writes removed, %d needed a fifth round", 3*perSeed, removed, deep)
}

// TestDeadWriteSweepKeepsFifthRoundHead: in a five-deep copy chain each
// round frees one more link from the tail, so the four rounds the sweep
// reproduces remove the last four writes and keep the chain's head.
func TestDeadWriteSweepKeepsFifthRoundHead(t *testing.T) {
	code := []Inst{
		{Op: LI, Rd: 12, Imm: 1},  // needs a fifth round: kept
		{Op: MOV, Rd: 13, Rs: 12}, // round 4
		{Op: MOV, Rd: 14, Rs: 13}, // round 3
		{Op: MOV, Rd: 15, Rs: 14}, // round 2
		{Op: MOV, Rd: 16, Rs: 15}, // round 1
		{Op: LI, Rd: 12}, {Op: LI, Rd: 13}, {Op: LI, Rd: 14}, {Op: LI, Rd: 15}, {Op: LI, Rd: 16},
		{Op: MOV, Rd: RRV, Rs: 16},
		{Op: RET},
	}
	if n := DeadWriteNops(code); n != 4 {
		t.Fatalf("removed %d writes, want 4", n)
	}
	if code[0].Op != LI {
		t.Error("the chain's head was removed: that takes a fifth round")
	}
	for pc := 1; pc <= 4; pc++ {
		if code[pc].Op != NOP {
			t.Errorf("pc %d: %v survived", pc, code[pc])
		}
	}
}

// TestDeadWriteSweepZeroAllocs: with a caller's target buffer the sweep
// does not allocate.
func TestDeadWriteSweepZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig := randDeadWriteCode(rng)
	code := make([]Inst, len(orig))
	target := make([]bool, len(orig)+1)
	if n := testing.AllocsPerRun(100, func() {
		copy(code, orig)
		DeadWriteNopsBuf(code, target)
	}); n != 0 {
		t.Errorf("DeadWriteNopsBuf allocates %.1f objects per call, want 0", n)
	}
}

func TestFitsImm(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 32767, -32768} {
		if !FitsImm(v) {
			t.Errorf("%d should fit", v)
		}
	}
	for _, v := range []int64{32768, -32769, 1 << 40, -(1 << 40)} {
		if FitsImm(v) {
			t.Errorf("%d should not fit", v)
		}
	}
}

func TestImmFormRoundTrip(t *testing.T) {
	for op := ADD; op <= SLEU; op++ {
		imm := RegToImmForm(op)
		if imm == NOP {
			continue
		}
		if back := ImmToRegForm(imm); back != op {
			t.Errorf("%s -> %s -> %s", op, imm, back)
		}
	}
}
