package vm

// Dead-write elimination for the cleanup after emission: the stitcher's
// and codegen's peepholes mop up the constant materializations and copies
// left behind once literal operands are folded into immediate forms.
//
// A pure register write is dead when its destination is redefined before
// any read, with no intervening control-flow boundary (branch target,
// branch, call, or segment exit). Removing one dead write can expose
// another (the removed write was the only reader of an earlier one), so
// the cleanup was a loop of up to four forward rounds, each rescanning
// ahead of every candidate: quadratic per round.
// DeadWriteNopsBuf computes the same result in one linear backward sweep.
// For each of the four rounds it carries a kill mask (one uint64, k0..k3,
// held in named variables so they stay in registers): the registers
// whose next event ahead is a write, in that round's view of the code
// (an instruction removed in an earlier round reads and writes nothing).
// An instruction dies in the first round whose mask holds its
// destination, so the sweep removes exactly what the rounds removed and
// keeps the head of a chain that needed a fifth round.
// TestDeadWriteSweepMatchesReference pins it to the round loop kept in
// peep_ref_test.go.
//
// NOPs read and write nothing, and a branch target on a NOP stops the
// sweep as a target on the next instruction would, so the sweep gives
// the same answer before or after NOPs are stripped: the stitcher strips
// once, after it.

// DeadWriteNops replaces pure register writes that are provably dead with
// NOPs and returns how many it replaced. Callers strip the NOPs afterwards.
func DeadWriteNops(code []Inst) int {
	return DeadWriteNopsBuf(code, make([]bool, len(code)+1))
}

// DeadWriteNopsBuf is DeadWriteNops with a caller-provided branch-target
// mark buffer (len >= len(code)+1), for hot callers that pool scratch; it
// does not allocate.
func DeadWriteNopsBuf(code []Inst, target []bool) int {
	target = target[:len(code)+1]
	clear(target)
	for i := range code {
		switch in := &code[i]; in.Op {
		case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI:
			if in.Target >= 0 && in.Target < len(target) {
				target[in.Target] = true
			}
		}
	}
	// k0..k3 are the four rounds' kill masks at the pc after the one
	// being visited.
	var k0, k1, k2, k3 uint64
	n := 0
	for pc := len(code) - 1; pc >= 0; pc-- {
		in := &code[pc]
		round := 4 // the round that removes in, 0-3; 4 if none
		if deadWriteCandidate(in) {
			switch bit := uint64(1) << in.Rd; {
			case k0&bit != 0:
				round = 0
			case k1&bit != 0:
				round = 1
			case k2&bit != 0:
				round = 2
			case k3&bit != 0:
				round = 3
			}
		}
		if target[pc] {
			// Another path enters here and may read anything.
			k0, k1, k2, k3 = 0, 0, 0, 0
		} else {
			// A read ends the scan for its register, a write makes it
			// dead, and a control transfer ends the scan for every
			// register. In the rounds after the one that removed it, in
			// is a NOP: those masks pass through.
			reads := readSet(in)
			var writes uint64
			if writesRd(in) {
				writes = uint64(1) << (in.Rd & 63)
			}
			keep := allRegs
			if endsDeadScan(in.Op) {
				keep = 0
			}
			k0 = (k0&keep | writes) &^ reads
			if round >= 1 {
				k1 = (k1&keep | writes) &^ reads
			}
			if round >= 2 {
				k2 = (k2&keep | writes) &^ reads
			}
			if round >= 3 {
				k3 = (k3&keep | writes) &^ reads
			}
		}
		if round < 4 {
			*in = Inst{Op: NOP}
			n++
		}
	}
	return n
}

// deadWriteCandidate reports whether in is a pure register write the
// cleanup may remove: no memory access, no trap, and a destination other
// than the zero, stack-pointer and return-value registers.
func deadWriteCandidate(in *Inst) bool {
	switch in.Op {
	case LI, MOV, NEG, NOT, FNEG, ITOF, FTOI,
		ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, SHRU,
		SEQ, SNE, SLT, SLE, SLTU, SLEU,
		ADDI, SUBI, MULI, ANDI, ORI, XORI, SHLI, SHRI, SHRUI,
		SEQI, SNEI, SLTI, SLEI, SLTUI, SLEUI,
		FADD, FSUB, FMUL:
		return in.Rd != RZero && in.Rd != RSP && in.Rd != RRV
	}
	return false
}

// endsDeadScan reports whether control leaves the straight-line span at
// op, so a write ahead of it proves nothing about the paths it reaches.
func endsDeadScan(op Op) bool {
	switch op {
	case BR, BEQZ, BNEZ, BEQI, CMPBR, CMPBRI, JTBL, RET, XFER, CALL, DYNENTER, DYNSTITCH:
		return true
	}
	return false
}
