package vm

// The reference dead-write cleanup: the round loop DeadWriteNopsBuf's
// backward sweep replaced. Each round scans forward from every pure write
// until its destination is read, redefined, or control may leave the
// straight-line span, and the caller repeated rounds (up to four) while
// any write died. It is kept, test-only, as the oracle for peep.go:
// TestDeadWriteSweepMatchesReference requires both to leave NOPs at the
// same pcs.

// refDeadWriteRound is one forward round over code.
func refDeadWriteRound(code []Inst) int {
	target := make([]bool, len(code)+1)
	for _, in := range code {
		switch in.Op {
		case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI:
			if in.Target >= 0 && in.Target < len(target) {
				target[in.Target] = true
			}
		}
	}
	reads := func(in Inst, r Reg) bool {
		if r == RZero {
			return false
		}
		switch in.Op {
		case LI, LDC, BR, RET, XFER, NOP, HALT, JTBL:
			return in.Op == JTBL && in.Rs == r
		case ST:
			return in.Rs == r || in.Rt == r
		case BEQZ, BNEZ, BEQI, CMPBRI:
			return in.Rs == r
		case MOV, NEG, NOT, FNEG, ITOF, FTOI, LD, ALLOC:
			return in.Rs == r
		case CMPBR, LDOP, LDOPR, MADDI:
			return in.Rs == r || in.Rt == r
		case CALL, DYNENTER, DYNSTITCH:
			return true // conservatively reads everything
		}
		if in.Op.HasImmOperand() {
			return in.Rs == r
		}
		return in.Rs == r || in.Rt == r
	}
	pureWrite := func(in Inst) bool {
		switch in.Op {
		case LI, MOV, NEG, NOT, FNEG, ITOF, FTOI,
			ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, SHRU,
			SEQ, SNE, SLT, SLE, SLTU, SLEU,
			ADDI, SUBI, MULI, ANDI, ORI, XORI, SHLI, SHRI, SHRUI,
			SEQI, SNEI, SLTI, SLEI, SLTUI, SLEUI,
			FADD, FSUB, FMUL:
			return true
		}
		return false
	}
	writes := func(in Inst, r Reg) bool {
		switch in.Op {
		case ST, BEQZ, BNEZ, BEQI, BR, RET, XFER, NOP, HALT, JTBL,
			CMPBR, CMPBRI: // Rd is the branch sense, not a destination
			return false
		}
		return in.Rd == r
	}
	n := 0
	for i, in := range code {
		if !pureWrite(in) || in.Rd == RZero || in.Rd == RSP || in.Rd == RRV {
			continue
		}
		rd := in.Rd
		dead := false
		for j := i + 1; j < len(code); j++ {
			if target[j] {
				break // another path may read rd
			}
			cj := code[j]
			if reads(cj, rd) {
				break
			}
			if writes(cj, rd) {
				dead = true
				break
			}
			switch cj.Op {
			case BR, BEQZ, BNEZ, BEQI, CMPBR, CMPBRI, JTBL, RET, XFER, CALL, DYNENTER, DYNSTITCH:
				j = len(code) // control leaves the span; be conservative
			}
		}
		if dead {
			code[i] = Inst{Op: NOP}
			n++
		}
	}
	return n
}

// refDeadWriteRounds runs up to rounds forward rounds, stopping at the
// first that removes nothing, and returns the total removed.
func refDeadWriteRounds(code []Inst, rounds int) int {
	total := 0
	for i := 0; i < rounds; i++ {
		n := refDeadWriteRound(code)
		if n == 0 {
			break
		}
		total += n
	}
	return total
}
