package stitcher

import (
	"math/bits"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// patch emits the hole instruction p with value v filled, dispatching on
// the kind the stencil builder precomputed. Integer values that fit the
// immediate field are patched directly; oversized values are routed
// through the linearized large-constant table (paper section 4);
// multiplies and unsigned divides/mods by suitable constants are
// strength-reduced.
func (st *stitch) patch(p *tmpl.Patch, v int64) {
	switch p.Kind {
	case tmpl.PatchLDC:
		in := p.Inst
		in.Imm = st.largeConst(v)
		st.add(in)
	case tmpl.PatchLI:
		if vm.FitsImm(v) {
			in := p.Inst
			in.Imm = v
			st.add(in)
		} else {
			st.add(vm.Inst{Op: vm.LDC, Rd: p.Inst.Rd, Imm: st.largeConst(v)})
		}
	default: // PatchALU
		if !st.opts.NoStrengthReduction && st.strengthReduce(p.Inst, v) {
			return
		}
		if vm.FitsImm(v) {
			in := p.Inst
			in.Imm = v
			st.add(in)
			return
		}
		// Too large for the immediate field: load it from the linearized
		// table into the stitcher's scratch register and use the
		// register-register form.
		st.add(vm.Inst{Op: vm.LDC, Rd: vm.RScratch, Imm: st.largeConst(v)})
		st.add(vm.Inst{Op: p.RegOp, Rd: p.Inst.Rd, Rs: p.Inst.Rs, Rt: vm.RScratch})
	}
}

// csdTerm is one ±2^shift term of a canonical-signed-digit decomposition.
type csdTerm struct {
	shift int64
	neg   bool
}

// csdMaxTerms bounds the decomposition; beyond it a multiply is cheaper
// anyway.
const csdMaxTerms = 16

// csdTerms returns the canonical-signed-digit decomposition of v — a
// minimal-ish set of ±2^k terms summing to v — and whether the
// decomposition is complete within the term budget. The terms come back in
// a fixed-size value (no heap allocation: this runs once per patched
// multiply on the stitcher's hot path).
func csdTerms(v int64) (terms [csdMaxTerms]csdTerm, n int, complete bool) {
	u := v
	k := int64(0)
	for u != 0 && n < csdMaxTerms {
		if u&1 != 0 {
			// Choose digit +1 or -1 so the remaining value stays even
			// with a long run of zeros (u mod 4 == 1 → +1, == 3 → -1).
			if u&3 == 3 {
				terms[n] = csdTerm{k, true}
				u++
			} else {
				terms[n] = csdTerm{k, false}
				u--
			}
			n++
		}
		u >>= 1
		k++
	}
	return terms, n, u == 0
}

// emitCSD rewrites rd = rs * v as a chain of shifts and adds/subs when that
// is cheaper than the modeled multiply. Uses the stitcher scratch
// registers; rs is never clobbered before its last read.
func (st *stitch) emitCSD(rd, rs vm.Reg, v int64) bool {
	terms, n, complete := csdTerms(v)
	if n == 0 || !complete {
		return false
	}
	cost := uint64(2*n - 1)
	if n == 1 && !terms[0].neg {
		cost = 1
	}
	if cost+1 >= vm.CostMul { // +1 for a possible final move
		return false
	}
	// Accumulate into a target that cannot alias rs.
	acc := rd
	if rd == rs {
		acc = vm.RScratch2
	}
	// Highest term first.
	last := n - 1
	st.add(vm.Inst{Op: vm.SHLI, Rd: acc, Rs: rs, Imm: terms[last].shift})
	if terms[last].neg {
		st.add(vm.Inst{Op: vm.NEG, Rd: acc, Rs: acc})
	}
	for i := last - 1; i >= 0; i-- {
		t := terms[i]
		op := vm.ADD
		if t.neg {
			op = vm.SUB
		}
		if t.shift == 0 {
			st.add(vm.Inst{Op: op, Rd: acc, Rs: acc, Rt: rs})
			continue
		}
		st.add(vm.Inst{Op: vm.SHLI, Rd: vm.RScratch, Rs: rs, Imm: t.shift})
		st.add(vm.Inst{Op: op, Rd: acc, Rs: acc, Rt: vm.RScratch})
	}
	if acc != rd {
		st.add(vm.Inst{Op: vm.MOV, Rd: rd, Rs: acc})
	}
	return true
}

func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int64) int64 { return int64(bits.TrailingZeros64(uint64(v))) }

// strengthReduce rewrites an immediate ALU instruction using the actual
// constant value: multiplies become shifts/adds/subs; unsigned divisions
// and moduli by powers of two become shifts and bitwise ands.
func (st *stitch) strengthReduce(in vm.Inst, v int64) bool {
	done := func() bool {
		st.stats.StrengthReductions++
		return true
	}
	switch in.Op {
	case vm.MULI:
		switch {
		case v == 0:
			st.add(vm.Inst{Op: vm.LI, Rd: in.Rd, Imm: 0})
			return done()
		case v == 1:
			st.add(vm.Inst{Op: vm.MOV, Rd: in.Rd, Rs: in.Rs})
			return done()
		case v == -1:
			st.add(vm.Inst{Op: vm.NEG, Rd: in.Rd, Rs: in.Rs})
			return done()
		case isPow2(v):
			st.add(vm.Inst{Op: vm.SHLI, Rd: in.Rd, Rs: in.Rs, Imm: log2(v)})
			return done()
		default:
			if st.emitCSD(in.Rd, in.Rs, v) {
				return done()
			}
		}
	case vm.UDIVI:
		if isPow2(v) {
			st.add(vm.Inst{Op: vm.SHRUI, Rd: in.Rd, Rs: in.Rs, Imm: log2(v)})
			return done()
		}
	case vm.UMODI:
		if isPow2(v) && vm.FitsImm(v-1) {
			st.add(vm.Inst{Op: vm.ANDI, Rd: in.Rd, Rs: in.Rs, Imm: v - 1})
			return done()
		}
	case vm.ADDI, vm.SUBI, vm.ORI, vm.XORI:
		if v == 0 {
			st.add(vm.Inst{Op: vm.MOV, Rd: in.Rd, Rs: in.Rs})
			return done()
		}
	}
	return false
}

// peephole is the cleanup after emission: it folds conditional jumps over
// unconditional branches, removes branches to the next instruction and
// dead register writes (vm.DeadWriteNopsBuf), and compacts the emission
// once, remapping all intra-segment targets. XFER targets point into the
// parent segment and are left alone. A removed branch becomes a NOP before
// the dead-write sweep, which reads NOPs as absent and a target on one as
// a target on the next kept instruction, so the sweep sees what it would
// on compacted code. The compaction runs in place over pooled scratch:
// no allocation on warm buffers.
func (st *stitch) peephole() {
	code := st.out
	for i := 0; i+1 < len(code); i++ {
		c := code[i]
		n := code[i+1]
		if (c.Op == vm.BNEZ || c.Op == vm.BEQZ) && n.Op == vm.BR && c.Target == i+2 {
			inv := vm.BEQZ
			if c.Op == vm.BEQZ {
				inv = vm.BNEZ
			}
			code[i] = vm.Inst{Op: inv, Rs: c.Rs, Target: n.Target}
			code[i+1] = vm.Inst{Op: vm.NOP}
		}
	}
	for i := range code {
		if code[i].Op == vm.BR && code[i].Target == i+1 {
			code[i] = vm.Inst{Op: vm.NOP}
		}
	}
	st.keepBuf = growBools(st.keepBuf, len(code)+1)
	vm.DeadWriteNopsBuf(code, st.keepBuf)
	st.stripNops()
}
