package vm

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// randInst draws one instruction over every opcode. Registers come from a
// small set so copies, dead writes and fusable pairs are common; targets
// stray outside the code; immediates and the absorbers straddle the
// wide-constant and 8-bit overflow edges.
func randInst(rng *rand.Rand, n int) Inst {
	reg := func() Reg {
		if rng.Intn(8) == 0 {
			return Reg(rng.Intn(NumRegs))
		}
		return Reg(rng.Intn(6))
	}
	in := Inst{Op: Op(rng.Intn(int(numOps))), Rd: reg(), Rs: reg(), Rt: reg()}
	if rng.Intn(4) == 0 {
		in.Sub = Op(rng.Intn(int(numOps)))
	}
	switch rng.Intn(4) {
	case 0:
		in.Imm = int64(rng.Intn(64)) - 32
	case 1:
		in.Imm = int64(rng.Uint64())
	case 2:
		in.Imm = 1<<20 - int64(rng.Intn(4)) // around the immediate width
	}
	for _, x := range []*uint8{&in.XCost, &in.XInsts} {
		switch rng.Intn(6) {
		case 0:
			*x = uint8(250 + rng.Intn(6))
		case 1:
			*x = uint8(rng.Intn(8))
		}
	}
	in.Target = rng.Intn(n+5) - 2
	return in
}

// randFuseInput draws code and fusion options, attribution tables and
// reference lists shorter or longer than the code included.
func randFuseInput(rng *rand.Rand) ([]Inst, FuseOptions) {
	n := rng.Intn(40)
	if rng.Intn(8) == 0 {
		n = rng.Intn(300)
	}
	code := make([]Inst, n)
	for i := range code {
		code[i] = randInst(rng, n)
	}
	// Shape some adjacent pairs into fusable ones, random fields kept.
	pairs := []func(a, b *Inst){
		func(a, b *Inst) { // compare + branch on it
			a.Op = []Op{SLT, SEQ, FLT, SLTI, SNEI}[rng.Intn(5)]
			b.Op, b.Rs = []Op{BEQZ, BNEZ}[rng.Intn(2)], a.Rd
		},
		func(a, b *Inst) { // load + ALU over the loaded value
			a.Op, b.Op = LD, []Op{ADD, MUL, SLT, FSUB}[rng.Intn(4)]
			if rng.Intn(2) == 0 {
				b.Rs = a.Rd
			} else {
				b.Rt = a.Rd
			}
		},
		func(a, b *Inst) { // multiply-by-constant + add
			a.Op, b.Op, b.Rt = MULI, ADD, a.Rd
		},
		func(a, b *Inst) { // immediate-add chain
			a.Op, b.Op, b.Rs = ADDI, ADDI, a.Rd
		},
		func(a, b *Inst) { // copy, then a read of the copy
			a.Op, b.Rs = MOV, a.Rd
		},
		func(a, b *Inst) { // branch chain
			a.Op, b.Op = BR, BR
		},
	}
	for i := 0; i+1 < n; i++ {
		if rng.Intn(3) == 0 {
			pairs[rng.Intn(len(pairs))](&code[i], &code[i+1])
			i++
		}
	}
	var opts FuseOptions
	if rng.Intn(2) == 0 {
		opts.RegionOf = make([]int16, rng.Intn(n+3))
		r := int16(-1)
		for i := range opts.RegionOf {
			if rng.Intn(6) == 0 {
				r = int16(rng.Intn(3)) - 1
			}
			opts.RegionOf[i] = r
		}
	}
	if rng.Intn(2) == 0 {
		opts.SetupOf = make([]bool, rng.Intn(n+3))
		s := false
		for i := range opts.SetupOf {
			if rng.Intn(6) == 0 {
				s = !s
			}
			opts.SetupOf[i] = s
		}
	}
	pcs := func() []int {
		if rng.Intn(3) == 0 {
			return nil
		}
		out := make([]int, rng.Intn(8))
		for i := range out {
			out[i] = rng.Intn(n+5) - 2
		}
		return out
	}
	opts.Leaders, opts.EntryPCs = pcs(), pcs()
	return code, opts
}

// checkFuse runs Fuse and the reference on the same input and reports the
// first divergence ("" when none) with Fuse's stats; it also requires the
// input to come back unmodified.
func checkFuse(code []Inst, opts FuseOptions) (string, FuseStats) {
	orig := append([]Inst(nil), code...)
	got := Fuse(code, opts)
	if !slices.Equal(code, orig) {
		return "Fuse modified its input", got.Stats
	}
	want := refFuse(code, opts)
	switch {
	case !reflect.DeepEqual(got.Code, want.Code):
		return "Code differs", got.Stats
	case !reflect.DeepEqual(got.PCMap, want.PCMap):
		return "PCMap differs", got.Stats
	case !reflect.DeepEqual(got.RegionOf, want.RegionOf):
		return "RegionOf differs", got.Stats
	case !reflect.DeepEqual(got.SetupOf, want.SetupOf):
		return "SetupOf differs", got.Stats
	case got.Stats != want.Stats:
		return "Stats differ", got.Stats
	}
	return "", got.Stats
}

// TestFuseMatchesReference pins fusion to byte identity with the reference
// pipeline (fuse_ref_test.go) on random code over every opcode.
func TestFuseMatchesReference(t *testing.T) {
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	rng := rand.New(rand.NewSource(1))
	var total FuseStats
	for i := 0; i < iters; i++ {
		code, opts := randFuseInput(rng)
		msg, s := checkFuse(code, opts)
		if msg != "" {
			t.Fatalf("input %d (%d insts, opts %+v): %s", i, len(code), opts, msg)
		}
		total.MovsEliminated += s.MovsEliminated
		total.DeadWritesAbsorbed += s.DeadWritesAbsorbed
		total.CmpBranchFused += s.CmpBranchFused
		total.LoadOpFused += s.LoadOpFused
		total.MulAddFused += s.MulAddFused
		total.AddChainsFused += s.AddChainsFused
		total.BranchesThreaded += s.BranchesThreaded
	}
	// Every rewrite must have fired, or the generator stopped covering it.
	if total.MovsEliminated == 0 || total.DeadWritesAbsorbed == 0 || total.CmpBranchFused == 0 ||
		total.LoadOpFused == 0 || total.MulAddFused == 0 || total.AddChainsFused == 0 ||
		total.BranchesThreaded == 0 {
		t.Errorf("some rewrite never fired: %+v", total)
	}
	t.Logf("rewrites over %d inputs: %+v", iters, total)
}

// TestFuseConcurrent runs Fuse from 8 goroutines on distinct inputs, so
// the pooled scratch is shared across them, and checks every result
// against the reference. Under -race it also checks the pool hands no
// buffer to two callers at once.
func TestFuseConcurrent(t *testing.T) {
	const workers = 8
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if msg, _ := checkFuse(randFuseInput(rng)); msg != "" {
					errs <- msg
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestFuseResultOwnsMemory checks that a result does not alias pooled
// scratch: a second call must leave the first call's result intact.
func TestFuseResultOwnsMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	code, opts := randFuseInput(rng)
	for len(code) < 10 {
		code, opts = randFuseInput(rng)
	}
	first := Fuse(code, opts)
	keep := refFuse(code, opts)
	for i := 0; i < 50; i++ {
		c, o := randFuseInput(rng)
		Fuse(c, o)
	}
	if !reflect.DeepEqual(first, keep) {
		t.Fatal("a later Fuse call changed an earlier result")
	}
}

// stitchedBody is shaped like a typical stitched segment in serving
// (about 13 instructions): patched immediates, a copy, a compare-branch
// pair, a load feeding an ALU op, and exits back to the parent.
func stitchedBody() []Inst {
	return []Inst{
		{Op: ADDI, Rd: 21, Rs: 20, Imm: 7},
		{Op: ADDI, Rd: 22, Rs: 22, Imm: 1},
		{Op: MOV, Rd: 23, Rs: 21},
		{Op: ADDI, Rd: 21, Rs: 23, Imm: 4},
		{Op: XORI, Rd: 22, Rs: 21, Imm: 5},
		{Op: LD, Rd: 24, Rs: 22, Imm: 2},
		{Op: ADD, Rd: 25, Rs: 24, Rt: 21},
		{Op: SLTI, Rd: 26, Rs: 25, Imm: 9},
		{Op: BEQZ, Rs: 26, Target: 11},
		{Op: MULI, Rd: 27, Rs: 25, Imm: 3},
		{Op: ADD, Rd: RRV, Rs: 27, Rt: 21},
		{Op: XFER, Target: 40},
		{Op: XFER, Target: 52},
	}
}

// staticBody is shaped like a statically compiled function body: a
// counted loop over memory with compares, copies and a call, set-up code
// attributed to a region, labels at every block and a region-entry marker.
func staticBody() ([]Inst, FuseOptions) {
	var code []Inst
	var regionOf []int16
	var setupOf []bool
	var leaders []int
	emit := func(region int16, setup bool, ins ...Inst) {
		for _, in := range ins {
			code = append(code, in)
			regionOf = append(regionOf, region)
			setupOf = append(setupOf, setup)
		}
	}
	for blk := 0; blk < 12; blk++ {
		region, setup := int16(-1), false
		if blk%4 == 1 {
			region = 0
			setup = blk%8 == 1
		}
		top := len(code)
		leaders = append(leaders, top)
		emit(region, setup,
			Inst{Op: LI, Rd: 10, Imm: int64(blk)},
			Inst{Op: MOV, Rd: 11, Rs: RA0},
			Inst{Op: MULI, Rd: 12, Rs: 10, Imm: 8},
			Inst{Op: ADD, Rd: 13, Rs: 12, Rt: 11},
			Inst{Op: LD, Rd: 14, Rs: 13},
			Inst{Op: ADD, Rd: 15, Rs: 14, Rt: 15},
			Inst{Op: ADDI, Rd: 16, Rs: 10, Imm: 1},
			Inst{Op: ADDI, Rd: 10, Rs: 16, Imm: 1},
			Inst{Op: SLTI, Rd: 17, Rs: 10, Imm: 64},
			Inst{Op: BNEZ, Rs: 17, Target: top},
			Inst{Op: NOP},
			Inst{Op: MOV, Rd: RA0, Rs: 15},
			Inst{Op: CALL, Imm: 1},
			Inst{Op: ST, Rs: 13, Rt: RRV, Imm: 1},
			Inst{Op: BR, Target: top + 16},
			Inst{Op: BR, Target: top + 16},
		)
	}
	emit(-1, false, Inst{Op: MOV, Rd: RRV, Rs: 15}, Inst{Op: RET})
	return code, FuseOptions{RegionOf: regionOf, SetupOf: setupOf,
		Leaders: leaders, EntryPCs: []int{leaders[1], leaders[5]}}
}

// TestBenchBodiesMatchReference keeps the benchmark subjects below under
// the same byte-identity check as the random inputs.
func TestBenchBodiesMatchReference(t *testing.T) {
	if msg, _ := checkFuse(stitchedBody(), FuseOptions{}); msg != "" {
		t.Errorf("stitched body: %s", msg)
	}
	code, opts := staticBody()
	if msg, _ := checkFuse(code, opts); msg != "" {
		t.Errorf("static body: %s", msg)
	}
}

// fuseSink keeps the measured calls' results live.
var fuseSink FuseResult

func benchFuse(b *testing.B, code []Inst, opts FuseOptions) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fuseSink = Fuse(code, opts)
	}
}

// BenchmarkFuse times fusion of a stitched segment (the per-miss cost)
// and of a static function body (the per-compile cost).
func BenchmarkFuse(b *testing.B) {
	b.Run("stitched", func(b *testing.B) { benchFuse(b, stitchedBody(), FuseOptions{}) })
	b.Run("static", func(b *testing.B) {
		code, opts := staticBody()
		benchFuse(b, code, opts)
	})
}

// TestFusedInstCountFitsPlan: fused code reports the guest instruction
// count and cycles of the code it replaced, even when the dead writes
// absorbed into one instruction bring its count to the exec plan's 8-bit
// limit. 254 dead MOVs before SLTI+BNEZ used to fuse into one CMPBRI
// carrying 254 absorbed instructions, whose count of 256 wrapped: 258
// guest instructions were reported as 2. A plain instruction carrying 255
// wrapped to 0 the same way.
func TestFusedInstCountFitsPlan(t *testing.T) {
	fusedAtLimit := false
	for _, dead := range []int{0, 1, 252, 253, 254, 255, 256, 400} {
		var code []Inst
		for i := 0; i < dead; i++ {
			code = append(code, Inst{Op: MOV, Rd: 13, Rs: RA0})
		}
		n := len(code)
		code = append(code,
			Inst{Op: SLTI, Rd: 14, Rs: RA0, Imm: 5},
			Inst{Op: BNEZ, Rs: 14, Target: n + 4},
			Inst{Op: LI, Rd: RRV, Imm: 1},
			Inst{Op: RET},
			Inst{Op: LI, Rd: RRV, Imm: 2},
			Inst{Op: RET})
		fr := Fuse(code, FuseOptions{})
		if fr.Stats.CmpBranchFused > 0 && InstCount(&fr.Code[0]) == 255 {
			fusedAtLimit = true
		}
		vPlain, plain := runSnippet(t, code, nil)
		vFused, fused := runSnippet(t, fr.Code, nil)
		if vPlain != 2 || vFused != 2 {
			t.Fatalf("%d dead writes: results %d and %d, want 2", dead, vPlain, vFused)
		}
		if fused.Insts != plain.Insts || fused.Cycles != plain.Cycles {
			t.Errorf("%d dead writes: fused code ran %d insts in %d cycles, unfused %d in %d",
				dead, fused.Insts, fused.Cycles, plain.Insts, plain.Cycles)
		}
	}
	if !fusedAtLimit {
		t.Error("no case fused a compare-branch carrying a full 8-bit count")
	}
}
