// Package stitcher implements the paper's dynamic compiler (section 4).
// Given the machine-code templates, directives and the run-time constants
// table computed by set-up code, the stitcher copies templates into an
// executable code segment, patching holes with constant values, resolving
// constant branches (dead-code elimination), completely unrolling annotated
// loops by walking the per-iteration linked table records, maintaining a
// linearized table for large and non-integer constants, and applying
// peephole strength reduction that exploits the actual constant values.
//
// Emission (fast.go) consumes the copy-and-patch stencils the `stencil`
// pipeline pass precompiled into each region: block bodies are bulk-copied
// between patch points and every hole, loop transition and terminator
// follows a precomputed descriptor. Record contexts are dense per-loop
// windows bump-allocated from an arena, and block emissions are memoized
// in an integer-keyed table. Warm, emission performs no allocation until
// the finished segment is materialized. A region without a stencil cannot
// be stitched: Stitch returns an error for it.
package stitcher

import (
	"fmt"
	"sync"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// Options control optional stitcher behaviour.
type Options struct {
	// NoStrengthReduction disables the value-based peephole rewrites
	// (ablation switch; the paper's Table 3 "strength reduction" column).
	NoStrengthReduction bool
	// NoFuse disables post-stitch superinstruction fusion (ablation
	// switch; fusion is host-side only and modeled-cost neutral).
	NoFuse bool
	// RegisterActions enables the Wall-style register-action extension
	// (paper section 5): promotion of stack/array slots addressed by
	// run-time-constant offsets into reserved registers.
	RegisterActions bool
}

// Stats reports what one stitch did.
type Stats struct {
	InstsStitched      int
	HolesPatched       int
	BranchesResolved   int // constant branches eliminated (dead code elim)
	LoopIterations     int // unrolled copies emitted
	StrengthReductions int
	LargeConsts        int
	LoadsPromoted      int // register actions: loads replaced by registers
	StoresPromoted     int
	CyclesModeled      uint64
	Fusion             vm.FuseStats // post-stitch superinstruction fusion
}

// Modeled cycle costs of stitcher work, charged per action. The stitcher
// itself is host code; these constants stand in for the directive
// interpreter the paper measures (whose cost dominates its Table 2
// overhead column).
const (
	costPerInst   = 6  // copy one template instruction
	costPerHole   = 10 // patch one hole (table lookup + encode)
	costPerBlock  = 12 // directive bookkeeping per block visited
	costPerBranch = 8  // resolve a constant branch
	costPerIter   = 14 // advance to the next loop record
	costPerLConst = 6  // install a large constant
)

// Retention caps for pooled scratch state. Stitching is bursty, so buffers
// are pooled across calls — but one pathological stitch (a deeply unrolled
// region) must not pin its high-water marks forever. Anything grown past
// these thresholds is dropped when the scratch returns to the pool.
const (
	maxPooledCode      = 1 << 14 // out buffer, instructions
	maxPooledConsts    = 1 << 10 // large-constant table entries
	maxPooledMemoEnts  = 1 << 12 // memoized block emissions
	maxPooledKeyWords  = 1 << 14 // memo key arena, words
	maxPooledCtxChunks = 8       // record-context arena chunks
)

// scratch holds the per-stitch working state. The stitch struct itself is
// pooled (not just its buffers) so a warm stitch performs no allocation
// before segment materialization.
type scratch struct{ st stitch }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Stitch instantiates region's templates against the run-time constants
// table at tableBase in mem, producing an executable segment whose exits
// XFER back into parent. The region must carry the precompiled stencil the
// `stencil` pipeline pass attaches; a region without one is an error.
// Stitch is safe to call concurrently (the runtime singleflights
// concurrent stitches of the same specialization, but distinct
// specializations may stitch in parallel).
func Stitch(region *tmpl.Region, mem []int64, tableBase int64,
	parent *vm.Segment, opts Options) (*vm.Segment, Stats, error) {

	if err := checkStencil(region); err != nil {
		return nil, Stats{}, err
	}
	sc := scratchPool.Get().(*scratch)
	st := &sc.st
	st.begin(region, mem, tableBase, opts)
	if err := st.emit(); err != nil {
		st.release(sc)
		return nil, Stats{}, err
	}
	seg := st.materialize(parent)
	stats := st.statsVal
	st.release(sc)
	return seg, stats, nil
}

// DryStitch runs the full emission pipeline — block walk, hole patching,
// branch resolution, loop unrolling, peephole cleanup — without
// materializing a segment. On warm scratch a dry stitch is
// allocation-free, so DryStitch (BenchmarkDryStitchStencil) isolates
// emission cost from the allocations of a real stitch (the segment, its
// fused code and its four-object exec plan: 6 objects,
// TestStitchAllocBudget).
func DryStitch(region *tmpl.Region, mem []int64, tableBase int64,
	opts Options) (Stats, error) {

	if err := checkStencil(region); err != nil {
		return Stats{}, err
	}
	sc := scratchPool.Get().(*scratch)
	st := &sc.st
	st.begin(region, mem, tableBase, opts)
	err := st.emit()
	if err == nil {
		st.statsVal.InstsStitched = len(st.out)
		st.statsVal.CyclesModeled += uint64(costPerInst * len(st.out))
	}
	stats := st.statsVal
	st.release(sc)
	return stats, err
}

// checkStencil rejects a region the `stencil` pass did not precompile.
func checkStencil(region *tmpl.Region) error {
	if region.Stencil == nil {
		return fmt.Errorf("stitch: region %s has no stencil", region.Name)
	}
	return nil
}

type stitch struct {
	r    *tmpl.Region
	sten *tmpl.Stencil // region's precompiled stencils
	mem  []int64
	tbl  int64
	opts Options

	out    []vm.Inst
	consts []int64
	cindex map[int64]int

	// Emission memo table: open addressing over integer keys held in a
	// flat arena. A key is the block index followed by the active record
	// address of each enclosing unrolled loop in ascending-id order, so it
	// identifies one emission of a block.
	memoSlots   []int32 // hash slot -> memoEntries index, or -1
	memoEntries []memoEntry
	memoKeys    []int64
	keyBuf      []int64

	// Record contexts: dense per-loop windows (index = loop id, value =
	// active record address, -1 = no active record) bump-allocated from a
	// chunked arena so windows never move as the arena grows.
	ctx    ctxArena
	nSlots int // window length: 1 + the region's max loop id

	// Cleanup-pass scratch (peephole, NOP stripping, dead-write marking).
	pcBuf   []int
	keepBuf []bool

	statsVal Stats
	stats    *Stats
}

type memoEntry struct {
	off, n int32 // key: memoKeys[off : off+n]
	pc     int32
}

// begin resets pooled state and binds the stitch to one region/table.
func (st *stitch) begin(region *tmpl.Region, mem []int64, tableBase int64, opts Options) {
	st.r = region
	st.sten = region.Stencil
	st.mem = mem
	st.tbl = tableBase
	st.opts = opts
	st.out = st.out[:0]
	st.consts = st.consts[:0]
	if st.cindex == nil {
		st.cindex = make(map[int64]int, 16)
	} else {
		clear(st.cindex)
	}
	st.memoEntries = st.memoEntries[:0]
	st.memoKeys = st.memoKeys[:0]
	for i := range st.memoSlots {
		st.memoSlots[i] = -1
	}
	st.ctx.reset()
	st.statsVal = Stats{}
	st.stats = &st.statsVal
	st.nSlots = st.sten.NumLoopSlots
}

// release trims oversized buffers, drops every reference to caller-owned
// data (the pool must never pin a machine's memory or a region), and
// returns the scratch to the pool.
func (st *stitch) release(sc *scratch) {
	if cap(st.out) > maxPooledCode {
		st.out = nil
	}
	if cap(st.consts) > maxPooledConsts {
		st.consts = nil
	}
	if len(st.cindex) > maxPooledConsts {
		st.cindex = nil
	}
	if cap(st.memoEntries) > maxPooledMemoEnts {
		st.memoEntries, st.memoSlots = nil, nil
	}
	if cap(st.memoKeys) > maxPooledKeyWords {
		st.memoKeys = nil
	}
	st.ctx.trim(maxPooledCtxChunks)
	st.r, st.sten, st.mem, st.stats = nil, nil, nil, nil
	scratchPool.Put(sc)
}

// emit runs block emission from the region entry plus the cleanup
// passes, leaving the finished code in st.out.
func (st *stitch) emit() error {
	entryPC, err := st.emitBlock(int(st.sten.Entry), st.rootCtx())
	if err != nil {
		return err
	}
	if entryPC != 0 {
		return fmt.Errorf("stitch: entry not at pc 0")
	}
	st.peephole()
	if st.opts.RegisterActions {
		st.registerActions()
	}
	return nil
}

// materialize builds the exact-size executable segment from the finished
// emission. Fusion rewrites st.out in place (it is scratch the stitch
// discards) and installs its exact-size result, so the emission is copied
// once either way. A warm stitch allocates only here:
// the segment, its code, the constant table (when there are large
// constants) and its exec plan (header and three arrays); the segment
// name is the stencil's.
func (st *stitch) materialize(parent *vm.Segment) *vm.Segment {
	st.stats.InstsStitched = len(st.out)
	st.stats.CyclesModeled += uint64(costPerInst * len(st.out))

	var consts []int64
	if len(st.consts) > 0 {
		consts = make([]int64, len(st.consts))
		copy(consts, st.consts)
	}
	seg := &vm.Segment{
		Name:     st.sten.SegName,
		Consts:   consts,
		Parent:   parent,
		Region:   st.r.Index,
		Stitched: true,
	}
	if st.opts.NoFuse {
		seg.Code = make([]vm.Inst, len(st.out))
		copy(seg.Code, st.out)
	} else {
		// Superinstruction fusion on the finished stitch. Runs after the
		// stats above so Table 2/3 report the pre-fusion stitch work;
		// modeled guest cycles are unchanged by construction. Stitched
		// code has uniform attribution, no entry markers and no jump
		// tables; its XFERs target the parent and are left alone.
		st.stats.Fusion = vm.FuseStitched(seg, st.out)
	}
	seg.Prepare() // pay plan derivation at stitch time, not first run
	return seg
}

func (st *stitch) add(in vm.Inst) int {
	st.out = append(st.out, in)
	return len(st.out) - 1
}

// ---- record contexts ----

// ctxArena bump-allocates record-context windows in fixed chunks, so
// outstanding windows never move when the arena grows and the chunks are
// reused across stitches.
type ctxArena struct {
	chunks [][]int64
	ci     int // chunk cursor
	off    int // offset within chunks[ci]
}

const ctxChunkWords = 2048

func (a *ctxArena) reset() { a.ci, a.off = 0, 0 }

func (a *ctxArena) trim(maxChunks int) {
	if len(a.chunks) > maxChunks {
		a.chunks = a.chunks[:maxChunks]
	}
}

func (a *ctxArena) alloc(n int) []int64 {
	if n == 0 {
		return nil
	}
	for {
		if a.ci < len(a.chunks) {
			ch := a.chunks[a.ci]
			if a.off+n <= len(ch) {
				w := ch[a.off : a.off+n : a.off+n]
				a.off += n
				return w
			}
			a.ci++
			a.off = 0
			continue
		}
		size := ctxChunkWords
		if n > size {
			size = n
		}
		a.chunks = append(a.chunks, make([]int64, size))
	}
}

// rootCtx returns the entry context: no loop has an active record.
func (st *stitch) rootCtx() []int64 {
	w := st.ctx.alloc(st.nSlots)
	for i := range w {
		w[i] = -1
	}
	return w
}

// ---- emission memo table ----

func memoHash(key []int64) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for _, k := range key {
		h ^= uint64(k)
		h *= 1099511628211
	}
	return h
}

func (st *stitch) memoGet(key []int64) (int, bool) {
	n := len(st.memoSlots)
	if n == 0 {
		return 0, false
	}
	mask := uint64(n - 1)
	for i := memoHash(key) & mask; ; i = (i + 1) & mask {
		ei := st.memoSlots[i]
		if ei < 0 {
			return 0, false
		}
		e := &st.memoEntries[ei]
		if int(e.n) == len(key) && keysEqual(st.memoKeys[e.off:e.off+e.n], key) {
			return int(e.pc), true
		}
	}
}

func (st *stitch) memoPut(key []int64, pc int) {
	if len(st.memoSlots) == 0 || (len(st.memoEntries)+1)*4 > len(st.memoSlots)*3 {
		st.memoGrow()
	}
	off := len(st.memoKeys)
	st.memoKeys = append(st.memoKeys, key...)
	st.memoEntries = append(st.memoEntries, memoEntry{off: int32(off), n: int32(len(key)), pc: int32(pc)})
	st.memoInsert(int32(len(st.memoEntries)-1), key)
}

func (st *stitch) memoInsert(ei int32, key []int64) {
	mask := uint64(len(st.memoSlots) - 1)
	i := memoHash(key) & mask
	for st.memoSlots[i] >= 0 {
		i = (i + 1) & mask
	}
	st.memoSlots[i] = ei
}

func (st *stitch) memoGrow() {
	n := len(st.memoSlots) * 2
	if n < 64 {
		n = 64
	}
	if cap(st.memoSlots) >= n {
		st.memoSlots = st.memoSlots[:n]
	} else {
		st.memoSlots = make([]int32, n)
	}
	for i := range st.memoSlots {
		st.memoSlots[i] = -1
	}
	for ei := range st.memoEntries {
		e := &st.memoEntries[ei]
		st.memoInsert(int32(ei), st.memoKeys[e.off:e.off+e.n])
	}
}

func keysEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- slot resolution ----

// readRef resolves an integer-coded slot reference (loopID -1 = region
// table, else the loop's active record) and reads its value.
func (st *stitch) readRef(loopID, slot int, ctx []int64) (int64, error) {
	base := st.tbl
	if loopID >= 0 {
		if loopID >= len(ctx) || ctx[loopID] < 0 {
			return 0, fmt.Errorf("stitch: no active record for loop %d", loopID)
		}
		base = ctx[loopID]
	}
	a := base + int64(slot)
	if a < 0 || a >= int64(len(st.mem)) {
		return 0, fmt.Errorf("stitch: table slot out of bounds (%d)", a)
	}
	return st.mem[a], nil
}

// largeConst interns v in the linearized large-constant table.
func (st *stitch) largeConst(v int64) int64 {
	if i, ok := st.cindex[v]; ok {
		return int64(i)
	}
	i := len(st.consts)
	st.consts = append(st.consts, v)
	st.cindex[v] = i
	st.stats.LargeConsts++
	st.stats.CyclesModeled += costPerLConst
	return int64(i)
}

// ---- scratch growth helpers ----

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}
