// Stencil is the copy-and-patch lowering of a region's templates,
// precompiled at static-compile time by the `stencil` pipeline pass
// (internal/stencil). Everything about the directive structure that does
// not depend on the run-time constants — per-block hole positions, loop
// chains, per-edge loop transitions, memo key layouts — is flattened into
// arrays the stitcher consumes with a memcpy and a patch loop:
//
//   - Body is the block's template code verbatim; Patches is a flat,
//     Pc-sorted table of (offset, kind, slot) holes, so instantiation
//     copies the runs between holes with copy() and dispatches each hole
//     on its precomputed PatchKind;
//   - Term is the terminator with one EdgePlan per successor: the loop
//     record transitions (which loops to enter, in which order, and which
//     record links to advance) are resolved per edge at build time instead
//     of being re-derived from the loop chains per emission;
//   - Chain is the block's enclosing-loop id set in ascending order, the
//     integer-coded memoization key layout (block id followed by the
//     active record of each chain loop).
//
// The stencil is the stitcher's only input form; its semantic reference
// is the unoptimized-IR interpreter the differential tests compare
// against.
package tmpl

import "dyncc/internal/vm"

// PatchKind classifies how a stencil hole is filled, so the stitcher
// switches on a byte instead of re-classifying the instruction per
// emission.
type PatchKind uint8

// Patch kinds.
const (
	// PatchLDC: the hole instruction is an LDC; the value always goes
	// through the linearized large-constant table.
	PatchLDC PatchKind = iota
	// PatchLI: an LI materialization; patched in place when the value fits
	// the immediate field, else rewritten to an LDC.
	PatchLI
	// PatchALU: an immediate ALU operation; strength-reduced against the
	// actual value when profitable, patched in place when it fits, else
	// routed through the large-constant table and the register form.
	PatchALU
)

// Patch is one hole in a stencil block body: patch the instruction at
// Body[Pc] with the value of table slot (Loop, Slot).
type Patch struct {
	Pc   int32     // offset into the owning block's Body
	Kind PatchKind // emission strategy (see PatchKind)
	Loop int32     // integer-coded slot scope: -1 region table, else loop id
	Slot int32     // word offset within that scope
	Inst vm.Inst   // the template instruction being patched (prefetched)
	// RegOp is the precomputed register-register form of Inst.Op, used by
	// PatchALU when the value overflows the immediate field.
	RegOp vm.Op
}

// EnterStep loads the first iteration record of a loop being entered:
// record = table[(HdrLoop, HdrSlot)]. Steps are ordered outermost-first so
// a nested loop's header slot (which lives in its parent's record) resolves
// against the record loaded by the preceding step.
type EnterStep struct {
	Loop    int32 // loop whose record becomes active
	HdrLoop int32 // header slot scope: -1 region table, else enclosing loop id
	HdrSlot int32
}

// AdvanceStep follows a back edge: the loop's active record advances along
// its next-record link (the RESTART_LOOP directive).
type AdvanceStep struct {
	Loop     int32
	NextSlot int32 // offset of the next-record link within each record
}

// EdgePlan is one precompiled successor edge: either a region exit (an
// XFER stub into the parent segment) or a template block together with the
// loop record transitions the edge performs.
type EdgePlan struct {
	Block   int32 // target stencil block, or -1 for a region exit
	ExitPC  int32 // pc in the function segment when Block < 0
	Enter   []EnterStep
	Advance []AdvanceStep
}

// StencilTerm is a precompiled block terminator.
type StencilTerm struct {
	Kind      TermKind
	CondReg   vm.Reg // TermBr on a run-time (non-constant) predicate
	HasConst  bool   // TermBr/TermSwitch resolved at stitch time
	ConstLoop int32  // integer-coded slot of the resolving constant
	ConstSlot int32
	Cases     []int64    // TermSwitch case values
	Edges     []EdgePlan // same layout as Term.Succs
}

// StencilBlock is one precompiled template block.
type StencilBlock struct {
	Body    []vm.Inst // template code verbatim (hole slots still unpatched)
	Patches []Patch   // sorted by Pc, at most one per Pc
	Term    StencilTerm
	// Chain lists the block's enclosing unrolled-loop ids in ascending
	// order: the memo key for one emission of the block is the block id
	// followed by the active record address of each chain loop.
	Chain []int32
}

// Stencil is the precompiled copy-and-patch form of a region's templates.
type Stencil struct {
	Blocks []StencilBlock
	Entry  int32
	// NumLoopSlots is 1 + the region's maximum loop id: the length of the
	// dense record-context windows the stitcher allocates per transition.
	NumLoopSlots int
	// SegName names every segment stitched from the stencil (the region
	// name plus StitchedSuffix), built once here rather than per stitch.
	SegName string
}

// StitchedSuffix ends the name of a region's stitched segments.
const StitchedSuffix = ".stitched"
