// Package ir defines the three-address-code control-flow-graph intermediate
// representation used by the static compiler, together with SSA construction,
// dominance, and verification utilities.
//
// The paper's analyses (run-time constants and reachability) and all
// optimizations operate on this IR "at the lower but more general level of
// control flow graphs connecting three-address code" (paper section 3),
// which is what lets the system handle unstructured C control flow.
package ir

import (
	"fmt"
	"strings"

	"dyncc/internal/token"
	"dyncc/internal/types"
)

// Value names an SSA value (or, before SSA construction, a virtual
// register). Value 0 is "no value".
type Value int

// Op enumerates IR operations.
type Op int

// IR operations.
const (
	OpInvalid Op = iota

	// Constants and addresses.
	OpConst      // Dst = Const (integer)
	OpFConst     // Dst = F (float)
	OpGlobalAddr // Dst = &global(Sym)
	OpStackAddr  // Dst = &stackslot(Slot)

	// Moves.
	OpCopy // Dst = Args[0]

	// Integer arithmetic (64-bit two's complement).
	OpAdd
	OpSub
	OpMul
	OpDiv  // signed; traps on zero
	OpUDiv // unsigned; traps on zero
	OpMod  // signed
	OpUMod // unsigned
	OpAnd
	OpOr
	OpXor
	OpShl
	OpAShr // arithmetic shift right
	OpLShr // logical shift right

	// Integer comparisons (produce 0/1).
	OpEq
	OpNe
	OpLt // signed <
	OpLe // signed <=
	OpULt
	OpULe

	// Unary.
	OpNeg // -x
	OpNot // ~x

	// Floating point.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFEq
	OpFNe
	OpFLt
	OpFLe

	// Conversions.
	OpIntToFloat
	OpFloatToInt

	// Memory. Load: Dst = *(Args[0] + Const). Store: *(Args[0]+Const) = Args[1].
	OpLoad
	OpStore

	// Calls: Dst = Sym(Args...). Dst may be 0 for void.
	OpCall

	// SSA φ. Args parallel to Blk.Preds.
	OpPhi

	// Terminators.
	OpBr     // if Args[0] != 0 goto Targets[0] else Targets[1]
	OpJump   // goto Targets[0]
	OpSwitch // switch Args[0]: Cases[i] -> Targets[i]; default -> Targets[len(Cases)]
	OpRet    // return Args[0] (optional)

	// Dynamic-region pseudo-instructions, inserted by the splitter.
	OpDynEnter  // terminator: Targets[0]=set-up entry, Targets[1]=template entry
	OpDynStitch // terminator: Targets[0]=template entry (control continues in stitched code)

	// Run-time constants table stores, emitted in set-up code.
	// OpTblStore: table[Slot (region) or current record slot] = Args[0].
	// Args[1] (optional) is the table/record base pointer value.
	OpTblStore

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpConst:   "const", OpFConst: "fconst",
	OpGlobalAddr: "globaladdr", OpStackAddr: "stackaddr",
	OpCopy: "copy",
	OpAdd:  "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpUDiv: "udiv", OpMod: "mod", OpUMod: "umod",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpAShr: "ashr", OpLShr: "lshr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpULt: "ult", OpULe: "ule",
	OpNeg: "neg", OpNot: "not",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpFEq: "feq", OpFNe: "fne", OpFLt: "flt", OpFLe: "fle",
	OpIntToFloat: "itof", OpFloatToInt: "ftoi",
	OpLoad: "load", OpStore: "store",
	OpCall: "call", OpPhi: "phi",
	OpBr: "br", OpJump: "jump", OpSwitch: "switch", OpRet: "ret",
	OpDynEnter: "dynenter", OpDynStitch: "dynstitch",
	OpTblStore: "tblstore",
}

// String returns the mnemonic of the op.
func (o Op) String() string {
	if o > 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpBr, OpJump, OpSwitch, OpRet, OpDynEnter, OpDynStitch:
		return true
	}
	return false
}

// IsPureNonTrapping reports whether the op is idempotent, side-effect-free
// and non-trapping — the condition under which its result may be treated as
// a derived run-time constant (paper section 3.1). Division and modulus are
// excluded because they might trap.
func (o Op) IsPureNonTrapping() bool {
	switch o {
	case OpConst, OpFConst, OpGlobalAddr, OpCopy,
		OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpAShr, OpLShr,
		OpEq, OpNe, OpLt, OpLe, OpULt, OpULe,
		OpNeg, OpNot,
		OpFAdd, OpFSub, OpFMul, OpFNeg, OpFEq, OpFNe, OpFLt, OpFLe,
		OpIntToFloat, OpFloatToInt:
		return true
	}
	return false
}

// IsCommutative reports whether Args[0] and Args[1] may be swapped.
func (o Op) IsCommutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe, OpFAdd, OpFMul, OpFEq, OpFNe:
		return true
	}
	return false
}

// Instr is a single three-address instruction.
type Instr struct {
	Op   Op
	Dst  Value
	Args []Value
	Blk  *Block

	Const   int64       // OpConst value; Load/Store word offset
	F       float64     // OpFConst value
	Sym     string      // global name or callee
	Slot    int         // OpStackAddr slot; OpTblStore slot
	Loop    *Loop       // OpTblStore: owning unrolled loop (nil = region scope)
	Typ     *types.Type // result type; element type for Load/Store
	Dynamic bool        // Load through a `dynamic*` dereference
	Cases   []int64     // OpSwitch case values
	Targets []*Block    // branch targets
	Pos     token.Pos
}

// Block is a basic block.
type Block struct {
	ID     int
	Fn     *Func
	Instrs []*Instr
	Preds  []*Block

	// Region/loop membership, filled in during lowering.
	Region *Region // innermost dynamic region containing this block, or nil
	Loops  []*Loop // innermost-last chain of enclosing unrolled loops

	// Template marks blocks moved to the template subgraph by the splitter;
	// Setup marks blocks synthesized for the region's set-up code.
	Template bool
	Setup    bool
}

// Term returns the block terminator (last instruction).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks (terminator targets).
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Targets
}

// predIndex returns the index of p within b.Preds, or -1.
func (b *Block) predIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// RemovePred removes predecessor p, dropping the corresponding φ arguments.
func (b *Block) RemovePred(p *Block) {
	i := b.predIndex(p)
	if i < 0 {
		return
	}
	b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		in.Args = append(in.Args[:i], in.Args[i+1:]...)
	}
}

// Phis returns the leading φ instructions of the block.
func (b *Block) Phis() []*Instr {
	var ps []*Instr
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		ps = append(ps, in)
	}
	return ps
}

// InLoop reports whether b is inside unrolled loop l.
func (b *Block) InLoop(l *Loop) bool {
	for _, x := range b.Loops {
		if x == l {
			return true
		}
	}
	return false
}

// Loop describes an `unrolled for` loop recorded at lowering time.
type Loop struct {
	ID     int
	Head   *Block  // loop-head merge block (φs for induction variables)
	Latch  *Block  // block holding the back edge to Head
	Parent *Loop   // enclosing unrolled loop, if any
	Region *Region // owning dynamic region

	// Filled by the splitter: table layout for per-iteration constants.
	HeaderSlot int // slot (in parent scope) holding pointer to first record
	RecordSize int // words per iteration record, incl. cond and next-link
	CondSlot   int // always 0: per-iteration continue condition
}

// Region describes a dynamicRegion annotation.
type Region struct {
	ID     int
	Fn     *Func
	Entry  *Block // dedicated, empty entry block
	Exit   *Block // dedicated continuation block after the region
	Keys   []Value
	Consts []Value // annotated run-time constants at entry (SSA values)
	Loops  []*Loop

	// KeyNames/ConstNames keep the source spelling for diagnostics.
	KeyNames   []string
	ConstNames []string

	// Pre-SSA bookkeeping: variable ids of annotated names; resolved to
	// SSA values (Keys/Consts above) during SSA renaming.
	KeyVars   []Value
	ConstVars []Value

	// Filled by the splitter.
	TableSize int // region-level table slots (incl. loop header slots)

	// Auto marks regions synthesized by the autoregion pass (speculative
	// promotion) rather than annotated in the source.
	Auto bool
}

// Blocks returns all blocks belonging to the region (by membership mark).
func (r *Region) Blocks() []*Block {
	var bs []*Block
	for _, b := range r.Fn.Blocks {
		if b.Region == r {
			bs = append(bs, b)
		}
	}
	return bs
}

// ValueInfo carries per-value metadata.
type ValueInfo struct {
	Name string // source-level name, if any
	Typ  *types.Type
	Def  *Instr // defining instruction (valid once in SSA form)
}

// Func is a function in IR form.
type Func struct {
	Name    string
	Typ     *types.Type // Func type
	Params  []Value     // parameter values, in order
	Blocks  []*Block    // Blocks[0] is entry
	Regions []*Region

	vals      []ValueInfo // index 0 unused
	numBlocks int
	StackSize int // stack slots (words) for address-taken locals/aggregates
	SSA       bool
}

// NewFunc creates an empty function.
func NewFunc(name string, typ *types.Type) *Func {
	return &Func{Name: name, Typ: typ, vals: make([]ValueInfo, 1)}
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewValue allocates a fresh value with the given name and type.
func (f *Func) NewValue(name string, typ *types.Type) Value {
	f.vals = append(f.vals, ValueInfo{Name: name, Typ: typ})
	return Value(len(f.vals) - 1)
}

// NumValues returns the number of allocated values plus one (ids are
// 1..NumValues-1).
func (f *Func) NumValues() int { return len(f.vals) }

// ValueInfo returns metadata for v.
func (f *Func) ValueInfo(v Value) *ValueInfo { return &f.vals[v] }

// TypeOf returns the type of v.
func (f *Func) TypeOf(v Value) *types.Type { return f.vals[v].Typ }

// DefOf returns the defining instruction of v (SSA form only).
func (f *Func) DefOf(v Value) *Instr { return f.vals[v].Def }

// NewBlock appends a new empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.numBlocks, Fn: f}
	f.numBlocks++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Append adds instr to the end of block b and returns it.
func (b *Block) Append(in *Instr) *Instr {
	in.Blk = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in before position i in the block.
func (b *Block) InsertBefore(i int, in *Instr) {
	in.Blk = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// ComputePreds recomputes predecessor lists from terminators.
// It must not be called once φ instructions exist (their argument order
// depends on the existing Preds order); use the incremental CFG-edit
// helpers instead.
func (f *Func) ComputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}

// ReversePostorder returns blocks reachable from entry in reverse postorder.
func (f *Func) ReversePostorder() []*Block {
	seen := make([]bool, f.numBlocks)
	order := make([]*Block, 0, len(f.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs() {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// RemoveUnreachable deletes blocks not reachable from entry, fixing Preds
// and φ arguments of surviving blocks.
func (f *Func) RemoveUnreachable() {
	reach := make([]bool, f.numBlocks) // by Block.ID
	for _, b := range f.ReversePostorder() {
		reach[b.ID] = true
	}
	for _, b := range f.Blocks {
		if !reach[b.ID] {
			for _, s := range b.Succs() {
				if reach[s.ID] {
					s.RemovePred(b)
				}
			}
		}
	}
	var keep []*Block
	for _, b := range f.Blocks {
		if reach[b.ID] {
			keep = append(keep, b)
		}
	}
	f.Blocks = keep
}

// ---------------------------------------------------------------- printing

// String renders the function in a stable textual form.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s {\n", f.Name)
	for _, b := range f.Blocks {
		sb.WriteString(b.String())
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String renders one block.
func (b *Block) String() string {
	var sb strings.Builder
	var tags []string
	if b.Region != nil {
		tags = append(tags, fmt.Sprintf("region%d", b.Region.ID))
	}
	if b.Template {
		tags = append(tags, "template")
	}
	for _, l := range b.Loops {
		tags = append(tags, fmt.Sprintf("loop%d", l.ID))
	}
	var preds []string
	for _, p := range b.Preds {
		preds = append(preds, fmt.Sprintf("b%d", p.ID))
	}
	fmt.Fprintf(&sb, "b%d:", b.ID)
	if len(preds) > 0 {
		fmt.Fprintf(&sb, " ; preds=%s", strings.Join(preds, ","))
	}
	if len(tags) > 0 {
		fmt.Fprintf(&sb, " [%s]", strings.Join(tags, " "))
	}
	sb.WriteByte('\n')
	for _, in := range b.Instrs {
		fmt.Fprintf(&sb, "\t%s\n", in)
	}
	return sb.String()
}

// String renders an instruction.
func (in *Instr) String() string {
	v := func(x Value) string { return fmt.Sprintf("v%d", x) }
	var rhs string
	switch in.Op {
	case OpConst:
		rhs = fmt.Sprintf("const %d", in.Const)
	case OpFConst:
		rhs = fmt.Sprintf("fconst %g", in.F)
	case OpGlobalAddr:
		rhs = fmt.Sprintf("globaladdr %s", in.Sym)
	case OpStackAddr:
		rhs = fmt.Sprintf("stackaddr #%d", in.Slot)
	case OpLoad:
		d := ""
		if in.Dynamic {
			d = " dynamic"
		}
		rhs = fmt.Sprintf("load%s [%s+%d]", d, v(in.Args[0]), in.Const)
	case OpStore:
		return fmt.Sprintf("store [%s+%d] = %s", v(in.Args[0]), in.Const, v(in.Args[1]))
	case OpCall:
		var as []string
		for _, a := range in.Args {
			as = append(as, v(a))
		}
		rhs = fmt.Sprintf("call %s(%s)", in.Sym, strings.Join(as, ", "))
		if in.Dst == 0 {
			return rhs
		}
	case OpPhi:
		var as []string
		for i, a := range in.Args {
			p := "?"
			if i < len(in.Blk.Preds) {
				p = fmt.Sprintf("b%d", in.Blk.Preds[i].ID)
			}
			as = append(as, fmt.Sprintf("%s:%s", p, v(a)))
		}
		rhs = fmt.Sprintf("phi [%s]", strings.Join(as, ", "))
	case OpBr:
		return fmt.Sprintf("br %s, b%d, b%d", v(in.Args[0]), in.Targets[0].ID, in.Targets[1].ID)
	case OpJump:
		return fmt.Sprintf("jump b%d", in.Targets[0].ID)
	case OpSwitch:
		var cs []string
		for i, c := range in.Cases {
			cs = append(cs, fmt.Sprintf("%d:b%d", c, in.Targets[i].ID))
		}
		cs = append(cs, fmt.Sprintf("default:b%d", in.Targets[len(in.Cases)].ID))
		return fmt.Sprintf("switch %s [%s]", v(in.Args[0]), strings.Join(cs, ", "))
	case OpRet:
		if len(in.Args) == 0 {
			return "ret"
		}
		return fmt.Sprintf("ret %s", v(in.Args[0]))
	case OpDynEnter:
		return fmt.Sprintf("dynenter region -> setup b%d, template b%d", in.Targets[0].ID, in.Targets[1].ID)
	case OpDynStitch:
		return fmt.Sprintf("dynstitch -> b%d", in.Targets[0].ID)
	case OpTblStore:
		scope := "region"
		if in.Loop != nil {
			scope = fmt.Sprintf("loop%d", in.Loop.ID)
		}
		return fmt.Sprintf("tblstore %s[%d] = %s", scope, in.Slot, v(in.Args[0]))
	default:
		var as []string
		for _, a := range in.Args {
			as = append(as, v(a))
		}
		rhs = fmt.Sprintf("%s %s", in.Op, strings.Join(as, ", "))
	}
	if in.Dst == 0 {
		return rhs
	}
	return fmt.Sprintf("%s = %s", v(in.Dst), rhs)
}
