package ir

import "math/bits"

// Dense per-value and per-block tables. Values index Func.vals and block
// IDs are below NumBlockIDs, so a pass's per-value or per-block state can
// live in a slice (or a bitset) instead of a map. Every table here is
// allocated by the call that uses it and dropped when it returns, so
// concurrent compilations (core.CompileBatch) share none of them.

// ValueSet is a dense set of values: bit v%64 of word v/64 is set when v is
// a member. Iteration is in ascending value order.
type ValueSet []uint64

// NewValueSet returns an empty set with room for values below n.
func NewValueSet(n int) ValueSet { return make(ValueSet, (n+63)>>6) }

// Has reports whether v is a member; values beyond the set's room are not.
func (s ValueSet) Has(v Value) bool {
	w := uint(v) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(v)&63)) != 0
}

// Add inserts v, which must be below the room the set was made with.
func (s ValueSet) Add(v Value) { s[uint(v)>>6] |= 1 << (uint(v) & 63) }

// Remove deletes v; values beyond the set's room are ignored.
func (s ValueSet) Remove(v Value) {
	if w := uint(v) >> 6; w < uint(len(s)) {
		s[w] &^= 1 << (uint(v) & 63)
	}
}

// ForEach calls fn for every member in ascending order.
func (s ValueSet) ForEach(fn func(Value)) {
	for i, w := range s {
		for w != 0 {
			fn(Value(i<<6 | bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Liveness holds the live-in and live-out value sets of every block, by
// Block.ID, in two flat arrays of fixed-width rows.
type Liveness struct {
	words   int
	in, out []uint64
}

// In returns the values live at b's entry. The set aliases the analysis.
func (l *Liveness) In(b *Block) ValueSet { return row(l.in, l.words, b.ID) }

// Out returns the values live at b's exit. The set aliases the analysis.
func (l *Liveness) Out(b *Block) ValueSet { return row(l.out, l.words, b.ID) }

func row(tbl []uint64, words, id int) ValueSet {
	return ValueSet(tbl[id*words : (id+1)*words : (id+1)*words])
}

// ComputeLiveness solves backward live-variable dataflow over f.Blocks:
// in = use ∪ (out − def), out = ∪ in(succ), iterated word-wise to the least
// fixpoint. Values in skip (which may be nil) never enter a use set, so
// they are never live. Blocks not in f.Blocks have empty sets.
func ComputeLiveness(f *Func, skip ValueSet) *Liveness {
	w := (f.NumValues() + 63) >> 6
	n := f.numBlocks * w
	buf := make([]uint64, 4*n)
	use, def, in, out := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	for _, b := range f.Blocks {
		u, d := row(use, w, b.ID), row(def, w, b.ID)
		for _, ins := range b.Instrs {
			for _, a := range ins.Args {
				if a != 0 && !d.Has(a) && !skip.Has(a) {
					u.Add(a)
				}
			}
			if ins.Dst != 0 {
				d.Add(ins.Dst)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for k := len(f.Blocks) - 1; k >= 0; k-- {
			b := f.Blocks[k]
			o := row(out, w, b.ID)
			for _, s := range b.Succs() {
				for i, x := range row(in, w, s.ID) {
					o[i] |= x
				}
			}
			u, d, li := row(use, w, b.ID), row(def, w, b.ID), row(in, w, b.ID)
			for i := range li {
				if x := u[i] | o[i]&^d[i]; x != li[i] {
					li[i] = x
					changed = true
				}
			}
		}
	}
	return &Liveness{words: w, in: in, out: out}
}

// NumBlockIDs returns one more than the largest block ID ever allocated in
// f: the length of a table indexed by Block.ID.
func (f *Func) NumBlockIDs() int { return f.numBlocks }
