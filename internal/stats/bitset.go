package stats

import "math/bits"

// Bitset is a fixed-size set of integers in [0, n), packed 64 per word.
// The record-linkage measures use bitsets to intersect per-attribute
// candidate sets over all records at machine-word speed.
//
// Every binary operation (OrWith, AndWith, AndNotWith, CopyFrom, the
// fused counts and the journaled variants) requires both operands to
// share the same universe size and panics otherwise — mismatched sizes
// are always a caller bug, and silently iterating over the shorter word
// slice would corrupt the linkage summaries.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset over [0, n).
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("stats: negative bitset size")
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// NewBitsets returns k empty bitsets over [0, n) in three allocations:
// the pointers, one array of Bitset values and one word array the
// values share, each bitset owning its own run of words. A state
// holding many bitsets of one universe is built and copied
// (CloneBitsets) at that fixed cost instead of two allocations per
// bitset.
func NewBitsets(k, n int) []*Bitset {
	if n < 0 {
		panic("stats: negative bitset size")
	}
	per := (n + 63) / 64
	words := make([]uint64, k*per)
	vals := make([]Bitset, k)
	out := make([]*Bitset, k)
	for i := range vals {
		vals[i] = Bitset{words: words[i*per : (i+1)*per : (i+1)*per], n: n}
		out[i] = &vals[i]
	}
	return out
}

// CloneBitsets returns independent copies of bs, which must share one
// universe size, laid out as NewBitsets lays them out.
func CloneBitsets(bs []*Bitset) []*Bitset {
	if len(bs) == 0 {
		return nil
	}
	out := NewBitsets(len(bs), bs[0].n)
	for i, b := range bs {
		out[i].CopyFrom(b)
	}
	return out
}

// Len returns the universe size n.
func (b *Bitset) Len() int { return b.n }

// checkSize enforces the uniform size contract of the binary operations.
func (b *Bitset) checkSize(o *Bitset, op string) {
	if b.n != o.n {
		panic("stats: " + op + " on bitsets of different size")
	}
}

// Set adds i to the set.
func (b *Bitset) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear removes i from the set.
func (b *Bitset) Clear(i int) {
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Test reports whether i is in the set.
func (b *Bitset) Test(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// The word kernels below are unrolled four words per iteration: the RSRL
// candidate sweep spends its time in these loops, and 4-way unrolling
// keeps the adds independent (no loop-carried dependency beyond the
// induction variable) so superscalar cores retire several per cycle.
// The single-word forms (orWithPlain etc., in bitset_kernel_test.go) are
// the oracles the kernel equivalence tests and micro-benchmarks compare
// against.

// OrWith adds every element of o to b. Both bitsets must share the same
// universe size.
func (b *Bitset) OrWith(o *Bitset) {
	b.checkSize(o, "OrWith")
	bw := b.words
	ow := o.words[:len(bw)]
	i, n4 := 0, len(bw)&^3
	for ; i < n4; i += 4 {
		bw[i] |= ow[i]
		bw[i+1] |= ow[i+1]
		bw[i+2] |= ow[i+2]
		bw[i+3] |= ow[i+3]
	}
	for ; i < len(bw); i++ {
		bw[i] |= ow[i]
	}
}

// AndWith removes every element of b not in o. Both bitsets must share the
// same universe size.
func (b *Bitset) AndWith(o *Bitset) {
	b.checkSize(o, "AndWith")
	bw := b.words
	ow := o.words[:len(bw)]
	i, n4 := 0, len(bw)&^3
	for ; i < n4; i += 4 {
		bw[i] &= ow[i]
		bw[i+1] &= ow[i+1]
		bw[i+2] &= ow[i+2]
		bw[i+3] &= ow[i+3]
	}
	for ; i < len(bw); i++ {
		bw[i] &= ow[i]
	}
}

// AndNotWith removes every element of o from b. Both bitsets must share
// the same universe size.
func (b *Bitset) AndNotWith(o *Bitset) {
	b.checkSize(o, "AndNotWith")
	bw := b.words
	ow := o.words[:len(bw)]
	i, n4 := 0, len(bw)&^3
	for ; i < n4; i += 4 {
		bw[i] &^= ow[i]
		bw[i+1] &^= ow[i+1]
		bw[i+2] &^= ow[i+2]
		bw[i+3] &^= ow[i+3]
	}
	for ; i < len(bw); i++ {
		bw[i] &^= ow[i]
	}
}

// CopyFrom overwrites b's contents with o's without allocating — the
// in-place counterpart of Clone for reusable scratch bitsets. Both bitsets
// must share the same universe size.
func (b *Bitset) CopyFrom(o *Bitset) {
	b.checkSize(o, "CopyFrom")
	copy(b.words, o.words)
}

// Count returns the number of elements in the set.
func (b *Bitset) Count() int {
	bw := b.words
	i, n4 := 0, len(bw)&^3
	c := 0
	for ; i < n4; i += 4 {
		c += bits.OnesCount64(bw[i]) + bits.OnesCount64(bw[i+1]) +
			bits.OnesCount64(bw[i+2]) + bits.OnesCount64(bw[i+3])
	}
	for ; i < len(bw); i++ {
		c += bits.OnesCount64(bw[i])
	}
	return c
}

// AndCount returns |b ∩ o| without materializing the intersection —
// the fused form of CopyFrom+AndWith+Count for the final attribute of
// the RSRL candidate sweep. Both bitsets must share the same universe
// size.
func (b *Bitset) AndCount(o *Bitset) int {
	b.checkSize(o, "AndCount")
	bw := b.words
	ow := o.words[:len(bw)]
	i, n4 := 0, len(bw)&^3
	c := 0
	for ; i < n4; i += 4 {
		c += bits.OnesCount64(bw[i]&ow[i]) + bits.OnesCount64(bw[i+1]&ow[i+1]) +
			bits.OnesCount64(bw[i+2]&ow[i+2]) + bits.OnesCount64(bw[i+3]&ow[i+3])
	}
	for ; i < len(bw); i++ {
		c += bits.OnesCount64(bw[i] & ow[i])
	}
	return c
}

// BitsetJournal records word-granular before-images of bitset mutations
// so that a batch of changes can be rolled back exactly without cloning
// the bitsets — the undo half of apply/undo delta evaluation. The
// journaled mutation variants (SetJ, ClearJ, OrWithJ, AndNotWithJ)
// record only the words they actually modify, so the journal size is
// proportional to the diff, not to the bitset. One journal may span any
// number of bitsets; Revert restores the recorded words in reverse
// order and leaves the journal empty for reuse.
type BitsetJournal struct {
	sets  []*Bitset
	words []int32
	old   []uint64
}

// Len returns the number of recorded word before-images.
func (j *BitsetJournal) Len() int { return len(j.sets) }

// Reset discards all recorded entries, keeping capacity for reuse.
func (j *BitsetJournal) Reset() {
	j.sets = j.sets[:0]
	j.words = j.words[:0]
	j.old = j.old[:0]
}

// Revert restores every recorded word, newest first, and resets the
// journal. After Revert each journaled bitset holds exactly the contents
// it had before the first recorded mutation.
func (j *BitsetJournal) Revert() {
	for k := len(j.sets) - 1; k >= 0; k-- {
		j.sets[k].words[j.words[k]] = j.old[k]
	}
	j.Reset()
}

func (j *BitsetJournal) record(b *Bitset, w int, old uint64) {
	j.sets = append(j.sets, b)
	j.words = append(j.words, int32(w))
	j.old = append(j.old, old)
}

// SetJ adds i to the set, recording the modified word in j. A no-op
// (bit already set) records nothing.
func (b *Bitset) SetJ(i int, j *BitsetJournal) {
	w := i >> 6
	mask := uint64(1) << (uint(i) & 63)
	if b.words[w]&mask == 0 {
		j.record(b, w, b.words[w])
		b.words[w] |= mask
	}
}

// ClearJ removes i from the set, recording the modified word in j. A
// no-op (bit already clear) records nothing.
func (b *Bitset) ClearJ(i int, j *BitsetJournal) {
	w := i >> 6
	mask := uint64(1) << (uint(i) & 63)
	if b.words[w]&mask != 0 {
		j.record(b, w, b.words[w])
		b.words[w] &^= mask
	}
}

// OrWithJ is OrWith with every changed word recorded in j. Both bitsets
// must share the same universe size.
func (b *Bitset) OrWithJ(o *Bitset, j *BitsetJournal) {
	b.checkSize(o, "OrWithJ")
	bw := b.words
	ow := o.words[:len(bw)]
	for i, w := range ow {
		if nw := bw[i] | w; nw != bw[i] {
			j.record(b, i, bw[i])
			bw[i] = nw
		}
	}
}

// AndNotWithJ is AndNotWith with every changed word recorded in j. Both
// bitsets must share the same universe size.
func (b *Bitset) AndNotWithJ(o *Bitset, j *BitsetJournal) {
	b.checkSize(o, "AndNotWithJ")
	bw := b.words
	ow := o.words[:len(bw)]
	for i, w := range ow {
		if nw := bw[i] &^ w; nw != bw[i] {
			j.record(b, i, bw[i])
			bw[i] = nw
		}
	}
}
