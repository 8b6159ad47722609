package stats

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// Plain single-word reference loops: the pre-unroll kernels, the
// oracles of the equivalence tests and the baselines the kernel
// micro-benchmarks measure the unrolled variants against.

func (b *Bitset) orWithPlain(o *Bitset) {
	b.checkSize(o, "OrWith")
	for i, w := range o.words {
		b.words[i] |= w
	}
}

func (b *Bitset) andWithPlain(o *Bitset) {
	b.checkSize(o, "AndWith")
	for i, w := range o.words {
		b.words[i] &= w
	}
}

func (b *Bitset) andNotWithPlain(o *Bitset) {
	b.checkSize(o, "AndNotWith")
	for i, w := range o.words {
		b.words[i] &^= w
	}
}

func (b *Bitset) countPlain() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// clone returns an independent copy of b.
func clone(b *Bitset) *Bitset { return CloneBitsets([]*Bitset{b})[0] }

// randomBitset fills a fresh bitset over [0, n) with density p.
func randomBitset(rng *rand.Rand, n int, p float64) *Bitset {
	b := NewBitset(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
		}
	}
	return b
}

// TestBitsetUnrolledKernelsMatchPlain property-tests the unrolled 4-word
// kernels against the single-word reference loops across sizes that
// exercise every remainder of the 4-way unroll (0..3 tail words) and the
// sub-word edge.
func TestBitsetUnrolledKernelsMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for _, n := range []int{0, 1, 63, 64, 65, 128, 192, 256, 257, 300, 1066} {
		for trial := 0; trial < 10; trial++ {
			a := randomBitset(rng, n, 0.4)
			b := randomBitset(rng, n, 0.4)

			or1, or2 := clone(a), clone(a)
			or1.OrWith(b)
			or2.orWithPlain(b)
			and1, and2 := clone(a), clone(a)
			and1.AndWith(b)
			and2.andWithPlain(b)
			not1, not2 := clone(a), clone(a)
			not1.AndNotWith(b)
			not2.andNotWithPlain(b)
			for i := 0; i < n; i++ {
				if or1.Test(i) != or2.Test(i) {
					t.Fatalf("n=%d: OrWith diverges from plain at %d", n, i)
				}
				if and1.Test(i) != and2.Test(i) {
					t.Fatalf("n=%d: AndWith diverges from plain at %d", n, i)
				}
				if not1.Test(i) != not2.Test(i) {
					t.Fatalf("n=%d: AndNotWith diverges from plain at %d", n, i)
				}
			}
			if got, want := a.Count(), a.countPlain(); got != want {
				t.Fatalf("n=%d: Count=%d plain=%d", n, got, want)
			}
			if got, want := a.AndCount(b), and2.countPlain(); got != want {
				t.Fatalf("n=%d: AndCount=%d, materialized=%d", n, got, want)
			}
		}
	}
}

// TestBitsetFusedCountSizeMismatchPanics extends the uniform size-check
// contract to the fused and journaled binary operations.
func TestBitsetFusedCountSizeMismatchPanics(t *testing.T) {
	var j BitsetJournal
	ops := map[string]func(a, b *Bitset){
		"AndCount":    func(a, b *Bitset) { a.AndCount(b) },
		"OrWithJ":     func(a, b *Bitset) { a.OrWithJ(b, &j) },
		"AndNotWithJ": func(a, b *Bitset) { a.AndNotWithJ(b, &j) },
	}
	for name, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s across sizes did not panic", name)
				}
			}()
			op(NewBitset(10), NewBitset(11))
		}()
	}
}

// TestBitsetJournalRevert drives random journaled mutation sequences over
// several bitsets through one shared journal and checks Revert restores
// every bitset bit for bit — including overlapping mutations of the same
// words and no-op mutations (which must record nothing).
func TestBitsetJournalRevert(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(300)
		sets := make([]*Bitset, 3)
		want := make([]*Bitset, 3)
		for k := range sets {
			sets[k] = randomBitset(rng, n, 0.3)
			want[k] = clone(sets[k])
		}
		var j BitsetJournal
		for step := 0; step < 40; step++ {
			b := sets[rng.IntN(len(sets))]
			switch rng.IntN(4) {
			case 0:
				b.SetJ(rng.IntN(n), &j)
			case 1:
				b.ClearJ(rng.IntN(n), &j)
			case 2:
				b.OrWithJ(randomBitset(rng, n, 0.2), &j)
			case 3:
				b.AndNotWithJ(randomBitset(rng, n, 0.2), &j)
			}
		}
		j.Revert()
		if j.Len() != 0 {
			t.Fatalf("trial %d: journal not empty after Revert: %d", trial, j.Len())
		}
		for k := range sets {
			for i := 0; i < n; i++ {
				if sets[k].Test(i) != want[k].Test(i) {
					t.Fatalf("trial %d: set %d not restored at %d", trial, k, i)
				}
			}
		}
	}
}

// TestBitsetJournalNoOpRecordsNothing pins the diff-proportional
// guarantee: mutations that change nothing must not grow the journal.
func TestBitsetJournalNoOpRecordsNothing(t *testing.T) {
	var j BitsetJournal
	b := NewBitset(128)
	b.Set(5)
	b.SetJ(5, &j)   // already set
	b.ClearJ(6, &j) // already clear
	empty := NewBitset(128)
	b.OrWithJ(empty, &j)     // identity
	b.AndNotWithJ(empty, &j) // identity
	if j.Len() != 0 {
		t.Fatalf("no-op mutations recorded %d entries", j.Len())
	}
	b.SetJ(6, &j)
	b.ClearJ(6, &j)
	if j.Len() != 2 {
		t.Fatalf("two real mutations recorded %d entries", j.Len())
	}
	j.Revert()
	if !b.Test(5) || b.Test(6) {
		t.Fatal("Revert did not restore the original contents")
	}
}

// --- Micro-benchmarks: unrolled vs plain word loops (paper scale:
// 1066 records = Flare) and the fused counts vs their materialized
// equivalents. ---

func benchBitsetPair(n int) (*Bitset, *Bitset) {
	rng := rand.New(rand.NewPCG(17, 1))
	return randomBitset(rng, n, 0.5), randomBitset(rng, n, 0.5)
}

func BenchmarkBitsetKernels(b *testing.B) {
	for _, n := range []int{1066, 100_000} {
		a, o := benchBitsetPair(n)
		kernels := []struct {
			name string
			fn   func()
		}{
			{"And/unrolled", func() { a.AndWith(o) }},
			{"And/plain", func() { a.andWithPlain(o) }},
			{"Or/unrolled", func() { a.OrWith(o) }},
			{"Or/plain", func() { a.orWithPlain(o) }},
			{"AndNot/unrolled", func() { a.AndNotWith(o) }},
			{"AndNot/plain", func() { a.andNotWithPlain(o) }},
			{"Count/unrolled", func() { _ = a.Count() }},
			{"Count/plain", func() { _ = a.countPlain() }},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn()
				}
			})
		}
	}
}

// BenchmarkBitsetFusedCount compares the fused AndCount against the
// CopyFrom+AndWith+Count sequence it replaces in the RSRL sweep.
func BenchmarkBitsetFusedCount(b *testing.B) {
	for _, n := range []int{1066, 100_000} {
		a, o := benchBitsetPair(n)
		scratch := NewBitset(n)
		b.Run(fmt.Sprintf("AndCount/fused/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = a.AndCount(o)
			}
		})
		b.Run(fmt.Sprintf("AndCount/materialized/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scratch.CopyFrom(a)
				scratch.AndWith(o)
				_ = scratch.Count()
			}
		})
	}
}
