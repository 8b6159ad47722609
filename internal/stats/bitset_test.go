package stats

import (
	"math/rand/v2"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130) // spans three words
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitset: len=%d count=%d", b.Len(), b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("Test(%d) false after Set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 3 {
		t.Fatalf("Clear(64) left Test=%v Count=%d", b.Test(64), b.Count())
	}
	// Setting twice is idempotent.
	b.Set(0)
	if b.Count() != 3 {
		t.Fatalf("double Set changed count to %d", b.Count())
	}
}

func TestBitsetAndOrAgainstMaps(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 20; trial++ {
		a, b := NewBitset(n), NewBitset(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.4 {
				a.Set(i)
				ma[i] = true
			}
			if rng.Float64() < 0.4 {
				b.Set(i)
				mb[i] = true
			}
		}
		or := clone(a)
		or.OrWith(b)
		and := clone(a)
		and.AndWith(b)
		for i := 0; i < n; i++ {
			if or.Test(i) != (ma[i] || mb[i]) {
				t.Fatalf("trial %d: OrWith wrong at %d", trial, i)
			}
			if and.Test(i) != (ma[i] && mb[i]) {
				t.Fatalf("trial %d: AndWith wrong at %d", trial, i)
			}
		}
		// Clone independence: mutating the clone leaves the original alone.
		c := clone(a)
		c.Clear(0)
		c.Set(1)
		if a.Test(1) && !ma[1] {
			t.Fatal("Clone shares storage with original")
		}
	}
}

func TestBitsetSizeMismatchPanics(t *testing.T) {
	ops := map[string]func(a, b *Bitset){
		"AndWith":    func(a, b *Bitset) { a.AndWith(b) },
		"OrWith":     func(a, b *Bitset) { a.OrWith(b) },
		"AndNotWith": func(a, b *Bitset) { a.AndNotWith(b) },
		"CopyFrom":   func(a, b *Bitset) { a.CopyFrom(b) },
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

func TestBitsetAndNotAgainstMaps(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 20; trial++ {
		a, b := NewBitset(n), NewBitset(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.5 {
				a.Set(i)
				ma[i] = true
			}
			if rng.Float64() < 0.5 {
				b.Set(i)
				mb[i] = true
			}
		}
		diff := clone(a)
		diff.AndNotWith(b)
		for i := 0; i < n; i++ {
			if diff.Test(i) != (ma[i] && !mb[i]) {
				t.Fatalf("trial %d: AndNotWith wrong at %d", trial, i)
			}
		}
		// Removing a disjoint partition piece from its union restores the
		// other piece exactly — the identity the RSRL window patch uses.
		union := clone(a)
		union.AndNotWith(b) // a \ b
		rest := clone(b)
		rest.AndNotWith(a) // b \ a
		both := clone(union)
		both.OrWith(rest)
		both.AndNotWith(rest)
		for i := 0; i < n; i++ {
			if both.Test(i) != union.Test(i) {
				t.Fatalf("trial %d: disjoint subtract wrong at %d", trial, i)
			}
		}
	}
}

func TestBitsetCopyFromAndReset(t *testing.T) {
	a := NewBitset(130)
	for _, i := range []int{0, 5, 63, 64, 100, 129} {
		a.Set(i)
	}
	b := NewBitset(130)
	b.Set(7)
	b.CopyFrom(a)
	if b.Count() != a.Count() || b.Test(7) || !b.Test(129) {
		t.Fatalf("CopyFrom: count=%d (want %d), Test(7)=%v, Test(129)=%v",
			b.Count(), a.Count(), b.Test(7), b.Test(129))
	}
	// CopyFrom must not share storage.
	b.Clear(129)
	if !a.Test(129) {
		t.Fatal("CopyFrom shares storage with source")
	}
	a.CopyFrom(NewBitset(a.Len()))
	if a.Count() != 0 || a.Len() != 130 {
		t.Fatalf("Reset left count=%d len=%d", a.Count(), a.Len())
	}
}

// TestCloneBitsets: the copies hold their sources' elements, in three
// allocations whatever their number, and share storage neither with the
// sources nor with each other: setting the last element of one copy
// leaves its source and its neighbours untouched.
func TestCloneBitsets(t *testing.T) {
	src := NewBitsets(5, 130)
	for k, b := range src {
		if b.Len() != 130 || b.Count() != 0 {
			t.Fatalf("NewBitsets[%d]: len=%d count=%d", k, b.Len(), b.Count())
		}
		b.Set(k)
		b.Set(64 + k)
	}
	clones := CloneBitsets(src)
	for k, c := range clones {
		if c.Len() != 130 || c.Count() != 2 || !c.Test(k) || !c.Test(64+k) {
			t.Fatalf("clone %d: len=%d count=%d, want the elements %d and %d", k, c.Len(), c.Count(), k, 64+k)
		}
	}
	clones[2].Set(129)
	if src[2].Test(129) || clones[1].Count() != 2 || clones[3].Count() != 2 {
		t.Fatal("a clone shares storage with its source or its neighbour")
	}
	if allocs := testing.AllocsPerRun(10, func() { CloneBitsets(src) }); allocs != 3 {
		t.Fatalf("CloneBitsets of %d bitsets allocates %v times, want 3", len(src), allocs)
	}
	if CloneBitsets(nil) != nil {
		t.Fatal("CloneBitsets(nil) is not nil")
	}
}
