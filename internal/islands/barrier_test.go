package islands

import (
	"context"
	"errors"
	"testing"

	"evoprot/internal/core"
)

// reverseSerialBarrier executes epochs one island at a time in reverse id
// order — the scheduling opposite of InProcessBarrier. Runs under it must
// still be bit-identical: each island's epoch depends only on that
// island's own state.
type reverseSerialBarrier struct {
	epochs int
	seen   [][]int
}

func (b *reverseSerialBarrier) RunEpoch(ctx context.Context, active []int, run func(int)) error {
	b.epochs++
	b.seen = append(b.seen, append([]int(nil), active...))
	for i := len(active) - 1; i >= 0; i-- {
		run(active[i])
	}
	return nil
}

// TestBarrierSchedulingInvariance is the seam's core guarantee: a serial
// reverse-order barrier reproduces the default concurrent run bit for bit
// — histories, migrations, best individual — on a heterogeneous run
// with a stagnation window, the hardest case. A distributed barrier is "just" another
// scheduling, so this is the property remote execution will lean on.
func TestBarrierSchedulingInvariance(t *testing.T) {
	cfg := func() Config {
		return Config{
			Islands:      3,
			MigrateEvery: 10,
			Migrants:     2,
			PerIsland: []Override{
				{},
				{MutationRate: 0.9},
				{Selection: "rank"},
			},
			Engine: core.Config{Generations: 40, Seed: 42, NoImprovementWindow: 15},
		}
	}
	run := func(b EpochBarrier) *Result {
		eval, pop := testPopulation(t)
		c := cfg()
		c.Barrier = b
		r, err := New(context.Background(), eval, pop, c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rb := &reverseSerialBarrier{}
	a, b := run(nil), run(rb)
	if rb.epochs == 0 {
		t.Fatal("custom barrier was never invoked")
	}
	for _, active := range rb.seen {
		if len(active) == 0 {
			t.Fatal("RunEpoch called with no active islands")
		}
	}
	if a.Migrations != b.Migrations {
		t.Fatalf("migrations diverged: %d vs %d", a.Migrations, b.Migrations)
	}
	if a.BestIsland != b.BestIsland || a.Best.Eval.Score != b.Best.Eval.Score {
		t.Fatalf("best diverged: island %d score %v vs island %d score %v",
			a.BestIsland, a.Best.Eval.Score, b.BestIsland, b.Best.Eval.Score)
	}
	for i := range a.Islands {
		x, y := stripTimes(a.Islands[i].History), stripTimes(b.Islands[i].History)
		if len(x) != len(y) {
			t.Fatalf("island %d history lengths %d vs %d", i, len(x), len(y))
		}
		for g := range x {
			if x[g] != y[g] {
				t.Fatalf("island %d generation %d diverged under reverse-serial barrier", i, g+1)
			}
		}
	}
	if !a.Best.Data.Equal(b.Best.Data) {
		t.Fatal("best individual data diverged between barriers")
	}
}

// failingBarrier errors on its nth epoch.
type failingBarrier struct {
	failOn int
	epochs int
	err    error
}

func (b *failingBarrier) RunEpoch(ctx context.Context, active []int, run func(int)) error {
	b.epochs++
	if b.epochs >= b.failOn {
		return b.err
	}
	InProcessBarrier{}.RunEpoch(ctx, active, run)
	return nil
}

// TestBarrierErrorEndsRun: a barrier failure ends the run like a
// cancellation — the error is returned, and the partial result (history
// up to the last completed epoch, best-so-far) is kept.
func TestBarrierErrorEndsRun(t *testing.T) {
	eval, pop := testPopulation(t)
	fb := &failingBarrier{failOn: 3, err: errors.New("worker pool lost")}
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      2,
		MigrateEvery: 5,
		Barrier:      fb,
		Engine:       core.Config{Generations: 60, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if !errors.Is(err, fb.err) {
		t.Fatalf("want the barrier's error, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result must be kept on barrier failure")
	}
	if res.Best == nil {
		t.Fatal("partial result lost best-so-far")
	}
	wantGens := (fb.failOn - 1) * 5
	for i, isl := range res.Islands {
		if len(isl.History) != wantGens {
			t.Fatalf("island %d ran %d generations, want %d (two clean epochs)", i, len(isl.History), wantGens)
		}
		if isl.StopReason != core.StopCancelled {
			t.Fatalf("island %d stop reason %v, want StopCancelled", i, isl.StopReason)
		}
	}
}
