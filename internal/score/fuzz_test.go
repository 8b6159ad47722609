package score_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/infoloss"
	"evoprot/internal/score"
	"evoprot/internal/score/scoretest"
)

// FuzzBatchFromParent runs random, possibly corrupt change lists against
// a parent file and its state. A valid chained list of seed-drawn length
// (on either side of the wide-edit break-even point) is corrupted by the
// edit script in ops: four bytes per edit choose the operation, the
// entry and a value near the legal range. EvaluateBatch must accept
// exactly the lists an independent replay accepts — every edit in
// range, of a protected column, in-domain, and starting from the value
// its cell holds at that point of the replay onto the file. An accepted
// offspring must score bit for bit like Evaluate of the child CloneWith
// builds; a rejection must leave the state scoring like the parent. Each
// list is scored after a valid narrow sibling, so a rejection also
// rolls back an edit the state already applied. Batteries: the default,
// and one with a stateless ML utility, whose slot needs the child's file
// for every narrow edit too.
func FuzzBatchFromParent(f *testing.F) {
	f.Add(uint64(1), uint16(1), []byte{})
	f.Add(uint64(2), uint16(3), []byte{0, 1, 0, 5})
	f.Add(uint64(3), uint16(60), []byte{1, 7, 0, 2})
	f.Add(uint64(4), uint16(5), []byte{4, 0, 0, 1, 2, 3, 0, 0})
	f.Add(uint64(5), uint16(33), []byte{5, 2, 0, 0})
	f.Add(uint64(6), uint16(2), []byte{3, 1, 0, 9})
	orig := datagentest.MustByName("german", 80, 17)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		f.Fatal(err)
	}
	target, err := orig.Schema().Indices("FOREIGN")
	if err != nil {
		f.Fatal(err)
	}
	var evals []*score.Evaluator
	for _, cfg := range []score.Config{
		{},
		{IL: append(infoloss.Default(), scoretest.StripIL(&infoloss.MLUtility{Target: target[0]}))},
	} {
		eval, err := score.NewEvaluator(orig, attrs, cfg)
		if err != nil {
			f.Fatal(err)
		}
		evals = append(evals, eval)
	}
	n := orig.Rows()
	f.Fuzz(func(t *testing.T, seed uint64, length uint16, ops []byte) {
		rng := rand.New(rand.NewPCG(seed, 41))
		parent := orig.Clone()
		applyChanges(rng, parent, attrs, 10)
		sibling := applyChanges(rng, parent.Clone(), attrs, 1)
		list := applyChanges(rng, parent.Clone(), attrs, int(length)%(n+1))
		for i := 0; i+3 < len(ops) && len(list) > 0; i += 4 {
			list = corrupt(list, ops[i:i+4], orig)
		}
		valid := replays(parent, attrs, list)
		for b, eval := range evals {
			ctx := fmt.Sprintf("battery %d, %d changes", b, len(list))
			pe, err := eval.Evaluate(parent)
			if err != nil {
				t.Fatal(err)
			}
			st := prepare(t, eval, parent)
			groups := []score.BatchGroup{{Parent: pe, File: parent, State: st, Offspring: []score.BatchOffspring{
				{Changes: sibling},
				{Changes: list},
			}}}
			err = eval.EvaluateBatch(groups, 1)
			if (err == nil) != valid {
				t.Fatalf("%s: EvaluateBatch error %v, replay valid %v: %v", ctx, err, valid, list)
			}
			if err != nil {
				if groups[0].Pending != -1 {
					t.Fatalf("%s: Pending = %d after a rejection", ctx, groups[0].Pending)
				}
				requireScoresLike(t, eval, st, parent, rng, ctx+", after rejection")
				continue
			}
			for k, off := range groups[0].Offspring {
				child := parent.CloneWith(off.Changes)
				want, err := eval.Evaluate(child)
				if err != nil {
					t.Fatal(err)
				}
				score.RequireIdentical(t, fmt.Sprintf("%s, offspring %d", ctx, k), off.Eval, want)
				if off.Child != nil && !off.Child.Equal(child) {
					t.Fatalf("%s, offspring %d: the built child is not the parent's file with the changes applied", ctx, k)
				}
			}
			if seed%2 == 0 {
				// Keep the last narrow offspring's edit: the state then
				// describes that offspring's file.
				last := groups[0].Offspring[groups[0].Pending].Changes
				eval.Keep(st)
				requireScoresLike(t, eval, st, parent.CloneWith(last), rng, ctx+", kept")
			} else {
				eval.Restore(st)
				requireScoresLike(t, eval, st, parent, rng, ctx+", restored")
			}
		}
	})
}

// corrupt applies one fuzz-chosen edit to a change list: op picks the
// operation, pos the entry, and v a value in [-1, 254] for the field
// being overwritten. The result may or may not still be valid.
func corrupt(list []dataset.CellChange, op []byte, orig *dataset.Dataset) []dataset.CellChange {
	list = slices.Clone(list)
	i := int(op[1]) % len(list)
	v := int(op[3]) - 1
	switch op[0] % 8 {
	case 0:
		list[i].Old = v
	case 1:
		list[i].New = v
	case 2:
		list[i].Row = v % (orig.Rows() + 1) // one past the end, or -1
	case 3:
		list[i].Col = v % (orig.Cols() + 1)
	case 4:
		list[i] = list[i].Inverted()
	case 5:
		list = slices.Delete(list, i, i+1)
	case 6:
		j := int(op[2]) % len(list)
		list[i], list[j] = list[j], list[i]
	default:
		list = slices.Insert(list, i, list[i])
	}
	return list
}

// replays is the independent validity oracle: it replays list onto a
// copy of file and reports whether every edit is in range, of a
// protected column, in-domain, and starts from the value its cell holds
// at that point.
func replays(file *dataset.Dataset, attrs []int, list []dataset.CellChange) bool {
	cur := file.Clone()
	for _, ch := range list {
		if ch.Row < 0 || ch.Row >= cur.Rows() || !slices.Contains(attrs, ch.Col) {
			return false
		}
		card := cur.Schema().Attr(ch.Col).Cardinality()
		if ch.Old < 0 || ch.Old >= card || ch.New < 0 || ch.New >= card {
			return false
		}
		if cur.At(ch.Row, ch.Col) != ch.Old {
			return false
		}
		cur.Set(ch.Row, ch.Col, ch.New)
	}
	return true
}
