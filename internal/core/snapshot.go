package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"

	"evoprot/internal/score"
)

// Snapshots make long optimizations restartable: the full engine state —
// population (only the protected columns, which is all that differs from
// the original file), cached evaluations, history, counters and the RNG
// stream — serializes to JSON and resumes bit-for-bit: a run of N+M
// generations equals a run of N, a snapshot/resume, and a run of M.
//
// Incremental-evaluation states are deliberately not serialized: they are
// derived data, large, and cheap to rebuild relative to a long run.
// Resumed individuals start with a nil state, and the engine rebuilds one
// lazily the first time each individual becomes a parent; because delta
// evaluation is bit-identical to full evaluation, the resumed trajectory
// is unchanged.

// snapshotVersion guards against loading snapshots from incompatible
// layouts or trajectories. Version 2: the mutation gene draw spans only
// mutable columns and DBIL accumulates exact per-attribute integer sums,
// so version-1 snapshots would silently resume on a different stochastic
// trajectory with incomparable cached scores.
const snapshotVersion = 2

type snapshotJSON struct {
	Version     int              `json:"version"`
	Gen         int              `json:"gen"`
	Evals       int              `json:"evals"`
	Accepted    int              `json:"accepted"`
	Offspring   int              `json:"offspring"`
	Attrs       []int            `json:"attrs"`
	Rows        int              `json:"rows"`
	RNG         []byte           `json:"rng"`
	History     []GenStats       `json:"history"`
	Individuals []individualJSON `json:"individuals"`
}

type individualJSON struct {
	Origin string           `json:"origin"`
	Cells  []int            `json:"cells"` // protected columns, row-major
	Eval   score.Evaluation `json:"eval"`
}

// Snapshot serializes the engine state. The original dataset and the
// configuration are not included; Resume requires the same evaluator and
// config to be supplied by the caller.
func (e *Engine) Snapshot(w io.Writer) error {
	rngState, err := e.pcg.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: marshaling RNG state: %w", err)
	}
	snap := snapshotJSON{
		Version:   snapshotVersion,
		Gen:       e.gen,
		Evals:     e.evals,
		Accepted:  e.accepted,
		Offspring: e.offspring,
		Attrs:     e.attrs,
		Rows:      e.eval.Orig().Rows(),
		RNG:       rngState,
		History:   e.history,
	}
	for _, ind := range e.pop {
		cells := make([]int, 0, ind.Data.Rows()*len(e.attrs))
		for r := 0; r < ind.Data.Rows(); r++ {
			for _, c := range e.attrs {
				cells = append(cells, ind.Data.At(r, c))
			}
		}
		snap.Individuals = append(snap.Individuals, individualJSON{
			Origin: ind.Origin,
			Cells:  cells,
			Eval:   ind.Eval,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return nil
}

// Resume rebuilds an engine from a snapshot. The evaluator must wrap the
// same original dataset (same shape and protected attributes) the
// snapshot was taken against, and cfg should carry the same parameters;
// the resumed engine continues the identical stochastic trajectory.
// Cached evaluations are trusted and not recomputed.
func Resume(eval *score.Evaluator, r io.Reader, cfg Config) (*Engine, error) {
	if eval == nil {
		return nil, fmt.Errorf("core: nil evaluator")
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var snap snapshotJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build reads %d", snap.Version, snapshotVersion)
	}
	attrs := eval.Attrs()
	if len(snap.Attrs) != len(attrs) {
		return nil, fmt.Errorf("core: snapshot has %d protected attributes, evaluator has %d", len(snap.Attrs), len(attrs))
	}
	for i := range attrs {
		if snap.Attrs[i] != attrs[i] {
			return nil, fmt.Errorf("core: snapshot attribute %d is column %d, evaluator has %d", i, snap.Attrs[i], attrs[i])
		}
	}
	orig := eval.Orig()
	if snap.Rows != orig.Rows() {
		return nil, fmt.Errorf("core: snapshot has %d rows, original has %d", snap.Rows, orig.Rows())
	}
	if len(snap.Individuals) < 2 {
		return nil, fmt.Errorf("core: snapshot population of %d, need at least 2", len(snap.Individuals))
	}

	pcg := rand.NewPCG(0, 0)
	if err := pcg.UnmarshalBinary(snap.RNG); err != nil {
		return nil, fmt.Errorf("core: restoring RNG state: %w", err)
	}

	pop := make([]*Individual, len(snap.Individuals))
	wantCells := snap.Rows * len(attrs)
	for i, ij := range snap.Individuals {
		if len(ij.Cells) != wantCells {
			return nil, fmt.Errorf("core: individual %d has %d cells, want %d", i, len(ij.Cells), wantCells)
		}
		data := orig.Clone()
		k := 0
		for r := 0; r < snap.Rows; r++ {
			for _, col := range attrs {
				v := ij.Cells[k]
				k++
				if v < 0 || v >= data.Schema().Attr(col).Cardinality() {
					return nil, fmt.Errorf("core: individual %d cell (%d,%d) value %d outside domain", i, r, col, v)
				}
				data.Set(r, col, v)
			}
		}
		pop[i] = &Individual{Data: data, Eval: ij.Eval, Origin: ij.Origin}
	}

	mutable, err := mutableAttrs(eval)
	if err != nil {
		return nil, err
	}
	engEval, err := engineEvaluator(eval, c)
	if err != nil {
		return nil, err
	}
	if engEval != eval {
		// Mirror NewEngines: a per-engine aggregator re-combines the
		// restored (IL, DR) pairs so the population is scored — and sorted
		// below — on this engine's own scale. Resuming with the aggregator
		// the snapshot was taken under recombines the identical values, so
		// unchanged configs restore bit-identically.
		agg := engEval.Aggregator()
		for _, ind := range pop {
			ind.Eval.Score = agg.Combine(ind.Eval.IL, ind.Eval.DR)
		}
	}
	e := &Engine{
		eval:      engEval,
		cfg:       c,
		rng:       rand.New(pcg),
		pcg:       pcg,
		pop:       pop,
		attrs:     attrs,
		mutable:   mutable,
		history:   snap.History,
		evals:     snap.Evals,
		gen:       snap.Gen,
		startGen:  snap.Gen,
		accepted:  snap.Accepted,
		offspring: snap.Offspring,
	}
	e.sortPop()
	return e, nil
}
