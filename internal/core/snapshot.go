package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"

	"evoprot/internal/dataset"
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
// trajectory with incomparable cached scores. Version 3 (written by this
// build) packs each individual's protected cells into one byte string,
// base64 in JSON, at cellWidth bytes per cell; version 2 wrote them as a
// JSON integer array and still resumes.
const snapshotVersion = 3

// minSnapshotVersion is the oldest layout Resume still reads.
const minSnapshotVersion = 2

// snapshotJSON is the snapshot document; C is the type an individual's
// cells take: []byte when writing, json.RawMessage when reading, which
// decodes them by version (see unpackCells).
type snapshotJSON[C any] struct {
	Version     int                 `json:"version"`
	Gen         int                 `json:"gen"`
	Evals       int                 `json:"evals"`
	Accepted    int                 `json:"accepted"`
	Offspring   int                 `json:"offspring"`
	Attrs       []int               `json:"attrs"`
	Rows        int                 `json:"rows"`
	RNG         []byte              `json:"rng"`
	History     []GenStats          `json:"history"`
	Individuals []individualJSON[C] `json:"individuals"`
}

type individualJSON[C any] struct {
	Origin string           `json:"origin"`
	Cells  C                `json:"cells"` // protected columns, row-major
	Eval   score.Evaluation `json:"eval"`
}

// cellWidth is the bytes a version-3 snapshot spends per protected cell:
// one when every protected domain has at most 256 categories, else four,
// little-endian (the width rule of dataset storage, over the protected
// columns only).
func cellWidth(s *dataset.Schema, attrs []int) int {
	for _, card := range s.Cardinalities(attrs) {
		if card > 1<<8 {
			return 4
		}
	}
	return 1
}

// Snapshot serializes the engine state. The original dataset and the
// configuration are not included; Resume requires the same evaluator and
// config to be supplied by the caller.
func (e *Engine) Snapshot(w io.Writer) error {
	rngState, err := e.pcg.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: marshaling RNG state: %w", err)
	}
	rows := e.eval.Orig().Rows()
	snap := snapshotJSON[[]byte]{
		Version:   snapshotVersion,
		Gen:       e.gen,
		Evals:     e.evals,
		Accepted:  e.accepted,
		Offspring: e.offspring,
		Attrs:     e.attrs,
		Rows:      rows,
		RNG:       rngState,
		History:   e.history,
	}
	width := cellWidth(e.eval.Orig().Schema(), e.attrs)
	cells := make([]byte, len(e.pop)*rows*len(e.attrs)*width)
	snap.Individuals = make([]individualJSON[[]byte], len(e.pop))
	for i, ind := range e.pop {
		own := cells[:rows*len(e.attrs)*width]
		cells = cells[len(own):]
		k := 0
		for r := 0; r < rows; r++ {
			for _, c := range e.attrs {
				if width == 1 {
					own[k] = byte(ind.Data.At(r, c))
				} else {
					binary.LittleEndian.PutUint32(own[k:], uint32(ind.Data.At(r, c)))
				}
				k += width
			}
		}
		snap.Individuals[i] = individualJSON[[]byte]{Origin: ind.Origin, Cells: own, Eval: ind.Eval}
	}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return nil
}

// unpackCells reads one individual's protected cells into data: rows
// records of len(attrs) cells each, packed at width bytes per cell
// (version 3) or as JSON integers (version 2). Every value must lie in
// its attribute's domain.
func unpackCells(data *dataset.Dataset, attrs []int, version, width int, raw json.RawMessage) error {
	rows := data.Rows()
	want := rows * len(attrs)
	var ints []int
	var packed []byte
	if version == 2 {
		if err := json.Unmarshal(raw, &ints); err != nil {
			return err
		}
		if len(ints) != want {
			return fmt.Errorf("%d cells, want %d", len(ints), want)
		}
	} else {
		if err := json.Unmarshal(raw, &packed); err != nil {
			return err
		}
		if len(packed) != want*width {
			return fmt.Errorf("%d packed bytes, want %d (%d cells of %d)", len(packed), want*width, want, width)
		}
	}
	k := 0
	for r := 0; r < rows; r++ {
		for _, col := range attrs {
			var v int
			switch {
			case ints != nil:
				v = ints[k]
			case width == 1:
				v = int(packed[k])
			default:
				v = int(binary.LittleEndian.Uint32(packed[k*4:]))
			}
			k++
			if v < 0 || v >= data.Schema().Attr(col).Cardinality() {
				return fmt.Errorf("cell (%d,%d) value %d outside domain", r, col, v)
			}
			data.Set(r, col, v)
		}
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
	var snap snapshotJSON[json.RawMessage]
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if snap.Version < minSnapshotVersion || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build reads %d..%d", snap.Version, minSnapshotVersion, snapshotVersion)
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
	width := cellWidth(orig.Schema(), attrs)
	for i, ij := range snap.Individuals {
		data := orig.Clone()
		if err := unpackCells(data, attrs, snap.Version, width, ij.Cells); err != nil {
			return nil, fmt.Errorf("core: individual %d: %w", i, err)
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
