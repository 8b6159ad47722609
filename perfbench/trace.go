package main

// Tracing from outside the program. Every layer the benchmark measures is
// reached through a public seam — a measure battery handed to
// score.NewEvaluator, an islands.EpochBarrier, a storage.Store — so the
// traced run wraps those seams in timing shims instead of editing the
// program. Each shim implements exactly the capabilities of the value it
// wraps (Measure, Incremental or Reversible), so score.Evaluator.Batchable
// and the engine's evaluation route are the same with tracing on or off,
// and a traced run is bit-identical to an untraced one (trace_test.go).

import (
	"context"
	"io"
	"sync/atomic"
	"time"

	"evoprot/internal/dataset"
	"evoprot/internal/infoloss"
	"evoprot/internal/islands"
	"evoprot/internal/risk"
	"evoprot/internal/storage"
)

// counter accumulates calls and their total duration; safe for concurrent
// use (the evaluation pool and concurrent islands share the measures).
type counter struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (c *counter) since(start time.Time) {
	c.n.Add(1)
	c.ns.Add(int64(time.Since(start)))
}

func (c *counter) seconds() float64 { return float64(c.ns.Load()) / 1e9 }

// Measure operations the wrappers time.
const (
	opFull    = iota // Loss / Risk: a full recomputation
	opPrepare        // Prepare: building an incremental state
	opApply          // Apply: advancing a state in place or on a clone
	opDelta          // ApplyUndo + Undo: the batch route's apply-read-undo
	opClone          // CloneState
	numOps
)

// Phases split measure time between set-up (initial population evaluation
// and preparation) and evolution.
const (
	phaseSetup = iota
	phaseEvolve
	numPhases
)

// measureTrace holds one measure's counters per phase and operation.
type measureTrace struct {
	name string
	ops  [numPhases][numOps]counter
}

// tracer owns the measure traces of one run and the phase they record
// into.
type tracer struct {
	phase    atomic.Int32
	measures []*measureTrace
}

func (t *tracer) setPhase(p int) { t.phase.Store(int32(p)) }

// add returns the named measure's trace, creating it on first use, so
// repeated set-ups within a run accumulate into the same counters.
func (t *tracer) add(name string) *measureTrace {
	if m := t.find(name); m != nil {
		return m
	}
	m := &measureTrace{name: name}
	t.measures = append(t.measures, m)
	return m
}

// op returns the counter for op in the current phase.
func (t *tracer) op(m *measureTrace, op int) *counter { return &m.ops[t.phase.Load()][op] }

// find returns the trace of the named measure, or nil.
func (t *tracer) find(name string) *measureTrace {
	for _, m := range t.measures {
		if m.name == name {
			return m
		}
	}
	return nil
}

// wrapIL wraps every information-loss measure in a tracing shim of the
// same capability.
func (t *tracer) wrapIL(ms []infoloss.Measure) []infoloss.Measure {
	out := make([]infoloss.Measure, len(ms))
	for i, m := range ms {
		base := ilMeasure{inner: m, t: t, tr: t.add(m.Name())}
		switch m := m.(type) {
		case infoloss.Reversible:
			out[i] = ilReversible{ilIncremental{base, m}, m}
		case infoloss.Incremental:
			out[i] = ilIncremental{base, m}
		default:
			out[i] = base
		}
	}
	return out
}

// wrapDR is wrapIL for the disclosure-risk battery.
func (t *tracer) wrapDR(ms []risk.Measure) []risk.Measure {
	out := make([]risk.Measure, len(ms))
	for i, m := range ms {
		base := drMeasure{inner: m, t: t, tr: t.add(m.Name())}
		switch m := m.(type) {
		case risk.Reversible:
			out[i] = drReversible{drIncremental{base, m}, m}
		case risk.Incremental:
			out[i] = drIncremental{base, m}
		default:
			out[i] = base
		}
	}
	return out
}

type ilMeasure struct {
	inner infoloss.Measure
	t     *tracer
	tr    *measureTrace
}

func (m ilMeasure) Name() string { return m.inner.Name() }

func (m ilMeasure) Loss(orig, masked *dataset.Dataset, attrs []int) float64 {
	start := time.Now()
	v := m.inner.Loss(orig, masked, attrs)
	m.t.op(m.tr, opFull).since(start)
	return v
}

type ilIncremental struct {
	ilMeasure
	inc infoloss.Incremental
}

func (m ilIncremental) Prepare(orig, masked *dataset.Dataset, attrs []int) infoloss.State {
	start := time.Now()
	st := m.inc.Prepare(orig, masked, attrs)
	m.t.op(m.tr, opPrepare).since(start)
	if st == nil {
		return nil // the measure cannot run incrementally; keep the nil slot
	}
	return &ilState{inner: st, m: m.ilMeasure}
}

func (m ilIncremental) Apply(state infoloss.State, changes []dataset.CellChange) float64 {
	start := time.Now()
	v := m.inc.Apply(state.(*ilState).inner, changes)
	m.t.op(m.tr, opApply).since(start)
	return v
}

type ilReversible struct {
	ilIncremental
	rev infoloss.Reversible
}

// ApplyUndo and Undo are timed as one operation: the batch route always
// pairs them.
func (m ilReversible) ApplyUndo(state infoloss.State, changes []dataset.CellChange) float64 {
	st := state.(*ilState)
	st.pending = time.Now()
	return m.rev.ApplyUndo(st.inner, changes)
}

func (m ilReversible) Undo(state infoloss.State) {
	st := state.(*ilState)
	m.rev.Undo(st.inner)
	if !st.pending.IsZero() {
		m.t.op(m.tr, opDelta).since(st.pending)
		st.pending = time.Time{}
	}
}

// ilState wraps a measure state so CloneState is timed. States are
// single-goroutine values, so pending needs no synchronization.
type ilState struct {
	inner   infoloss.State
	m       ilMeasure
	pending time.Time // start of an ApplyUndo awaiting its Undo
}

func (s *ilState) CloneState() infoloss.State {
	start := time.Now()
	c := s.inner.CloneState()
	s.m.t.op(s.m.tr, opClone).since(start)
	return &ilState{inner: c, m: s.m}
}

type drMeasure struct {
	inner risk.Measure
	t     *tracer
	tr    *measureTrace
}

func (m drMeasure) Name() string { return m.inner.Name() }

func (m drMeasure) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	start := time.Now()
	v := m.inner.Risk(orig, masked, attrs)
	m.t.op(m.tr, opFull).since(start)
	return v
}

type drIncremental struct {
	drMeasure
	inc risk.Incremental
}

func (m drIncremental) Prepare(orig, masked *dataset.Dataset, attrs []int) risk.State {
	start := time.Now()
	st := m.inc.Prepare(orig, masked, attrs)
	m.t.op(m.tr, opPrepare).since(start)
	if st == nil {
		return nil
	}
	return &drState{inner: st, m: m.drMeasure}
}

func (m drIncremental) Apply(state risk.State, changes []dataset.CellChange) float64 {
	start := time.Now()
	v := m.inc.Apply(state.(*drState).inner, changes)
	m.t.op(m.tr, opApply).since(start)
	return v
}

type drReversible struct {
	drIncremental
	rev risk.Reversible
}

func (m drReversible) ApplyUndo(state risk.State, changes []dataset.CellChange) float64 {
	st := state.(*drState)
	st.pending = time.Now()
	return m.rev.ApplyUndo(st.inner, changes)
}

func (m drReversible) Undo(state risk.State) {
	st := state.(*drState)
	m.rev.Undo(st.inner)
	if !st.pending.IsZero() {
		m.t.op(m.tr, opDelta).since(st.pending)
		st.pending = time.Time{}
	}
}

type drState struct {
	inner   risk.State
	m       drMeasure
	pending time.Time
}

func (s *drState) CloneState() risk.State {
	start := time.Now()
	c := s.inner.CloneState()
	s.m.t.op(s.m.tr, opClone).since(start)
	return &drState{inner: c, m: s.m}
}

// tracedBarrier wraps an islands.EpochBarrier. It is called only from the
// islands coordinator goroutine; the per-island busy times written by
// island goroutines are read after the inner barrier's rendezvous.
type tracedBarrier struct {
	inner   islands.EpochBarrier
	busy    time.Duration // sum of island epoch times
	wait    time.Duration // sum over islands of epoch wall minus own busy time
	coord   time.Duration // coordinator time between epochs (migration, hooks)
	epochs  int
	lastEnd time.Time
	island  []time.Duration
}

func (b *tracedBarrier) RunEpoch(ctx context.Context, active []int, run func(island int)) error {
	start := time.Now()
	if !b.lastEnd.IsZero() {
		b.coord += start.Sub(b.lastEnd)
	}
	for _, i := range active {
		for len(b.island) <= i {
			b.island = append(b.island, 0)
		}
	}
	err := b.inner.RunEpoch(ctx, active, func(i int) {
		s := time.Now()
		run(i)
		b.island[i] = time.Since(s)
	})
	wall := time.Since(start)
	for _, i := range active {
		b.busy += b.island[i]
		b.wait += wall - b.island[i]
	}
	b.epochs++
	b.lastEnd = time.Now()
	return err
}

// finish books the coordinator time from the last epoch to the end of Run.
func (b *tracedBarrier) finish(runEnd time.Time) {
	if !b.lastEnd.IsZero() {
		b.coord += runEnd.Sub(b.lastEnd)
	}
	b.lastEnd = time.Time{}
}

// Store operations the traced store records.
const (
	stPut = iota
	stAppend
	stGet
	stOpen
	numStoreOps
)

var storeOpNames = [numStoreOps]string{"put", "append", "get", "open"}

// tracedStore wraps a storage.Store, counting calls, time and bytes of the
// four data operations. It implements Store only: wrapping a store that
// also implements storage.Pather would hide that capability, so it is
// only used over the in-memory store, which has none.
type tracedStore struct {
	inner storage.Store
	ops   [numStoreOps]counter
	bytes [numStoreOps]atomic.Int64
}

func (s *tracedStore) Put(job, key string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(job, key, data)
	s.ops[stPut].since(start)
	s.bytes[stPut].Add(int64(len(data)))
	return err
}

func (s *tracedStore) Get(job, key string) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.Get(job, key)
	s.ops[stGet].since(start)
	s.bytes[stGet].Add(int64(len(data)))
	return data, err
}

func (s *tracedStore) Append(job, key string, data []byte) error {
	start := time.Now()
	err := s.inner.Append(job, key, data)
	s.ops[stAppend].since(start)
	s.bytes[stAppend].Add(int64(len(data)))
	return err
}

// Open times the call itself; bytes are counted as they are read.
func (s *tracedStore) Open(job, key string) (io.ReadCloser, error) {
	start := time.Now()
	rc, err := s.inner.Open(job, key)
	s.ops[stOpen].since(start)
	if err != nil {
		return nil, err
	}
	return &countingReader{ReadCloser: rc, n: &s.bytes[stOpen]}, nil
}

func (s *tracedStore) Truncate(job, key string, size int64) error {
	return s.inner.Truncate(job, key, size)
}

func (s *tracedStore) List() ([]string, error) { return s.inner.List() }

func (s *tracedStore) Delete(job string) error { return s.inner.Delete(job) }

type countingReader struct {
	io.ReadCloser
	n *atomic.Int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n.Add(int64(n))
	return n, err
}

var (
	_ infoloss.Reversible  = ilReversible{}
	_ risk.Reversible      = drReversible{}
	_ storage.Store        = (*tracedStore)(nil)
	_ islands.EpochBarrier = (*tracedBarrier)(nil)
)
