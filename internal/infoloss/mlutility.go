package infoloss

// MLUtility is a machine-learning-utility information-loss measure: it
// quantifies how much worse a classifier trained on the protected file
// performs than one trained on the original. This is the "data mining
// utility" view of information loss — a masking that preserves marginal
// and joint distributions (low CTBIL/DBIL/EBIL) can still scramble the
// feature/label relationships an analyst actually models.
//
// The proxy model is naive Bayes with Laplace smoothing over the
// categorical protected attributes, the standard low-variance choice for
// utility benchmarking on categorical microdata. The hold-out split is a
// deterministic row stride (testStride) — no RNG — so the measure is a
// pure function of its inputs and delta-evaluated engines stay
// bit-reproducible.
//
// MLUtility is deliberately not part of Default(): it needs a target
// column. A full Loss trains and tests two classifiers (original- and
// masked-trained); each tabulates its smoothed log-likelihood once per
// (class, feature, value), so scoring a test row is table lookups and
// additions, summed in the order the per-row formula used — bit-identical
// to taking the logarithms row by row.
//
// MLUtility is Reversible. Its state keeps the masked file's integer
// training counts, the log tables derived from them and one hit flag per
// held-out row; the held-out rows and the original-trained accuracy are
// built once per Prepare and shared by every clone. A feature edit of a
// training row re-derives two log entries of one class and re-scores only
// the held-out rows holding the old or the new category; an edit of a
// held-out row moves nothing, since the classifier never trains on it;
// an edit of a protected target moves the row between two classes and
// re-scores every held-out row. Both routes derive entries and score rows
// through the same helpers (logLikelihood, nbModel.predict), so a delta
// value is bit-for-bit identical to Loss.

import (
	"math"
	"slices"

	"evoprot/internal/dataset"
	"evoprot/internal/measure"
)

// MLUtility measures the held-out accuracy drop of a naive Bayes
// classifier when trained on the masked file instead of the original.
type MLUtility struct {
	// Target is the column index of the class label the proxy classifier
	// predicts. It is excluded from the feature set when it is itself a
	// protected attribute.
	Target int
}

var _ Reversible = (*MLUtility)(nil)

// testStride holds out every testStride-th row (rows with
// index % testStride == 0) as the test split, a 25% hold-out; the rest
// train.
const testStride = 4

// Name implements Measure.
func (m *MLUtility) Name() string { return "MLU" }

// Loss implements Measure: 100 times the held-out accuracy drop of the
// masked-trained classifier relative to the original-trained one, clamped
// to [0,100]. Both classifiers are scored on the original file's test
// rows and labels — the ground truth an analyst's model must generalize
// to. A masking that improves accuracy scores 0: the protected file lost
// no modelling utility.
func (m *MLUtility) Loss(orig, masked *dataset.Dataset, attrs []int) float64 {
	feats := m.features(orig, attrs)
	if feats == nil {
		return 0
	}
	return mlLoss(m.accuracy(orig, orig, feats), m.accuracy(masked, orig, feats))
}

// features returns the classifier's feature columns, the protected
// attributes other than the target, or nil for a degenerate
// configuration: fewer rows than the hold-out stride, a target outside
// the schema, no feature left or fewer than two classes. Loss then
// scores 0 and Prepare builds no state.
func (m *MLUtility) features(orig *dataset.Dataset, attrs []int) []int {
	if orig.Rows() < testStride || m.Target < 0 || m.Target >= orig.Schema().NumAttrs() {
		return nil
	}
	feats := make([]int, 0, len(attrs))
	for _, c := range attrs {
		if c != m.Target {
			feats = append(feats, c)
		}
	}
	if len(feats) == 0 || orig.Schema().Attr(m.Target).Cardinality() < 2 {
		return nil
	}
	return feats
}

// mlLoss is the measure's value for the two held-out accuracies.
func mlLoss(accOrig, accMasked float64) float64 {
	if drop := accOrig - accMasked; drop > 0 {
		return 100 * drop
	}
	return 0
}

// accuracy trains naive Bayes on train's non-held-out rows and scores it
// on test's held-out rows against test's labels.
func (m *MLUtility) accuracy(train, test *dataset.Dataset, feats []int) float64 {
	l := newNBLayout(train.Schema(), m.Target, feats)
	nb := l.fit(train)
	if nb.trained == 0 {
		return 0
	}
	slots := make([]int, len(feats))
	correct, tested := 0, 0
	for r := 0; r < test.Rows(); r += testStride {
		label := test.At(r, m.Target)
		if label < 0 || label >= l.classes {
			continue
		}
		l.rowSlots(test, r, slots)
		if nb.predict(l.width, slots) == label {
			correct++
		}
		tested++
	}
	if tested == 0 {
		return 0
	}
	return float64(correct) / float64(tested)
}

// nbLayout places a naive Bayes classifier's per-(class, feature, value)
// entries in one class-major slice: class k's block starts at k*width,
// and feature f holds card+1 slots from off[f] inside it — one per
// category plus a last one for values outside the schema's range, whose
// count stays 0.
type nbLayout struct {
	target  int
	classes int
	feats   []int // feature columns
	cards   []int // per feature
	off     []int // per feature: its first slot in a class block
	width   int   // slots per class block
}

func newNBLayout(s *dataset.Schema, target int, feats []int) nbLayout {
	l := nbLayout{
		target:  target,
		classes: s.Attr(target).Cardinality(),
		feats:   feats,
		cards:   s.Cardinalities(feats),
		off:     make([]int, len(feats)),
	}
	for f, card := range l.cards {
		l.off[f] = l.width
		l.width += card + 1
	}
	return l
}

// rowSlots fills slots with row r's slot per feature.
func (l *nbLayout) rowSlots(d *dataset.Dataset, r int, slots []int) {
	for f, c := range l.feats {
		v := d.At(r, c)
		if v < 0 || v >= l.cards[f] {
			v = l.cards[f]
		}
		slots[f] = l.off[f] + v
	}
}

// nbModel is a trained classifier: integer training counts and the
// smoothed log tables derived from them, in an nbLayout.
type nbModel struct {
	classCount []int
	trained    int
	counts     []int // training rows per (class, feature, value)
	logPrior   []float64
	logLike    []float64 // per (class, feature, value)
}

// fit counts train's non-held-out rows and derives every table.
func (l *nbLayout) fit(train *dataset.Dataset) nbModel {
	nb := nbModel{
		classCount: make([]int, l.classes),
		counts:     make([]int, l.classes*l.width),
		logPrior:   make([]float64, l.classes),
		logLike:    make([]float64, l.classes*l.width),
	}
	for r := 0; r < train.Rows(); r++ {
		if r%testStride == 0 {
			continue
		}
		k := train.At(r, l.target)
		if k < 0 || k >= l.classes {
			continue // masked label outside the schema's class range
		}
		nb.classCount[k]++
		nb.trained++
		block := nb.counts[k*l.width:]
		for f, c := range l.feats {
			if v := train.At(r, c); v >= 0 && v < l.cards[f] {
				block[l.off[f]+v]++
			}
		}
	}
	l.derivePriors(&nb)
	for k := range l.classes {
		l.deriveClass(&nb, k)
	}
	return nb
}

func (nb nbModel) clone() nbModel {
	return nbModel{
		classCount: slices.Clone(nb.classCount),
		trained:    nb.trained,
		counts:     slices.Clone(nb.counts),
		logPrior:   slices.Clone(nb.logPrior),
		logLike:    slices.Clone(nb.logLike),
	}
}

// logLikelihood is the Laplace-smoothed log-likelihood of a value that
// count of a class's classCount training rows hold, over a feature of
// card categories.
func logLikelihood(count, classCount, card int) float64 {
	return math.Log(float64(count+1) / float64(classCount+card))
}

func (l *nbLayout) derivePriors(nb *nbModel) {
	for k, c := range nb.classCount {
		nb.logPrior[k] = math.Log(float64(c+1) / float64(nb.trained+l.classes))
	}
}

// deriveClass re-derives every log-likelihood of class k.
func (l *nbLayout) deriveClass(nb *nbModel, k int) {
	for f := range l.feats {
		for v := 0; v <= l.cards[f]; v++ {
			l.deriveEntry(nb, k, f, v)
		}
	}
}

func (l *nbLayout) deriveEntry(nb *nbModel, k, f, v int) {
	i := k*l.width + l.off[f] + v
	nb.logLike[i] = logLikelihood(nb.counts[i], nb.classCount[k], l.cards[f])
}

// predict returns the class of a row given by its slots: each class
// scores its log prior plus one log-likelihood per feature, summed in
// feature order, and ties go to the lowest class index so prediction is
// deterministic.
func (nb *nbModel) predict(width int, slots []int) int {
	best, bestScore := 0, 0.0
	for k := range nb.logPrior {
		ll := nb.logLike[k*width : (k+1)*width]
		score := nb.logPrior[k]
		for _, x := range slots {
			score += ll[x]
		}
		if k == 0 || score > bestScore {
			best, bestScore = k, score
		}
	}
	return best
}

// mlOrig is the original-only half of an ML-utility state, built once per
// Prepare and shared read-only by its clones.
type mlOrig struct {
	nbLayout
	labels []int // per tested row (a held-out row with an in-range label): its label
	slots  []int // per tested row: its len(feats) slots, row after row
	// rowsOf[start[x]:start[x+1]] lists the tested rows holding slot x.
	rowsOf  []int
	start   []int
	fpos    []int // feature position by column; -1 for the rest
	accOrig float64
}

// mlState is the ML-utility delta state of one masked file.
type mlState struct {
	o       *mlOrig
	nb      nbModel // trained on the masked file
	hit     []bool  // per tested row: the classifier predicts its label
	correct int
	// masked projects the masked file onto the target, at column 0, and,
	// only when the target is protected, the features after it: moving a
	// row between classes moves its feature counts. It is owned when the
	// target is protected and shared by clones otherwise (it never
	// changes then).
	masked *dataset.Dataset
	undo   measure.Journal // pending ApplyUndo; never shared by clones
	all    bool            // Apply scratch: every tested row needs re-scoring
	marked []bool          // Apply scratch, lazily built: tested rows queued in dirty
	dirty  []int
}

// CloneState implements State.
func (s *mlState) CloneState() State {
	out := &mlState{o: s.o, nb: s.nb.clone(), hit: slices.Clone(s.hit), correct: s.correct, masked: s.masked}
	if s.ownsFeatures() {
		out.masked = s.masked.Clone()
	}
	return out
}

// Prepare implements Reversible. Degenerate configurations (see
// features) get no state.
func (m *MLUtility) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	feats := m.features(orig, attrs)
	if feats == nil {
		return nil
	}
	o := &mlOrig{nbLayout: newNBLayout(orig.Schema(), m.Target, feats), accOrig: m.accuracy(orig, orig, feats)}
	o.fpos = slices.Repeat([]int{-1}, orig.Cols())
	for f, c := range feats {
		o.fpos[c] = f
	}
	o.slots = make([]int, 0, (orig.Rows()+testStride-1)/testStride*len(feats))
	for r := 0; r < orig.Rows(); r += testStride {
		label := orig.At(r, m.Target)
		if label < 0 || label >= o.classes {
			continue
		}
		o.labels = append(o.labels, label)
		n := len(o.slots)
		o.slots = o.slots[:n+len(feats)]
		o.rowSlots(orig, r, o.slots[n:])
	}
	o.start = make([]int, o.width+1)
	for _, x := range o.slots {
		o.start[x+1]++
	}
	for x := range o.width {
		o.start[x+1] += o.start[x]
	}
	o.rowsOf = make([]int, len(o.slots))
	next := slices.Clone(o.start[:o.width])
	for i, x := range o.slots {
		o.rowsOf[next[x]] = i / len(feats)
		next[x]++
	}

	cols := []int{m.Target}
	if slices.Contains(attrs, m.Target) {
		cols = append(cols, feats...)
	}
	st := &mlState{o: o, nb: o.fit(masked), hit: make([]bool, len(o.labels)), masked: masked.Project(cols)}
	st.all = true
	st.rescore()
	return st
}

// ownsFeatures reports whether the target is protected: the state then
// keeps the masked features beside the target and owns them.
func (st *mlState) ownsFeatures() bool { return st.masked.Cols() > 1 }

// patch advances the counts and tables by one cell change and queues the
// tested rows whose prediction it may move. It is exactly self-inverse
// under CellChange.Inverted: every table entry is re-derived from the
// restored integer counts.
func (st *mlState) patch(ch dataset.CellChange) {
	if ch.Row%testStride == 0 {
		return // a held-out row: the classifier never trains on it
	}
	o := st.o
	if ch.Col == o.target {
		st.moveClass(ch.Row, ch.Old, ch.New)
		return
	}
	f := o.fpos[ch.Col]
	if st.ownsFeatures() {
		st.masked.Set(ch.Row, 1+f, ch.New)
	}
	k := st.masked.At(ch.Row, 0)
	if k < 0 || k >= o.classes {
		return
	}
	st.bump(k, f, ch.Old, -1)
	st.bump(k, f, ch.New, +1)
}

// bump moves the training count of (class k, feature f, value v) by d,
// re-derives its log-likelihood and queues the tested rows holding v.
func (st *mlState) bump(k, f, v, d int) {
	o := st.o
	if v < 0 || v >= o.cards[f] {
		return
	}
	x := o.off[f] + v
	st.nb.counts[k*o.width+x] += d
	o.deriveEntry(&st.nb, k, f, v)
	if st.all {
		return
	}
	if st.marked == nil {
		st.marked = make([]bool, len(st.hit))
	}
	for _, t := range o.rowsOf[o.start[x]:o.start[x+1]] {
		if !st.marked[t] {
			st.marked[t] = true
			st.dirty = append(st.dirty, t)
		}
	}
}

// moveClass moves training row r's counts from class from to class to,
// re-derives the priors and both classes' tables, and queues every
// tested row.
func (st *mlState) moveClass(r, from, to int) {
	o := st.o
	st.masked.Set(r, 0, to)
	for _, mv := range [2]struct{ k, d int }{{from, -1}, {to, +1}} {
		if mv.k < 0 || mv.k >= o.classes {
			continue
		}
		st.nb.classCount[mv.k] += mv.d
		st.nb.trained += mv.d
		block := st.nb.counts[mv.k*o.width:]
		for f := range o.feats {
			if v := st.masked.At(r, 1+f); v >= 0 && v < o.cards[f] {
				block[o.off[f]+v] += mv.d
			}
		}
	}
	o.derivePriors(&st.nb)
	for _, k := range [2]int{from, to} {
		if k >= 0 && k < o.classes {
			o.deriveClass(&st.nb, k)
		}
	}
	st.all = true
}

// rescore re-scores the queued tested rows, or every one after a class
// move, and clears the queue.
func (st *mlState) rescore() {
	if st.all {
		for t := range st.hit {
			st.score(t)
		}
	} else {
		for _, t := range st.dirty {
			st.score(t)
		}
	}
	for _, t := range st.dirty {
		st.marked[t] = false
	}
	st.dirty = st.dirty[:0]
	st.all = false
}

// score re-predicts tested row t and updates its hit flag.
func (st *mlState) score(t int) {
	o := st.o
	n := len(o.feats)
	hit := st.nb.predict(o.width, o.slots[t*n:(t+1)*n]) == o.labels[t]
	if hit == st.hit[t] {
		return
	}
	st.hit[t] = hit
	if hit {
		st.correct++
	} else {
		st.correct--
	}
}

// value is Loss's value for the state's file, with accuracy's zero for
// an empty training or test split.
func (st *mlState) value() float64 {
	acc := 0.0
	if st.nb.trained > 0 && len(st.hit) > 0 {
		acc = float64(st.correct) / float64(len(st.hit))
	}
	return mlLoss(st.o.accOrig, acc)
}

// Apply implements Reversible. A plain Apply commits any pending
// ApplyUndo.
func (m *MLUtility) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*mlState)
	st.undo.Disarm()
	for _, ch := range changes {
		st.patch(ch)
	}
	st.rescore()
	return st.value()
}

// ApplyUndo implements Reversible.
func (m *MLUtility) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := m.Apply(state, changes)
	state.(*mlState).undo.Arm(changes)
	return v
}

// Undo implements Reversible.
func (m *MLUtility) Undo(state State) {
	st := state.(*mlState)
	if st.undo.Rewind(st.patch) {
		st.rescore()
	}
}
