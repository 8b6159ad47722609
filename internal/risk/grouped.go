package risk

// Grouped linkage. The paper's §4 names the cost of computing the
// disclosure-risk measures as the approach's major drawback. DBRL and PRL
// compare every original record against every masked record, but both
// comparisons depend only on the two records' protected tuples — the
// agreement pattern for PRL, the integer distance for DBRL — and with a
// few protected attributes tuples repeat heavily: the paper-scale flare
// file has 205 distinct original tuples among its 1066 records. Both
// measures therefore group the original and the masked records by tuple,
// compare each pair of distinct tuples once, weighted by the masked
// tuple's multiplicity, and read each record's linkage summary back from
// its tuple. This answers the §4 concern exactly, with no sampling: every
// tally is an exact integer and credit is still summed in record order,
// so the results are bit-identical to the record-by-record scans
// (grouped_test.go keeps those as the oracles prlReference and
// dbrlReference). The pair work drops from O(n²·attrs) to
// O(D_orig·D_masked·attrs) for D distinct tuples, plus an O(n·attrs)
// grouping pass; with all tuples distinct it is the old scan. The
// grouping pass and the kernels read each record's tuple straight from
// the dataset they are given (readTuple), at its own cell width, with no
// column copies. An unbound full DBRL or PRL Risk groups both files on
// every call. Binding (see the measure package) groups the original file
// once: bindLink builds the linkage core (linkOrig) that a bound DBRL,
// PRL and RSRL each embed — the compact grouping, the positions of the
// protected columns and, for the measures that read them, a state's
// projection columns and the original tuples per category — shared
// read-only by the bound full Risk and by every state it prepares and
// their clones; only the masked grouping is per call, in pooled scratch
// (linkGroups). DBRL and PRL pass the shared grouping to the same
// kernels and key their own rows by its tuples; RSRL keys its candidate
// intersections by them. The masked side DBRL and PRL keep alike — the
// projection, the patch scratch and the wide-route bookkeeping — is one
// embedded linkState.

import (
	"math"
	"slices"
	"sync"

	"evoprot/internal/dataset"
	"evoprot/internal/measure"
)

// tupleGroups partitions a record set by protected tuple. Groups are
// numbered in first-seen record order.
type tupleGroups struct {
	// cols[a][k] is attribute a of group k's tuple; column-major, so the
	// kernels below sweep one attribute of every group at a time.
	cols [][]int
	// mult counts the records of each group.
	mult []int64
	// of maps each record to its group.
	of []int32
	// slots is the open-addressing table of the grouping pass, sized by
	// the record count: 0 marks a free slot, g+1 group g. tuple holds the
	// record being placed.
	slots []int32
	tuple []int
}

// group partitions the records of d by their tuple over the columns
// cols, reading each cell once, in place.
func (g *tupleGroups) group(d *dataset.Dataset, cols []int) {
	n := d.Rows()
	shift := uint(63)
	for size := 2; size < 2*n; size <<= 1 {
		shift--
	}
	g.slots = resize(g.slots, 1<<(64-shift))
	clear(g.slots)
	g.tuple = resize(g.tuple, len(cols))
	g.cols = resize(g.cols, len(cols))
	for a := range g.cols {
		g.cols[a] = g.cols[a][:0]
	}
	g.mult, g.of = g.mult[:0], g.of[:0]
	mask := uint64(len(g.slots) - 1)
	for i := 0; i < n; i++ {
		readTuple(g.tuple, d, cols, i)
		var h uint64
		for _, v := range g.tuple {
			h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		}
		slot := h >> shift
		for {
			k := g.slots[slot]
			if k == 0 {
				for a, v := range g.tuple {
					g.cols[a] = append(g.cols[a], v)
				}
				g.mult = append(g.mult, 1)
				k = int32(len(g.mult))
				g.slots[slot] = k
				g.of = append(g.of, k-1)
				break
			}
			if g.holds(int(k-1), g.tuple) {
				g.mult[k-1]++
				g.of = append(g.of, k-1)
				break
			}
			slot = (slot + 1) & mask
		}
	}
}

// holds reports whether group k's tuple is tuple.
func (g *tupleGroups) holds(k int, tuple []int) bool {
	for a, v := range tuple {
		if v != g.cols[a][k] {
			return false
		}
	}
	return true
}

// resize returns s with length n, reallocating only when it lacks the
// capacity. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// compact returns an exact-size copy of g's tuple columns,
// multiplicities and record map, without the grouping pass's scratch:
// the original grouping a linkage state keeps and shares read-only with
// its clones.
func (g *tupleGroups) compact() *tupleGroups {
	num := len(g.mult)
	out := &tupleGroups{
		cols: make([][]int, len(g.cols)),
		mult: slices.Clone(g.mult),
		of:   slices.Clone(g.of),
	}
	flat := make([]int, len(g.cols)*num)
	for a, col := range g.cols {
		out.cols[a] = flat[a*num : (a+1)*num : (a+1)*num]
		copy(out.cols[a], col)
	}
	return out
}

// linkOrig is the linkage core of a bound DBRL, PRL or RSRL: what the
// three build alike from the original file, read-only once built.
// dbrlOrig, prlOrig and rsrlOrig embed it.
type linkOrig struct {
	n     int
	attrs []int        // the protected columns: full Risk reads them
	pos   map[int]int  // protected column -> attribute position
	orig  *tupleGroups // original records grouped by tuple; nil for an empty pair
	// cols are the columns 0 … attrs-1 of a DBRL or PRL state's masked
	// projection, which holds the protected attributes alone.
	cols []int
	// catTuples[a][v] lists the original tuples holding category v of
	// attribute a (PRL and RSRL).
	catTuples [][][]int32
}

// bindLink builds the linkage core of (orig, attrs): for a pair with
// records and attributes, the compact grouping (grouped in pooled
// scratch) and the positions, plus the projection columns when proj and
// the tuples per category when catTuples — only what the calling measure
// reads.
func bindLink(orig *dataset.Dataset, attrs []int, proj, catTuples bool) linkOrig {
	o := linkOrig{n: orig.Rows(), attrs: attrs}
	if o.n == 0 || len(attrs) == 0 {
		return o
	}
	o.pos = measure.Positions(attrs)
	lg := linkGroupsPool.Get().(*linkGroups)
	lg.orig.group(orig, attrs)
	o.orig = lg.orig.compact()
	linkGroupsPool.Put(lg)
	if proj {
		o.cols = make([]int, len(attrs))
		for a := range o.cols {
			o.cols[a] = a
		}
	}
	if catTuples {
		o.catTuples = make([][][]int32, len(attrs))
		for a, c := range attrs {
			o.catTuples[a] = buckets(o.orig.cols[a], orig.Schema().Attr(c).Cardinality())
		}
	}
	return o
}

// buckets lists, for every k < num, the positions i with keys[i] == k in
// increasing order. One counting pass sizes the lists, which share one
// backing array.
func buckets[K int | int32](keys []K, num int) [][]int32 {
	end := make([]int, num+1)
	for _, k := range keys {
		end[k+1]++
	}
	for k := 1; k <= num; k++ {
		end[k] += end[k-1]
	}
	flat := make([]int32, len(keys))
	out := make([][]int32, num)
	for k := range out {
		out[k] = flat[end[k]:end[k]:end[k+1]]
	}
	for i, k := range keys {
		out[k] = append(out[k], int32(i))
	}
	return out
}

// readTuple fills tuple with record j of d over the columns cols.
func readTuple(tuple []int, d *dataset.Dataset, cols []int, j int) {
	for a, c := range cols {
		tuple[a] = d.At(j, c)
	}
}

// pattern returns the agreement bitmask between original tuple k and a
// masked record's tuple: bit a is set when they agree on attribute a.
func (g *tupleGroups) pattern(k int, tuple []int) int {
	pat := 0
	for a, col := range g.cols {
		if col[k] == tuple[a] {
			pat |= 1 << a
		}
	}
	return pat
}

// distance returns the mixed categorical distance between original tuple
// k and a masked record's tuple.
func (g *tupleGroups) distance(k int, tuple []int, tables []pairTable) int64 {
	var d int64
	for a, col := range g.cols {
		d += tables[a].at(col[k], tuple[a])
	}
	return d
}

// linkGroups is the working memory of one grouped DBRL or PRL pass and
// of the original grouping of a bind (bindLink): the original records
// grouped by tuple, which serves only bindLink and DBRL's and PRL's
// unbound full Risk, the masked
// records grouped by tuple, one masked record's tuple, one original
// group's row of distances or patterns against every masked group, per
// original group the best score found and how many masked records attain
// it, and a full PRL's EM scratch. Every pass reads the cells of the
// dataset it is given in place: the full files at the protected
// attributes for a full Risk, or a DBRL or PRL state's masked projection
// for a re-link or a wide edit. The kernels below read the original
// grouping they are passed: an unbound full Risk passes lg.orig, a
// bound Risk or a state the shared compact grouping, which lg never
// keeps. It is pooled, so once warm a full Risk call on the evolution
// hot path allocates no grouping buffers.
type linkGroups struct {
	tuple        []int // one masked record's tuple
	orig, masked tupleGroups
	dist         []int64   // DBRL row: distance to each masked group
	pats         []int     // PRL row: agreement pattern with each masked group
	best         []int64   // DBRL: nearest distance per original group
	bestW        []float64 // PRL: highest weight per original group
	count        []int64   // masked records attaining best / bestW
	em           emScratch // PRL Risk: pattern tally, EM and weights
}

var linkGroupsPool = sync.Pool{New: func() any { return new(linkGroups) }}

// distances returns original group g of o's distance to every masked
// group.
func (lg *linkGroups) distances(o *tupleGroups, g int, tables []pairTable) []int64 {
	dist := resize(lg.dist, len(lg.masked.mult))
	clear(dist)
	for a, col := range lg.masked.cols {
		t := tables[a]
		u := o.cols[a][g]
		row := t.d[u*t.card : (u+1)*t.card]
		for h, v := range col {
			dist[h] += row[v]
		}
	}
	lg.dist = dist
	return dist
}

// patterns returns original group g of o's agreement pattern with every
// masked group: bit a is set when the two tuples agree on attribute a.
func (lg *linkGroups) patterns(o *tupleGroups, g int) []int {
	pats := resize(lg.pats, len(lg.masked.mult))
	clear(pats)
	for a, col := range lg.masked.cols {
		markAgreement(pats, col, o.cols[a][g], 1<<a)
	}
	lg.pats = pats
	return pats
}

// markAgreement sets bit in pats[h] wherever col[h] is u.
func markAgreement(pats, col []int, u, bit int) {
	pats = pats[:len(col)]
	for h, v := range col {
		m := 0
		if v == u {
			m = bit
		}
		pats[h] |= m
	}
}

// nearest sets, for every original group of o, best to its smallest
// distance to a masked record and count to how many masked records lie
// at it.
func (lg *linkGroups) nearest(o *tupleGroups, tables []pairTable) {
	numOrig := len(o.mult)
	lg.best = resize(lg.best, numOrig)
	lg.count = resize(lg.count, numOrig)
	mult := lg.masked.mult
	for g := 0; g < numOrig; g++ {
		best, count := int64(1)<<62, int64(0)
		for h, d := range lg.distances(o, g, tables) {
			switch {
			case d < best:
				best, count = d, mult[h]
			case d == best:
				count += mult[h]
			}
		}
		lg.best[g], lg.count[g] = best, count
	}
}

// tally adds every original–masked record pair's agreement pattern to
// patCount, one distinct tuple pair at a time, for the original grouping
// o.
func (lg *linkGroups) tally(o *tupleGroups, patCount []float64) {
	mult := lg.masked.mult
	for g, om := range o.mult {
		for h, pat := range lg.patterns(o, g) {
			patCount[pat] += float64(om * mult[h])
		}
	}
}

// strongest sets, for every original group of o, bestW to the highest
// pattern weight against a masked record and count to how many masked
// records attain it.
func (lg *linkGroups) strongest(o *tupleGroups, weights []float64) {
	numOrig := len(o.mult)
	lg.bestW = resize(lg.bestW, numOrig)
	lg.count = resize(lg.count, numOrig)
	mult := lg.masked.mult
	for g := 0; g < numOrig; g++ {
		best, count := math.Inf(-1), int64(0)
		for h, pat := range lg.patterns(o, g) {
			w := weights[pat]
			switch {
			case w > best:
				best, count = w, mult[h]
			case w == best:
				count += mult[h]
			}
		}
		lg.bestW[g], lg.count[g] = best, count
	}
}

// histogram adds to row, indexed by agreement pattern, how many masked
// records original group g of o agrees with in each pattern.
func (lg *linkGroups) histogram(o *tupleGroups, g int, row []int32) {
	mult := lg.masked.mult
	for h, pat := range lg.patterns(o, g) {
		row[pat] += int32(mult[h])
	}
}
