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
// grouping pass; with all tuples distinct it is the old scan. Full Risk
// groups both files on every call; the DBRL and PRL delta states group
// the original file once, at Prepare, keep that grouping and pass it to
// the same kernels, and key their own rows by its tuples.

import (
	"math"
	"slices"
	"sync"

	"evoprot/internal/dataset"
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
	// first is the first record of each group.
	first []int32
	// slots is the open-addressing table of the grouping pass, sized by
	// the record count: 0 marks a free slot, g+1 group g.
	slots []int32
}

// group partitions the records 0 ... n-1 of cols.
func (g *tupleGroups) group(cols [][]int, n int) {
	shift := uint(63)
	for size := 2; size < 2*n; size <<= 1 {
		shift--
	}
	g.slots = resize(g.slots, 1<<(64-shift))
	clear(g.slots)
	g.cols = resize(g.cols, len(cols))
	for a := range g.cols {
		g.cols[a] = g.cols[a][:0]
	}
	g.mult, g.of, g.first = g.mult[:0], g.of[:0], g.first[:0]
	mask := uint64(len(g.slots) - 1)
	for i := 0; i < n; i++ {
		var h uint64
		for _, col := range cols {
			h = (h ^ uint64(col[i])) * 0x9e3779b97f4a7c15
		}
		slot := h >> shift
		for {
			k := g.slots[slot]
			if k == 0 {
				for a, col := range cols {
					g.cols[a] = append(g.cols[a], col[i])
				}
				g.mult = append(g.mult, 1)
				g.first = append(g.first, int32(len(g.of)))
				k = int32(len(g.mult))
				g.slots[slot] = k
				g.of = append(g.of, k-1)
				break
			}
			if g.holds(int(k-1), cols, i) {
				g.mult[k-1]++
				g.of = append(g.of, k-1)
				break
			}
			slot = (slot + 1) & mask
		}
	}
}

// holds reports whether group k's tuple is record i's of cols.
func (g *tupleGroups) holds(k int, cols [][]int, i int) bool {
	for a, col := range cols {
		if col[i] != g.cols[a][k] {
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
// multiplicities and record map, without the hash slots or the
// first-record index: the original grouping a DBRL or PRL state keeps
// and shares read-only with its clones.
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

// groupOriginal groups the original records of orig over attrs through
// pooled scratch and returns the compact grouping.
func groupOriginal(orig *dataset.Dataset, attrs []int) *tupleGroups {
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	lg.oc = columnsInto(lg.oc, orig, attrs)
	lg.orig.group(lg.oc, orig.Rows())
	return lg.orig.compact()
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
func (g *tupleGroups) distance(k int, tuple []int, tables []distTable) int64 {
	var d int64
	for a, col := range g.cols {
		d += tables[a].at(col[k], tuple[a])
	}
	return d
}

// linkGroups is the working memory of one grouped DBRL or PRL pass, of
// the original grouping of a DBRL or PRL Prepare (groupOriginal), or of
// one RSRL Prepare (its masked columns and original grouping only): the
// protected columns of a full Risk call, or a DBRL or PRL state's masked
// cells unpacked for a re-link or a wide edit, one masked record's tuple,
// the original records grouped by tuple for a full Risk or a Prepare, the
// masked records grouped by tuple, one original group's row of distances
// or patterns against every masked group, per original group the best
// score found and how many masked records attain it, and a full PRL's EM
// scratch. The kernels below read the original grouping they are passed:
// full Risk passes lg.orig, a DBRL or PRL state its own compact grouping,
// which lg never keeps. It is pooled, so once warm a full Risk call on the
// evolution hot path allocates no column copies or grouping buffers.
type linkGroups struct {
	oc, mc       [][]int // protected columns
	tuple        []int   // one masked record's tuple (record)
	orig, masked tupleGroups
	dist         []int64   // DBRL row: distance to each masked group
	pats         []int     // PRL row: agreement pattern with each masked group
	best         []int64   // DBRL: nearest distance per original group
	bestW        []float64 // PRL: highest weight per original group
	count        []int64   // masked records attaining best / bestW
	em           emScratch // PRL Risk: pattern tally, EM and weights
}

var linkGroupsPool = sync.Pool{New: func() any { return new(linkGroups) }}

// relinkCost estimates the work of one grouped pass against the original
// grouping o from the tuple counts of the last masked grouping:
// D_orig·D_masked·attrs to compare the distinct tuple pairs plus n·attrs
// to group the masked records and read back each record's summary.
func (lg *linkGroups) relinkCost(o *tupleGroups, n, numAttrs int) int {
	return (len(o.mult)*len(lg.masked.mult) + n) * numAttrs
}

// columns fills lg's column buffers with the protected columns of orig
// and masked and returns them.
func (lg *linkGroups) columns(orig, masked *dataset.Dataset, attrs []int) (oc, mc [][]int) {
	lg.oc = columnsInto(lg.oc, orig, attrs)
	lg.mc = columnsInto(lg.mc, masked, attrs)
	return lg.oc, lg.mc
}

// columnsInto extracts the given columns of d as int slices, reusing the
// buffers of cols; a nil cols yields fresh copies. A nil attrs extracts
// every column of d in order: the masked projection a DBRL or PRL state
// keeps.
func columnsInto(cols [][]int, d *dataset.Dataset, attrs []int) [][]int {
	num := len(attrs)
	if attrs == nil {
		num = d.Cols()
	}
	cols = resize(cols, num)
	for a := range cols {
		c := a
		if attrs != nil {
			c = attrs[a]
		}
		cols[a] = resize(cols[a], d.Rows())
		d.ColumnInto(cols[a], c)
	}
	return cols
}

// record fills lg.tuple with record i of the columns mc and returns it.
func (lg *linkGroups) record(mc [][]int, i int) []int {
	lg.tuple = resize(lg.tuple, len(mc))
	for a, col := range mc {
		lg.tuple[a] = col[i]
	}
	return lg.tuple
}

// distances returns original group g of o's distance to every masked
// group.
func (lg *linkGroups) distances(o *tupleGroups, g int, tables []distTable) []int64 {
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
func (lg *linkGroups) nearest(o *tupleGroups, tables []distTable) {
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
