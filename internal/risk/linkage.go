package risk

import (
	"evoprot/internal/dataset"
)

// DistanceLinkage is distance-based record linkage (DBRL): every original
// record is linked to its nearest masked record under a mixed categorical
// distance — rank displacement |u−v|/(card−1) on ordered attributes, 0/1
// on nominal ones. A record is re-identified when its true masked
// counterpart is among the nearest; ties earn fractional credit 1/|ties|,
// the expected success of an intruder breaking ties at random. The result
// is the percentage of re-identified records.
type DistanceLinkage struct{}

// Name implements Measure.
func (dl *DistanceLinkage) Name() string { return "DBRL" }

// Risk implements Measure.
func (dl *DistanceLinkage) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return 0
	}
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	lg.orig.group(orig, attrs)
	return dbrlGrouped(lg, &lg.orig, masked, attrs, distanceTables(orig, attrs))
}

// dbrlGrouped is DBRL of the original records grouped in o against the
// masked records, read in place from the columns cols of masked. It is
// the kernel of full Risk, which passes the masked file at the protected
// attributes and either its pooled grouping (unbound) or the shared one
// (bound), and of the delta state's wide edits, which pass the shared
// grouping and the state's masked projection.
// Nearest distances and tie counts depend only on tuples, so it groups
// the masked records into lg first (grouped.go).
func dbrlGrouped(lg *linkGroups, o *tupleGroups, masked *dataset.Dataset, cols []int, tables []pairTable) float64 {
	lg.masked.group(masked, cols)
	lg.nearest(o, tables)
	lg.tuple = resize(lg.tuple, len(cols))
	credit := 0.0
	for i, g := range o.of {
		// The true counterpart is among the nearest.
		readTuple(lg.tuple, masked, cols, i)
		if o.distance(int(g), lg.tuple, tables) == lg.best[g] {
			credit += 1 / float64(lg.count[g])
		}
	}
	return 100 * credit / float64(len(o.of))
}

// pairTable is a dense card×card matrix of integers indexed by an
// (original, masked) category pair: DBRL's integer-scaled category
// distances and ID's disclosing-window counts. Integer distances keep
// tie detection exact — float sums of per-attribute fractions would make
// "equal distance" depend on rounding.
type pairTable struct {
	card int
	d    []int64
}

func (t pairTable) at(u, v int) int64 { return t.d[u*t.card+v] }

// scaleUnit is one full category-range of distance. It is divisible by
// card-1 for every cardinality up to 25 (the largest domain in the paper's
// datasets: BUILT), so ordered distances stay exact integers.
const scaleUnit = 720720

// distanceTables precomputes per-attribute category distance tables:
// ordered attributes use rank displacement scaled by scaleUnit/(card−1),
// nominal attributes 0/scaleUnit.
func distanceTables(d *dataset.Dataset, attrs []int) []pairTable {
	out := make([]pairTable, len(attrs))
	for a, c := range attrs {
		attr := d.Schema().Attr(c)
		card := attr.Cardinality()
		t := pairTable{card: card, d: make([]int64, card*card)}
		for u := 0; u < card; u++ {
			for v := 0; v < card; v++ {
				var dist int64
				if attr.Ordered() && card > 1 {
					gap := u - v
					if gap < 0 {
						gap = -gap
					}
					dist = int64(gap) * scaleUnit / int64(card-1)
				} else if u != v {
					dist = scaleUnit
				}
				t.d[u*card+v] = dist
			}
		}
		out[a] = t
	}
	return out
}
