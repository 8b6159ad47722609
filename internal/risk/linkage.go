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
	oc, mc := lg.columns(orig, masked, attrs)
	lg.orig.group(oc, n)
	return dbrlGrouped(lg, &lg.orig, mc, distanceTables(orig, attrs), n)
}

// dbrlGrouped is DBRL of the n original records grouped in o against the
// masked protected columns mc. It is the kernel of full Risk, which
// passes its pooled grouping, and of the delta state's wide edits, which
// pass the state's own. Nearest distances and tie counts depend only on
// tuples, so it groups the masked records into lg first (grouped.go).
func dbrlGrouped(lg *linkGroups, o *tupleGroups, mc [][]int, tables []distTable, n int) float64 {
	lg.masked.group(mc, n)
	lg.nearest(o, tables)
	credit := 0.0
	for i := 0; i < n; i++ {
		// The true counterpart is among the nearest.
		if g := o.of[i]; o.distance(int(g), lg.record(mc, i), tables) == lg.best[g] {
			credit += 1 / float64(lg.count[g])
		}
	}
	return 100 * credit / float64(n)
}

// distTable is a dense card×card matrix of integer-scaled category
// distances. Integer distances keep tie detection exact — float sums of
// per-attribute fractions would make "equal distance" depend on rounding.
type distTable struct {
	card int
	d    []int64
}

func (t distTable) at(u, v int) int64 { return t.d[u*t.card+v] }

// scaleUnit is one full category-range of distance. It is divisible by
// card-1 for every cardinality up to 25 (the largest domain in the paper's
// datasets: BUILT), so ordered distances stay exact integers.
const scaleUnit = 720720

// distanceTables precomputes per-attribute category distance tables:
// ordered attributes use rank displacement scaled by scaleUnit/(card−1),
// nominal attributes 0/scaleUnit.
func distanceTables(d *dataset.Dataset, attrs []int) []distTable {
	out := make([]distTable, len(attrs))
	for a, c := range attrs {
		attr := d.Schema().Attr(c)
		card := attr.Cardinality()
		t := distTable{card: card, d: make([]int64, card*card)}
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
