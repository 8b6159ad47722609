package protection

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

// GlobalRecoding coarsens each protected attribute by merging runs of
// 2^Depth adjacent categories (domain order) and mapping every category
// to its run's count-weighted median, so recoded values stay in-domain —
// the evolutionary operators may only produce "valid values for the
// specific variable" (paper §2.2.1), and the median keeps rank
// displacement small. Depth saturates once one run spans the domain.
// Deterministic.
type GlobalRecoding struct {
	Depth int
}

// NewGlobalRecoding validates the depth.
func NewGlobalRecoding(depth int) (*GlobalRecoding, error) {
	if depth < 1 {
		return nil, fmt.Errorf("protection: global recoding depth=%d < 1 would be a no-op", depth)
	}
	return &GlobalRecoding{Depth: depth}, nil
}

// Name implements Method.
func (g *GlobalRecoding) Name() string { return "globalrecoding" }

// Params implements Method.
func (g *GlobalRecoding) Params() string { return fmt.Sprintf("depth=%d", g.Depth) }

// Protect implements Method.
func (g *GlobalRecoding) Protect(orig *dataset.Dataset, attrs []int, _ *rand.Rand) (*dataset.Dataset, error) {
	if err := validateAttrs(orig, attrs); err != nil {
		return nil, err
	}
	out := orig.Clone()
	col := make([]int, orig.Rows())
	for _, c := range attrs {
		card := orig.Schema().Attr(c).Cardinality()
		orig.ColumnInto(col, c)
		// Clamp before shifting: past bits.Len(card-1) one run already
		// spans the domain, and a huge Depth would overflow the shift.
		recode := groupMedians(stats.Freq(col, card), 1<<min(g.Depth, bits.Len(uint(card-1))))
		for r, v := range col {
			out.Set(r, c, recode[v])
		}
	}
	return out, nil
}

// groupMedians maps every category to the median of its run of width
// adjacent categories under the per-category counts: the first category
// whose cumulative count reaches (total+1)/2, or the run's middle
// category when no record falls in the run.
func groupMedians(counts []int, width int) []int {
	recode := make([]int, len(counts))
	for lo := 0; lo < len(counts); lo += width {
		hi := min(lo+width, len(counts))
		total := 0
		for _, n := range counts[lo:hi] {
			total += n
		}
		med := lo + (hi-lo)/2
		if total > 0 {
			med = lo
			for cum := counts[lo]; cum < (total+1)/2; cum += counts[med] {
				med++
			}
		}
		for v := lo; v < hi; v++ {
			recode[v] = med
		}
	}
	return recode
}
