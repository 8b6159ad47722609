package protection

import "fmt"

// The paper builds one initial population per dataset from parameter grids
// over the six methods (§3):
//
//	Housing:       110 = 72 MA + 6 BC + 6 TC + 6 GR + 11 RS + 9 PRAM
//	German, Flare: 104 = 72 MA + 4 BC + 4 TC + 4 GR + 11 RS + 9 PRAM
//	Adult:          86 = 48 MA + 6 BC + 6 TC + 6 GR + 11 RS + 9 PRAM
//
// The exact parameter values are not given in the paper, so the grids
// below sweep each method from conservative to aggressive — the same
// span an SDC practitioner would explore — and are truncated/cycled to the
// paper's exact counts.

// MicroaggregationGrid returns n microaggregation variants for protCount
// protected attributes: the (k, config) product enumerated k-major with
// k = 2, 3, ... and configs from MicroConfigs(protCount).
func MicroaggregationGrid(n, protCount int) []Method {
	configs := MicroConfigs(protCount)
	out := make([]Method, 0, n)
	for k := 2; len(out) < n; k++ {
		for cfg := range configs {
			if len(out) == n {
				break
			}
			m, err := NewMicroaggregation(k, cfg)
			if err != nil {
				panic(err) // unreachable: k >= 2, cfg >= 0
			}
			out = append(out, m)
		}
	}
	return out
}

// TopCodingGrid returns n top-coding variants with tail fractions evenly
// spread over [0.05, 0.30].
func TopCodingGrid(n int) []Method {
	out := make([]Method, 0, n)
	for _, q := range spread(0.05, 0.30, n) {
		m, err := NewTopCoding(q)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// BottomCodingGrid returns n bottom-coding variants with tail fractions
// evenly spread over [0.05, 0.30].
func BottomCodingGrid(n int) []Method {
	out := make([]Method, 0, n)
	for _, q := range spread(0.05, 0.30, n) {
		m, err := NewBottomCoding(q)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// GlobalRecodingGrid returns n global-recoding variants of increasing
// depth 1, 2, 3, ... (cycling back to 1 past depth 6, where one run of
// 64 categories spans every practical domain).
func GlobalRecodingGrid(n int) []Method {
	out := make([]Method, 0, n)
	for i := 0; i < n; i++ {
		m, err := NewGlobalRecoding(i%6 + 1)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// RankSwappingGrid returns n rank-swapping variants with windows evenly
// spread over [2%, 24%].
func RankSwappingGrid(n int) []Method {
	out := make([]Method, 0, n)
	for _, p := range spread(2, 24, n) {
		m, err := NewRankSwapping(p)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// PRAMGrid returns n PRAM variants with retention probabilities evenly
// spread over [0.50, 0.92] (aggressive to conservative).
func PRAMGrid(n int) []Method {
	out := make([]Method, 0, n)
	for _, theta := range spread(0.50, 0.92, n) {
		m, err := NewPRAM(theta)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// spread returns n values evenly spaced over [lo, hi]; a single value sits
// at the midpoint.
func spread(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = (lo + hi) / 2
		return out
	}
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// Composition is the per-method variant count of an initial population.
type Composition struct {
	Microaggregation int
	BottomCoding     int
	TopCoding        int
	GlobalRecoding   int
	RankSwapping     int
	PRAM             int
}

// Total returns the population size the composition yields.
func (c Composition) Total() int {
	return c.Microaggregation + c.BottomCoding + c.TopCoding + c.GlobalRecoding + c.RankSwapping + c.PRAM
}

// PaperComposition returns the paper's §3 population composition for the
// named dataset.
func PaperComposition(datasetName string) (Composition, error) {
	switch datasetName {
	case "housing":
		return Composition{72, 6, 6, 6, 11, 9}, nil
	case "german", "flare":
		return Composition{72, 4, 4, 4, 11, 9}, nil
	case "adult":
		return Composition{48, 6, 6, 6, 11, 9}, nil
	default:
		return Composition{}, fmt.Errorf("protection: no paper composition for dataset %q", datasetName)
	}
}

// Grid materializes a composition into the concrete method list, in the
// paper's order (MA, BC, TC, GR, RS, PRAM). protCount is the number of
// protected attributes (3 for every paper dataset).
func (c Composition) Grid(protCount int) []Method {
	out := make([]Method, 0, c.Total())
	out = append(out, MicroaggregationGrid(c.Microaggregation, protCount)...)
	out = append(out, BottomCodingGrid(c.BottomCoding)...)
	out = append(out, TopCodingGrid(c.TopCoding)...)
	out = append(out, GlobalRecodingGrid(c.GlobalRecoding)...)
	out = append(out, RankSwappingGrid(c.RankSwapping)...)
	out = append(out, PRAMGrid(c.PRAM)...)
	return out
}
