// Package protection implements the six state-of-the-art categorical
// masking methods the paper seeds its evolutionary algorithm with
// (§3): median-based microaggregation (Torra 2004), bottom coding, top
// coding, global recoding, rank swapping (Moore 1996) and the
// Post-Randomization Method PRAM (Gouweleeuw et al. 1998) — together with
// the parameter grids that reconstruct the paper's initial populations.
//
// Every method takes an original dataset plus the indices of the attributes
// to protect and returns a new masked dataset over the same schema; masked
// values always stay inside the original category domains, because the
// evolutionary operators may only produce "valid values for the specific
// variable" (paper §2.2.1). Stochastic methods draw from the supplied
// RNG only, so a (method, params, seed) triple reproduces a masking
// exactly.
package protection

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"evoprot/internal/dataset"
)

// Method is one parameterized masking method.
type Method interface {
	// Name returns the method family, e.g. "microaggregation".
	Name() string
	// Params returns a human-readable parameter string, e.g. "k=5 groups=[0 1 2]".
	Params() string
	// Protect returns a masked copy of orig restricted to the given
	// attribute indices; all other columns are copied unchanged. orig is
	// never modified. Deterministic methods ignore rng.
	Protect(orig *dataset.Dataset, attrs []int, rng *rand.Rand) (*dataset.Dataset, error)
}

// String formats a method as "name(params)" for logs and reports.
func String(m Method) string { return m.Name() + "(" + m.Params() + ")" }

func validateAttrs(orig *dataset.Dataset, attrs []int) error {
	if orig == nil {
		return fmt.Errorf("protection: nil dataset")
	}
	if len(attrs) == 0 {
		return fmt.Errorf("protection: no attributes to protect")
	}
	seen := make(map[int]bool)
	for _, a := range attrs {
		if a < 0 || a >= orig.Cols() {
			return fmt.Errorf("protection: attribute index %d out of range [0,%d)", a, orig.Cols())
		}
		if seen[a] {
			return fmt.Errorf("protection: duplicate attribute index %d", a)
		}
		seen[a] = true
	}
	return nil
}

// Parse builds a method from a CLI-style spec string:
//
//	micro:k=5,config=0      median-based microaggregation
//	top:q=0.1               top coding at the 10% upper quantile
//	bottom:q=0.1            bottom coding at the 10% lower quantile
//	recode:depth=2          global recoding, runs of 2^2 categories merged
//	rankswap:p=10           rank swapping within 10% rank windows
//	pram:theta=0.8          PRAM with 80% retention probability
func Parse(spec string) (Method, error) {
	name, rest, _ := strings.Cut(spec, ":")
	kv := map[string]string{}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				return nil, fmt.Errorf("protection: malformed parameter %q in %q", part, spec)
			}
			kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	getFloat := func(key string, def float64) (float64, error) {
		s, ok := kv[key]
		if !ok {
			return def, nil
		}
		return strconv.ParseFloat(s, 64)
	}
	getInt := func(key string, def int) (int, error) {
		s, ok := kv[key]
		if !ok {
			return def, nil
		}
		return strconv.Atoi(s)
	}
	switch name {
	case "micro", "microaggregation":
		k, err := getInt("k", 3)
		if err != nil {
			return nil, err
		}
		cfg, err := getInt("config", 0)
		if err != nil {
			return nil, err
		}
		return NewMicroaggregation(k, cfg)
	case "top", "topcoding":
		q, err := getFloat("q", 0.1)
		if err != nil {
			return nil, err
		}
		return NewTopCoding(q)
	case "bottom", "bottomcoding":
		q, err := getFloat("q", 0.1)
		if err != nil {
			return nil, err
		}
		return NewBottomCoding(q)
	case "recode", "globalrecoding":
		depth, err := getInt("depth", 1)
		if err != nil {
			return nil, err
		}
		return NewGlobalRecoding(depth)
	case "rankswap", "rankswapping":
		p, err := getFloat("p", 10)
		if err != nil {
			return nil, err
		}
		return NewRankSwapping(p)
	case "pram":
		theta, err := getFloat("theta", 0.8)
		if err != nil {
			return nil, err
		}
		return NewPRAM(theta)
	default:
		return nil, fmt.Errorf("protection: unknown method %q (want micro|top|bottom|recode|rankswap|pram)", name)
	}
}
