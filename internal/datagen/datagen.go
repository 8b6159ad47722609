// Package datagen synthesizes the four categorical evaluation datasets the
// paper draws from the UCI repository: the 1993 U.S. Housing Survey, German
// Credit, Solar Flare, and Adult.
//
// The UCI files themselves are not redistributable here, so each generator
// rebuilds a file with the same shape: identical record counts, attribute
// counts, attribute names and per-attribute category counts (the paper
// reports these exactly for the protected attributes), skewed marginal
// distributions, and cross-attribute correlations induced by a seeded
// dependency chain. All masking methods, information-loss and
// disclosure-risk measures, and both evolutionary operators act only on
// this categorical structure, so the substitution preserves the behaviour
// the paper evaluates. Real UCI CSVs can be used instead
// via dataset.ReadCSV.
//
// Generation model: attributes are sampled left to right. Attribute i draws
// either (with probability coupling) a value tied to its parent attribute —
// the parent's category index rescaled to this domain plus a small jitter —
// or (otherwise) an independent draw from a rotated power-law marginal.
// This yields strong, realistic contingency structure between related
// attributes (education↔occupation, spot class↔spot size, ...), which is
// what record-linkage attacks and contingency-table losses feed on.
package datagen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"evoprot/internal/dataset"
)

// attrSpec describes one synthetic attribute.
type attrSpec struct {
	name     string
	cats     []string
	ordered  bool
	skew     float64 // power-law exponent of the marginal (0 = uniform)
	peak     float64 // relative position in [0,1] of the marginal's mode
	parent   int     // index of the attribute this one is coupled to; -1 if none
	coupling float64 // probability of drawing from the parent instead of the marginal
	jitter   int     // radius of the jitter added to parent-derived values
}

// generate samples a dataset from the specs. Everything is driven by a
// single seeded PCG stream, so a (name, rows, seed) triple identifies a
// dataset exactly.
func generate(specs []attrSpec, rows int, seed uint64) *dataset.Dataset {
	attrs := make([]*dataset.Attribute, len(specs))
	for i, s := range specs {
		attrs[i] = dataset.MustAttribute(s.name, s.cats, s.ordered)
	}
	schema := dataset.MustSchema(attrs...)
	d := dataset.New(schema, rows)

	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	cdfs := make([][]float64, len(specs))
	for i, s := range specs {
		cdfs[i] = marginalCDF(len(s.cats), s.skew, s.peak)
	}

	row := make([]int, len(specs))
	for r := 0; r < rows; r++ {
		for i, s := range specs {
			var v int
			if s.parent >= 0 && rng.Float64() < s.coupling {
				v = fromParent(rng, row[s.parent], len(specs[s.parent].cats), len(s.cats), s.jitter)
			} else {
				v = sampleCDF(rng, cdfs[i])
			}
			row[i] = v
			d.Set(r, i, v)
		}
	}
	return d
}

// marginalCDF builds the cumulative distribution of a power-law pmf
// p(k) ∝ 1/(1+distance from mode)^skew whose mode sits at peak*(card-1).
func marginalCDF(card int, skew, peak float64) []float64 {
	mode := int(peak * float64(card-1))
	weights := make([]float64, card)
	total := 0.0
	for k := 0; k < card; k++ {
		d := float64(abs(k - mode))
		w := 1.0 / math.Pow(1+d, skew)
		weights[k] = w
		total += w
	}
	cdf := make([]float64, card)
	cum := 0.0
	for k, w := range weights {
		cum += w / total
		cdf[k] = cum
	}
	cdf[card-1] = 1 // guard against rounding
	return cdf
}

func sampleCDF(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	// Domains are small (<= 25); linear scan beats binary search setup.
	for k, c := range cdf {
		if u <= c {
			return k
		}
	}
	return len(cdf) - 1
}

// fromParent rescales the parent's category index into this attribute's
// domain and jitters it, clamping to the domain.
func fromParent(rng *rand.Rand, pv, pcard, card, jitter int) int {
	var v int
	if pcard <= 1 {
		v = 0
	} else {
		v = pv * (card - 1) / (pcard - 1)
	}
	if jitter > 0 {
		v += rng.IntN(2*jitter+1) - jitter
	}
	if v < 0 {
		v = 0
	}
	if v >= card {
		v = card - 1
	}
	return v
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// seqLabels returns n labels "<prefix>01".."<prefix>n" with 2-digit padding.
func seqLabels(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i+1)
	}
	return out
}

// yearBands returns n consecutive year-range labels of the given width
// starting at first, e.g. "1919-1921".
func yearBands(first, width, n int) []string {
	out := make([]string, n)
	for i := range out {
		lo := first + i*width
		out[i] = fmt.Sprintf("%d-%d", lo, lo+width-1)
	}
	return out
}

// Names returns the dataset names understood by ByName, in the paper's
// order of introduction.
func Names() []string { return []string{"housing", "german", "flare", "adult"} }

// DefaultRows returns the paper's record count for the named dataset.
func DefaultRows(name string) int {
	if name == "flare" {
		return 1066
	}
	return 1000
}

// ProtectedAttrs returns the names of the three attributes the paper
// protects in the named dataset.
func ProtectedAttrs(name string) ([]string, error) {
	switch name {
	case "housing":
		return []string{"BUILT", "DEGREE", "GRADE1"}, nil
	case "german":
		return []string{"EXISTACC", "SAVINGS", "PRESEMPLOY"}, nil
	case "flare":
		return []string{"CLASS", "LARGSPOT", "SPOTDIST"}, nil
	case "adult":
		return []string{"EDUCATION", "MARITAL-STATUS", "OCCUPATION"}, nil
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q (have %v)", name, Names())
	}
}

// ByName generates the named dataset with the given number of rows (0 means
// the paper's record count) and seed.
func ByName(name string, rows int, seed uint64) (*dataset.Dataset, error) {
	if rows <= 0 {
		rows = DefaultRows(name)
	}
	switch name {
	case "housing":
		return Housing(rows, seed), nil
	case "german":
		return German(rows, seed), nil
	case "flare":
		return Flare(rows, seed), nil
	case "adult":
		return Adult(rows, seed), nil
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q (have %v)", name, Names())
	}
}

// Housing generates a synthetic stand-in for the 1993 U.S. Housing Survey
// extract: 11 categorical attributes; protected attributes BUILT (25
// categories), DEGREE (8) and GRADE1 (21), as reported in the paper.
func Housing(rows int, seed uint64) *dataset.Dataset {
	specs := []attrSpec{
		{name: "BUILT", cats: yearBands(1919, 3, 25), ordered: true, skew: 0.8, peak: 0.7, parent: -1},
		{name: "TENURE", cats: []string{"owned", "rented", "no-cash-rent"}, skew: 0.9, peak: 0, parent: 0, coupling: 0.35, jitter: 1},
		{name: "TYPE", cats: []string{"house", "apartment", "mobile-home", "boat-rv", "other"}, skew: 1.2, peak: 0, parent: 1, coupling: 0.45, jitter: 1},
		{name: "DEGREE", cats: []string{"none", "high-school", "some-college", "associate", "bachelor", "master", "professional", "doctorate"}, ordered: true, skew: 0.9, peak: 0.2, parent: -1},
		{name: "GRADE1", cats: seqLabels("grade", 21), ordered: true, skew: 0.6, peak: 0.6, parent: 3, coupling: 0.6, jitter: 2},
		{name: "ROOMS", cats: seqLabels("rooms", 9), ordered: true, skew: 0.7, peak: 0.45, parent: 1, coupling: 0.4, jitter: 1},
		{name: "BEDRMS", cats: seqLabels("bedrms", 6), ordered: true, skew: 0.7, peak: 0.4, parent: 5, coupling: 0.7, jitter: 1},
		{name: "FUEL", cats: []string{"gas", "electricity", "fuel-oil", "coal", "wood", "solar", "other"}, skew: 1.1, peak: 0, parent: 2, coupling: 0.3, jitter: 1},
		{name: "REGION", cats: []string{"northeast", "midwest", "south", "west"}, skew: 0.3, peak: 0.6, parent: -1},
		{name: "METRO", cats: []string{"central-city", "suburb", "rural"}, skew: 0.4, peak: 0.35, parent: 8, coupling: 0.3, jitter: 1},
		{name: "INCGRP", cats: seqLabels("inc", 7), ordered: true, skew: 0.6, peak: 0.3, parent: 3, coupling: 0.5, jitter: 1},
	}
	return generate(specs, rows, seed)
}

// German generates a synthetic stand-in for the German Credit categorical
// extract: 13 categorical attributes; protected attributes EXISTACC (5
// categories), SAVINGS (6) and PRESEMPLOY (6), as reported in the paper.
func German(rows int, seed uint64) *dataset.Dataset {
	specs := []attrSpec{
		{name: "EXISTACC", cats: []string{"no-account", "lt-0dm", "0-200dm", "ge-200dm", "salary-account"}, ordered: true, skew: 1.1, peak: 0.25, parent: -1},
		{name: "CREDITHIST", cats: []string{"no-credits", "all-paid", "existing-paid", "delayed", "critical"}, skew: 1.2, peak: 0.5, parent: 0, coupling: 0.35, jitter: 1},
		{name: "PURPOSE", cats: []string{"new-car", "used-car", "furniture", "radio-tv", "appliances", "repairs", "education", "retraining", "business", "other"}, skew: 1.0, peak: 0.25, parent: -1},
		{name: "SAVINGS", cats: []string{"no-savings", "lt-100dm", "100-500dm", "500-1000dm", "ge-1000dm", "unknown"}, ordered: true, skew: 1.2, peak: 0.15, parent: 0, coupling: 0.45, jitter: 1},
		{name: "PRESEMPLOY", cats: []string{"unemployed", "lt-1yr", "1-4yrs", "4-7yrs", "7-10yrs", "ge-10yrs"}, ordered: true, skew: 1.0, peak: 0.45, parent: -1},
		{name: "PERSONAL", cats: []string{"male-single", "male-married", "female-single", "female-married"}, skew: 1.1, peak: 0.15, parent: -1},
		{name: "OTHERPARTIES", cats: []string{"none", "co-applicant", "guarantor"}, skew: 1.8, peak: 0, parent: -1},
		{name: "PROPERTY", cats: []string{"real-estate", "savings-insurance", "car-other", "unknown"}, skew: 1.0, peak: 0.35, parent: 3, coupling: 0.4, jitter: 1},
		{name: "OTHERPLANS", cats: []string{"bank", "stores", "none"}, skew: 1.5, peak: 1, parent: -1},
		{name: "HOUSING", cats: []string{"rent", "own", "for-free"}, skew: 1.2, peak: 0.5, parent: 7, coupling: 0.45, jitter: 1},
		{name: "JOB", cats: []string{"unskilled-nonres", "unskilled-res", "skilled", "management"}, skew: 1.1, peak: 0.6, parent: 4, coupling: 0.5, jitter: 1},
		{name: "TELEPHONE", cats: []string{"none", "registered"}, skew: 0.8, peak: 0, parent: 10, coupling: 0.35, jitter: 0},
		{name: "FOREIGN", cats: []string{"yes", "no"}, skew: 2.0, peak: 1, parent: -1},
	}
	return generate(specs, rows, seed)
}

// Flare generates a synthetic stand-in for the Solar Flare dataset: 13
// categorical attributes; protected attributes CLASS (8 categories),
// LARGSPOT (7) and SPOTDIST (5), as reported in the paper.
func Flare(rows int, seed uint64) *dataset.Dataset {
	specs := []attrSpec{
		{name: "CLASS", cats: []string{"A", "B", "C", "D", "E", "F", "H", "X"}, ordered: true, skew: 1.0, peak: 0.3, parent: -1},
		{name: "LARGSPOT", cats: []string{"X", "R", "S", "A", "H", "K", "W"}, ordered: true, skew: 0.9, peak: 0.35, parent: 0, coupling: 0.6, jitter: 1},
		{name: "SPOTDIST", cats: []string{"X", "O", "I", "C", "M"}, ordered: true, skew: 1.1, peak: 0.25, parent: 0, coupling: 0.55, jitter: 1},
		{name: "ACTIVITY", cats: []string{"reduced", "unchanged"}, skew: 1.2, peak: 0, parent: -1},
		{name: "EVOLUTION", cats: []string{"decay", "no-growth", "growth"}, skew: 1.0, peak: 0.7, parent: 0, coupling: 0.3, jitter: 1},
		{name: "PREVACT", cats: []string{"nothing", "one-m1", "more-m1"}, skew: 1.6, peak: 0, parent: -1},
		{name: "HISTCOMPLEX", cats: []string{"yes", "no"}, skew: 0.5, peak: 1, parent: 0, coupling: 0.4, jitter: 0},
		{name: "BECAMECOMPLEX", cats: []string{"yes", "no"}, skew: 1.0, peak: 1, parent: 6, coupling: 0.5, jitter: 0},
		{name: "AREA", cats: []string{"small", "large"}, skew: 1.1, peak: 0, parent: 1, coupling: 0.45, jitter: 0},
		{name: "AREALARGEST", cats: []string{"lt-5", "ge-5"}, skew: 1.3, peak: 0, parent: 8, coupling: 0.6, jitter: 0},
		{name: "CFLARES", cats: []string{"c0", "c1", "c2plus"}, ordered: true, skew: 1.0, peak: 0, parent: 0, coupling: 0.35, jitter: 1},
		{name: "MFLARES", cats: []string{"m0", "m1", "m2plus"}, ordered: true, skew: 1.5, peak: 0, parent: 10, coupling: 0.4, jitter: 1},
		{name: "XFLARES", cats: []string{"x0", "x1plus"}, skew: 2.0, peak: 0, parent: 11, coupling: 0.4, jitter: 0},
	}
	return generate(specs, rows, seed)
}

// Adult generates a synthetic stand-in for the Adult (census income)
// categorical extract: 8 categorical attributes; protected attributes
// EDUCATION (16 categories), MARITAL-STATUS (7) and OCCUPATION (14), as
// reported in the paper.
func Adult(rows int, seed uint64) *dataset.Dataset {
	specs := []attrSpec{
		{name: "WORKCLASS", cats: []string{"private", "self-emp-not-inc", "self-emp-inc", "federal-gov", "local-gov", "state-gov", "without-pay", "never-worked"}, skew: 1.2, peak: 0, parent: -1},
		{name: "EDUCATION", cats: []string{"preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th", "12th", "hs-grad", "some-college", "assoc-voc", "assoc-acdm", "bachelors", "masters", "prof-school", "doctorate"}, ordered: true, skew: 0.7, peak: 0.55, parent: -1},
		{name: "MARITAL-STATUS", cats: []string{"never-married", "married-civ-spouse", "divorced", "married-spouse-absent", "separated", "married-af-spouse", "widowed"}, skew: 0.8, peak: 0.15, parent: -1},
		{name: "OCCUPATION", cats: []string{"tech-support", "craft-repair", "other-service", "sales", "exec-managerial", "prof-specialty", "handlers-cleaners", "machine-op-inspct", "adm-clerical", "farming-fishing", "transport-moving", "priv-house-serv", "protective-serv", "armed-forces"}, skew: 0.4, peak: 0.3, parent: 1, coupling: 0.55, jitter: 2},
		{name: "RELATIONSHIP", cats: []string{"wife", "own-child", "husband", "not-in-family", "other-relative", "unmarried"}, skew: 0.4, peak: 0.4, parent: 2, coupling: 0.55, jitter: 1},
		{name: "RACE", cats: []string{"white", "asian-pac-islander", "amer-indian-eskimo", "other", "black"}, skew: 1.4, peak: 0, parent: -1},
		{name: "SEX", cats: []string{"female", "male"}, skew: 0.25, peak: 1, parent: -1},
		{name: "INCOME", cats: []string{"le-50k", "gt-50k"}, skew: 0.8, peak: 0, parent: 1, coupling: 0.5, jitter: 0},
	}
	return generate(specs, rows, seed)
}
