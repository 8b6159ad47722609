package score

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The paper's §4 names "some other ways to aggregate [IL and DR] in order
// to help the algorithm to optimize faster" as future work. This file
// provides the two standard families beyond Mean and Max; both are
// exercised by the ablation benchmarks.

// Weighted is the convex combination Score = W·IL + (1−W)·DR. W > 0.5
// favours utility (penalizes information loss harder); W < 0.5 favours
// privacy. W = 0.5 halves into the paper's Eq. 1.
type Weighted struct {
	// W is the information-loss weight in [0,1].
	W float64
}

// NewWeighted validates the weight: NaN is rejected with the values
// outside [0,1].
func NewWeighted(w float64) (Weighted, error) {
	if !(w >= 0 && w <= 1) {
		return Weighted{}, fmt.Errorf("score: weight %v outside [0,1]", w)
	}
	return Weighted{W: w}, nil
}

// Name implements Aggregator.
func (w Weighted) Name() string { return fmt.Sprintf("weighted(%.2f)", w.W) }

// Combine implements Aggregator.
func (w Weighted) Combine(il, dr float64) float64 { return w.W*il + (1-w.W)*dr }

// Euclidean scores a protection by its distance from the ideal point
// (IL=0, DR=0), normalized so a (100,100) protection scores 100. Unlike
// Mean it penalizes unbalanced pairs (for a fixed mean, |IL−DR| increases
// the distance), but more smoothly than Max.
type Euclidean struct{}

// Name implements Aggregator.
func (Euclidean) Name() string { return "euclidean" }

// Combine implements Aggregator.
func (Euclidean) Combine(il, dr float64) float64 {
	return math.Sqrt((il*il + dr*dr) / 2)
}

// AggregatorByName resolves every built-in aggregator: "mean", "max",
// "euclidean", and "weighted:<w>" (e.g. "weighted:0.7"), where the whole
// suffix w must parse as a number in [0,1].
func AggregatorByName(name string) (Aggregator, error) {
	switch name {
	case "mean":
		return Mean{}, nil
	case "max":
		return Max{}, nil
	case "euclidean":
		return Euclidean{}, nil
	}
	if s, ok := strings.CutPrefix(name, "weighted:"); ok {
		w, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("score: aggregator %q: weight %q is not a number", name, s)
		}
		return NewWeighted(w)
	}
	return nil, fmt.Errorf("score: unknown aggregator %q (want mean|max|euclidean|weighted:<w>)", name)
}
