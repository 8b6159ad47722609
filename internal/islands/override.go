package islands

import (
	"evoprot/internal/core"
	"evoprot/internal/score"
)

// Override specializes one island of a heterogeneous run: every set field
// replaces the Engine template's setting for that island, every empty or
// zero field inherits it. Names are resolved, so an override that names
// the default policy ("inverse-proportional", "parent-index", "scalar")
// replaces a template that sets another. Override is also the wire shape
// of a per-island override (the facade's IslandConfig and
// JobSpec.PerIsland) and what a checkpoint records, so one value travels
// from a submitted spec to a resumed run. Crossover is not a setting:
// every island uses the paper's 2-point crossover. Seeds and worker pools
// are not settings either: island seeds derive from the run seed, and the
// pools are the run's.
type Override struct {
	// Selection names the island's reproduction-selection policy:
	// "inverse-proportional", "raw-proportional", "rank" or "uniform".
	Selection string `json:"selection,omitempty"`
	// Crowding names the island's crossover replacement policy:
	// "parent-index" or "nearest-parent".
	Crowding string `json:"crowding,omitempty"`
	// MutationRate is the island's probability of mutating rather than
	// crossing per generation; use core.AllCrossover for an explicit 0.0.
	MutationRate float64 `json:"mutation_rate,omitempty"`
	// LeaderFraction sets the island's leader-group size as a population
	// fraction.
	LeaderFraction float64 `json:"leader_fraction,omitempty"`
	// Aggregator names the island's own fitness aggregation ("mean",
	// "max", "euclidean", "weighted:<w>") — niched search over the
	// risk/information-loss trade-off.
	Aggregator string `json:"aggregator,omitempty"`
	// Objective selects the island's selection objective: "scalar"
	// (aggregated single-score search) or "pareto" (NSGA-II non-dominated
	// search over raw (IL, DR)).
	Objective string `json:"objective,omitempty"`
	// ParetoRef sets the island's hypervolume reference point; nil
	// inherits the run's.
	ParetoRef *ParetoRef `json:"pareto_ref,omitempty"`
	// Generations sets the island's per-Run budget.
	Generations int `json:"generations,omitempty"`
	// EarlyStop sets the island's stagnation window.
	EarlyStop int `json:"early_stop,omitempty"`
}

// ParetoRef is the wire shape of a hypervolume reference point: the
// worst corner of the (IL, DR) box hypervolume is measured against. Both
// components must be finite and positive.
type ParetoRef struct {
	IL float64 `json:"il"`
	DR float64 `json:"dr"`
}

// Pair returns the reference point as the engine's score pair. A nil
// reference is the zero pair, which selects core.DefaultParetoRef.
func (r *ParetoRef) Pair() score.Pair {
	if r == nil {
		return score.Pair{}
	}
	return score.Pair{IL: r.IL, DR: r.DR}
}

// apply resolves the override's names, overlays its set fields onto the
// template and validates the island configuration that results.
func (o Override) apply(template core.Config) (core.Config, error) {
	out := template
	var err error
	if o.Selection != "" {
		if out.Selection, err = core.SelectionByName(o.Selection); err != nil {
			return out, err
		}
	}
	if o.Crowding != "" {
		if out.Crowding, err = core.CrowdingByName(o.Crowding); err != nil {
			return out, err
		}
	}
	if o.Objective != "" {
		if out.Objective, err = core.ObjectiveByName(o.Objective); err != nil {
			return out, err
		}
	}
	if o.MutationRate != 0 {
		out.MutationRate = o.MutationRate
	}
	if o.LeaderFraction != 0 {
		out.LeaderFraction = o.LeaderFraction
	}
	if o.Aggregator != "" {
		out.Aggregator = o.Aggregator
	}
	if o.ParetoRef != nil {
		out.ParetoRef = o.ParetoRef.Pair()
	}
	if o.Generations != 0 {
		out.Generations = o.Generations
	}
	if o.EarlyStop != 0 {
		out.NoImprovementWindow = o.EarlyStop
	}
	return out, out.Validate()
}
