package evoprot

// JobSpec is the JSON-expressible description of one optimization job:
// the functional-option surface of Run/NewRunner as data, and the wire
// format of the evoprotd job service (internal/serve, cmd/evoprotd).
// Campaign tooling builds specs, ships them over HTTP, and the service
// turns them back into options with the Options bridge.

import (
	"fmt"
	"strings"

	"evoprot/internal/core"
	"evoprot/internal/islands"
)

// JobSpec describes one optimization job. Exactly one dataset source must
// be set: a built-in generator name (Dataset), an inline CSV upload
// (DatasetCSV), or a server-side path (DatasetPath). Zero values of the
// remaining fields select the paper's defaults, mirroring the option
// functions they bridge to.
type JobSpec struct {
	// Dataset names a built-in synthetic dataset: housing, german, flare
	// or adult.
	Dataset string `json:"dataset,omitempty"`
	// Rows scales a built-in dataset (0 = the paper's record count).
	Rows int `json:"rows,omitempty"`
	// DatasetCSV is an inline CSV upload of the original microdata.
	DatasetCSV string `json:"dataset_csv,omitempty"`
	// DatasetPath is a server-side CSV path; services may refuse it.
	DatasetPath string `json:"dataset_path,omitempty"`
	// Attributes names the protected attributes. Optional for built-in
	// datasets (defaulting to the paper's protected set), required for
	// CSV sources. Materialize fills the resolved names in.
	Attributes []string `json:"attributes,omitempty"`
	// Grid names the masking grid seeding the initial population;
	// Materialize defaults it to Dataset for built-ins and "flare"
	// otherwise.
	Grid string `json:"grid,omitempty"`
	// Aggregator is "mean" (Eq. 1), "max" (Eq. 2, default), "euclidean"
	// or "weighted:<w>".
	Aggregator string `json:"aggregator,omitempty"`
	// Objective selects the selection objective: "scalar" (aggregated
	// single-score search, the default) or "pareto" (NSGA-II non-dominated
	// search over the raw (IL, DR) pairs; results and events carry the
	// front and its hypervolume).
	Objective string `json:"objective,omitempty"`
	// ParetoRef sets the hypervolume reference point of Pareto-mode runs;
	// nil selects the (100, 100) corner of the measures' natural range.
	// Both components must be finite and positive.
	ParetoRef *ParetoRef `json:"pareto_ref,omitempty"`
	// MLTarget, when set, appends the machine-learning-utility measure to
	// the information-loss battery: a naive Bayes proxy classifier
	// predicting this attribute, scoring the held-out accuracy drop of a
	// model trained on the protected file. The measure has no incremental
	// state, so it is recomputed in full for every offspring.
	MLTarget string `json:"ml_target,omitempty"`
	// Generations is each island's total evolution budget
	// (0 = DefaultGenerations).
	Generations int `json:"generations,omitempty"`
	// Seed fixes the run seed; the whole parallel run reproduces from it.
	Seed uint64 `json:"seed"`
	// Workers parallelizes initial-population evaluation (0 = sequential;
	// never more workers than seed protections).
	Workers int `json:"workers,omitempty"`
	// EvalWorkers parallelizes generation-batch offspring evaluation (0
	// inherits Workers, negative forces sequential). Identical results at
	// any width.
	EvalWorkers int `json:"eval_workers,omitempty"`
	// EarlyStop stops an island after N stagnant generations (0 = off).
	EarlyStop int `json:"early_stop,omitempty"`
	// Selection names the reproduction-selection policy
	// ("inverse-proportional" default, "raw-proportional", "rank",
	// "uniform").
	Selection string `json:"selection,omitempty"`
	// Islands evolves N islands concurrently (0 or 1 = single island).
	Islands int `json:"islands,omitempty"`
	// MigrateEvery is the migration epoch length in generations (0 = 25).
	MigrateEvery int `json:"migrate_every,omitempty"`
	// Migrants is how many elites each island emits per migration (0 = 2).
	Migrants int `json:"migrants,omitempty"`
	// Topology is the migration topology: "ring" (default) or "broadcast".
	Topology string `json:"topology,omitempty"`
	// PerIsland specializes islands: entry i overrides engine knobs for
	// island i (zero-valued fields inherit the job's shared setup). When
	// set without Islands, the job runs one island per entry; with
	// Islands, the lengths must match. Mutually exclusive with Niches.
	PerIsland []IslandConfig `json:"per_island,omitempty"`
	// Niches names a built-in heterogeneity preset spread across the
	// islands: "explore-exploit", "selection-sweep", "aggregator-sweep" or
	// "scalar-pareto". Requires Islands >= 2 (one island would make every
	// preset a silent no-op). Mutually exclusive with PerIsland.
	Niches string `json:"niches,omitempty"`
	// Adaptive, when present, enables divergence-driven adaptive migration
	// within its bounds (zero-valued bounds select defaults derived from
	// the schedule).
	Adaptive *AdaptiveMigration `json:"adaptive,omitempty"`
	// Priority orders service-side scheduling (0-9, higher runs first; 0
	// is the default). It is a service concern, not an engine option: a
	// high-priority submission may preempt lower-priority running work,
	// and the result is unaffected either way.
	Priority int `json:"priority,omitempty"`
}

// Validate checks the spec's internal consistency: exactly one dataset
// source, attributes present for CSV sources, and every symbolic name
// resolvable. It does not touch the filesystem or generate data.
func (s *JobSpec) Validate() error {
	sources := 0
	for _, set := range []bool{s.Dataset != "", s.DatasetCSV != "", s.DatasetPath != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("evoprot: job spec needs exactly one of dataset, dataset_csv or dataset_path, got %d", sources)
	}
	if s.Dataset == "" && len(s.Attributes) == 0 {
		return fmt.Errorf("evoprot: job spec needs attributes for CSV dataset sources")
	}
	if s.Aggregator != "" {
		if _, err := AggregatorByName(s.Aggregator); err != nil {
			return err
		}
	}
	if _, err := core.SelectionByName(s.Selection); err != nil {
		return err
	}
	if _, err := TopologyByName(s.Topology); err != nil {
		return err
	}
	if s.Grid != "" {
		if _, err := PaperComposition(s.Grid); err != nil {
			return err
		}
	}
	if s.Generations < 0 || s.Islands < 0 || s.Rows < 0 || s.Workers < 0 ||
		s.EarlyStop < 0 || s.MigrateEvery < 0 || s.Migrants < 0 {
		return fmt.Errorf("evoprot: job spec counts must be non-negative")
	}
	if s.Priority < 0 || s.Priority > 9 {
		return fmt.Errorf("evoprot: job spec priority must be 0..9, got %d", s.Priority)
	}
	// Heterogeneity and adaptive migration are validated by building the
	// exact island configuration the job would run — admission rejects
	// whatever run time would reject, before any evaluation work happens.
	icfg, err := s.islandsConfig()
	if err != nil {
		return err
	}
	return icfg.Validate()
}

// refPair maps an optional wire reference point onto the engine's Pair
// (zero = "use the default reference").
func refPair(r *ParetoRef) Pair {
	if r == nil {
		return Pair{}
	}
	return Pair{IL: r.IL, DR: r.DR}
}

// islandsConfig mirrors the spec onto the islands.Config the job would
// execute with, through the same resolveIslandSetup the functional
// options use — the single source of truth for admission-time validation
// of heterogeneous and adaptive jobs.
func (s *JobSpec) islandsConfig() (islands.Config, error) {
	sel, _ := core.SelectionByName(s.Selection) // validated by the caller
	topo, _ := TopologyByName(s.Topology)
	nIslands, perIsland, adaptive, err := resolveIslandSetup(s.Islands, s.PerIsland, s.Niches, s.Adaptive)
	if err != nil {
		return islands.Config{}, err
	}
	return islands.Config{
		Islands:      nIslands,
		MigrateEvery: s.MigrateEvery,
		Migrants:     s.Migrants,
		Topology:     topo,
		PerIsland:    perIsland,
		Adaptive:     adaptive,
		Engine: core.Config{
			Generations:         s.Generations,
			Selection:           sel,
			Objective:           s.Objective,
			ParetoRef:           refPair(s.ParetoRef),
			NoImprovementWindow: s.EarlyStop,
			InitWorkers:         s.Workers,
			EvalWorkers:         s.EvalWorkers,
		},
	}, nil
}

// Materialize validates the spec, loads or generates the original dataset
// it names, and normalizes the spec in place: Attributes gains the
// resolved protected-attribute names and Grid its effective masking grid,
// so a persisted spec can later rebuild the identical run without
// re-deriving defaults.
func (s *JobSpec) Materialize() (*Dataset, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var (
		orig *Dataset
		err  error
	)
	switch {
	case s.Dataset != "":
		orig, err = GenerateDataset(s.Dataset, s.Rows, s.Seed)
		if err != nil {
			return nil, err
		}
		if len(s.Attributes) == 0 {
			if s.Attributes, err = ProtectedAttributes(s.Dataset); err != nil {
				return nil, err
			}
		}
		if s.Grid == "" {
			s.Grid = s.Dataset
		}
	case s.DatasetCSV != "":
		orig, err = ReadCSV(strings.NewReader(s.DatasetCSV))
		if err != nil {
			return nil, err
		}
	default:
		orig, err = LoadCSV(s.DatasetPath)
		if err != nil {
			return nil, err
		}
	}
	if s.Grid == "" {
		s.Grid = "flare" // the 3-attribute grid with the smallest domains
	}
	if _, err := orig.Schema().Indices(s.Attributes...); err != nil {
		return nil, err
	}
	if s.MLTarget != "" {
		if _, err := orig.Schema().Indices(s.MLTarget); err != nil {
			return nil, fmt.Errorf("evoprot: ml_target: %w", err)
		}
	}
	return orig, nil
}

// Budget returns the spec's total per-island generation budget with the
// default applied — the number a service subtracts a resumed checkpoint's
// generation from.
func (s *JobSpec) Budget() int {
	if s.Generations > 0 {
		return s.Generations
	}
	return DefaultGenerations
}

// Options bridges the spec to the functional options of Run/NewRunner.
// Call Materialize first when the spec relies on defaults it fills in
// (attributes, grid); Options itself never touches the filesystem.
func (s *JobSpec) Options() ([]Option, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	topo, err := TopologyByName(s.Topology)
	if err != nil {
		return nil, err
	}
	opts := []Option{WithSeed(s.Seed), WithTopology(topo)}
	if s.Grid != "" {
		opts = append(opts, WithGrid(s.Grid))
	}
	if s.Aggregator != "" {
		opts = append(opts, WithAggregator(s.Aggregator))
	}
	if s.Objective != "" {
		opts = append(opts, WithObjective(s.Objective))
	}
	if s.ParetoRef != nil {
		opts = append(opts, WithParetoRef(s.ParetoRef.IL, s.ParetoRef.DR))
	}
	if s.MLTarget != "" {
		opts = append(opts, WithMLUtility(s.MLTarget))
	}
	if s.Generations > 0 {
		opts = append(opts, WithGenerations(s.Generations))
	}
	if s.Workers > 0 {
		opts = append(opts, WithWorkers(s.Workers))
	}
	if s.EvalWorkers != 0 {
		opts = append(opts, WithEvalWorkers(s.EvalWorkers))
	}
	if s.EarlyStop > 0 {
		opts = append(opts, WithEarlyStop(s.EarlyStop))
	}
	if s.Selection != "" {
		opts = append(opts, WithSelection(s.Selection))
	}
	if s.Islands > 0 {
		opts = append(opts, WithIslands(s.Islands))
	}
	if s.MigrateEvery > 0 || s.Migrants > 0 {
		opts = append(opts, WithMigration(s.MigrateEvery, s.Migrants))
	}
	if len(s.PerIsland) > 0 {
		opts = append(opts, WithPerIsland(s.PerIsland...))
	}
	if s.Niches != "" {
		opts = append(opts, WithNiches(s.Niches))
	}
	if s.Adaptive != nil {
		opts = append(opts, WithAdaptiveMigration(*s.Adaptive))
	}
	return opts, nil
}
