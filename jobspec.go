package evoprot

// JobSpec is the one description of an optimization run: every
// functional option of Run/NewRunner that configures the run writes a
// JobSpec field, and the same struct is the wire format of the evoprotd
// job service (internal/serve, cmd/evoprotd) and what cmd/evoprot fills
// from its flags. Campaign tooling builds specs, ships them over HTTP,
// and the service installs them on a Runner with Options.

import (
	"fmt"
	"strings"

	"evoprot/internal/core"
	"evoprot/internal/islands"
)

// JobSpec describes one optimization job. Exactly one dataset source must
// be set: a built-in generator name (Dataset), an inline CSV upload
// (DatasetCSV), or a server-side path (DatasetPath). Zero values of the
// remaining fields select the paper's defaults; each run field is the
// one the matching With* option sets.
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
	// model trained on the protected file. Like the rest of the battery,
	// the measure is scored incrementally per offspring.
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
	// Islands, the lengths must match.
	PerIsland []IslandConfig `json:"per_island,omitempty"`
	// Priority orders service-side scheduling (0-9, higher runs first; 0
	// is the default). It is a service concern, not an engine option: a
	// high-priority submission may preempt lower-priority running work,
	// and the result is unaffected either way.
	Priority int `json:"priority,omitempty"`
}

// Validate checks the spec's internal consistency: the source checks
// (exactly one dataset source, attributes present for CSV sources, a
// non-negative row count, a priority in 0..9) and the run-field check
// NewRunner applies to its options, so admission and run time reject the
// same inputs. It does not touch the filesystem or generate data.
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
	if s.Rows < 0 {
		return fmt.Errorf("evoprot: job spec rows must be non-negative, got %d", s.Rows)
	}
	if s.Priority < 0 || s.Priority > 9 {
		return fmt.Errorf("evoprot: job spec priority must be 0..9, got %d", s.Priority)
	}
	_, err := s.islandsConfig()
	return err
}

// refPair maps an optional wire reference point onto the engine's Pair
// (zero = "use the default reference").
func refPair(r *ParetoRef) Pair {
	if r == nil {
		return Pair{}
	}
	return Pair{IL: r.IL, DR: r.DR}
}

// islandCount is the run's effective island count: Islands, or one
// island per PerIsland override when no count is given, and at least 1.
func (s *JobSpec) islandCount() int {
	if s.Islands == 0 && len(s.PerIsland) > 0 {
		return len(s.PerIsland)
	}
	return max(s.Islands, 1)
}

// islandsConfig is the run-field check and the only mapping of a run
// onto islands.Config. It resolves every symbolic name, rejects negative
// counts, and validates the result — per-island overrides and engine
// template — exactly the way islands.New would, so both Validate and
// NewRunner reject whatever a run would. The Runner adds the runtime
// hooks a spec cannot carry.
func (s *JobSpec) islandsConfig() (islands.Config, error) {
	var zero islands.Config
	if s.Generations < 0 || s.Islands < 0 || s.Workers < 0 || s.EarlyStop < 0 ||
		s.MigrateEvery < 0 || s.Migrants < 0 {
		return zero, fmt.Errorf("evoprot: generations, islands, workers, early-stop and migration counts must be non-negative")
	}
	if s.Aggregator != "" {
		if _, err := AggregatorByName(s.Aggregator); err != nil {
			return zero, err
		}
	}
	if s.Grid != "" {
		if _, err := PaperComposition(s.Grid); err != nil {
			return zero, err
		}
	}
	sel, err := core.SelectionByName(s.Selection)
	if err != nil {
		return zero, err
	}
	topo, err := TopologyByName(s.Topology)
	if err != nil {
		return zero, err
	}
	cfg := islands.Config{
		Islands:      s.islandCount(),
		MigrateEvery: s.MigrateEvery,
		Migrants:     s.Migrants,
		Topology:     topo,
		Engine: core.Config{
			Generations:         s.Generations,
			Seed:                s.Seed,
			InitWorkers:         s.Workers,
			EvalWorkers:         s.EvalWorkers,
			NoImprovementWindow: s.EarlyStop,
			Selection:           sel,
			Objective:           s.Objective,
			ParetoRef:           refPair(s.ParetoRef),
		},
	}
	if len(s.PerIsland) > 0 {
		cfg.PerIsland = make([]core.Config, len(s.PerIsland))
		for i, ov := range s.PerIsland {
			if cfg.PerIsland[i], err = ov.toCore(); err != nil {
				return zero, fmt.Errorf("evoprot: island %d override: %w", i, err)
			}
		}
	}
	return cfg, cfg.Validate()
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

// Options returns the single option that installs the spec as a
// Runner's run configuration, replacing whatever run fields earlier
// options set; later options still override single fields. Call
// Materialize first when the spec relies on defaults it fills in
// (attributes, grid); Options itself never touches the filesystem.
func (s *JobSpec) Options() ([]Option, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	spec := *s
	return []Option{func(o *runnerOptions) { o.spec = spec }}, nil
}
