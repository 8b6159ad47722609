package evoprot

import (
	"fmt"
	"io"
	"os"

	"evoprot/internal/core"
	"evoprot/internal/datagen"
	"evoprot/internal/dataset"
	"evoprot/internal/experiment"
	"evoprot/internal/infoloss"
	"evoprot/internal/pareto"
	"evoprot/internal/protection"
	"evoprot/internal/risk"
	"evoprot/internal/score"
)

// Re-exported core types. The facade aliases the implementation types, so
// values flow freely between the high-level helpers here and the
// lower-level constructors.
type (
	// Dataset is a table of categorical microdata.
	Dataset = dataset.Dataset
	// Schema describes a dataset's attributes and their domains.
	Schema = dataset.Schema
	// Attribute is one categorical variable with a finite domain.
	Attribute = dataset.Attribute
	// Method is a parameterized masking method.
	Method = protection.Method
	// Composition is the per-method variant count of an initial population.
	Composition = protection.Composition
	// ILMeasure is a single information-loss measure.
	ILMeasure = infoloss.Measure
	// DRMeasure is a single disclosure-risk measure.
	DRMeasure = risk.Measure
	// Aggregator folds (IL, DR) into one score; see Mean and Max.
	Aggregator = score.Aggregator
	// Mean is the paper's Eq. 1 aggregation: (IL+DR)/2.
	Mean = score.Mean
	// Max is the paper's Eq. 2 aggregation: max(IL, DR).
	Max = score.Max
	// Evaluator computes fitness evaluations against a fixed original file.
	Evaluator = score.Evaluator
	// EvaluatorConfig parameterizes an Evaluator.
	EvaluatorConfig = score.Config
	// Evaluation is a full fitness breakdown (IL, DR, Score, per-measure).
	Evaluation = score.Evaluation
	// DeltaState carries the incremental-evaluation state of one masked
	// dataset; see Evaluator.Prepare and Evaluator.EvaluateEdit.
	DeltaState = score.DeltaState
	// CellChange records one cell edit, the unit of delta evaluation.
	CellChange = dataset.CellChange
	// Pair is an (IL, DR) point.
	Pair = score.Pair
	// Individual is one member of the evolutionary population.
	Individual = core.Individual
	// Engine runs the evolutionary algorithm.
	Engine = core.Engine
	// EngineConfig parameterizes the Engine.
	EngineConfig = core.Config
	// GenStats is one generation's history record.
	GenStats = core.GenStats
	// FrontStats is a Pareto-mode non-dominated front summary: a
	// generation's (GenStats.Front) or a final population's
	// (Result.Front); nil on scalarized runs.
	FrontStats = core.FrontStats
	// Result is the outcome of an evolutionary run.
	Result = core.Result
	// ExperimentSpec identifies one of the paper's experiment runs.
	ExperimentSpec = experiment.Spec
	// ExperimentReport is the full outcome of an experiment run.
	ExperimentReport = experiment.Report
)

// AllCrossover is the EngineConfig.MutationRate sentinel requesting an
// explicit rate of 0.0 (every generation performs crossover); the zero
// value selects the paper's default of 0.5.
const AllCrossover = core.AllCrossover

// DefaultGenerations is the evolution budget selected when no explicit
// generation count is configured — the paper's 400.
const DefaultGenerations = core.DefaultGenerations

// DatasetNames returns the built-in synthetic dataset names:
// housing, german, flare, adult.
func DatasetNames() []string { return datagen.Names() }

// GenerateDataset synthesizes one of the paper's evaluation datasets
// (rows 0 selects the paper's record count).
func GenerateDataset(name string, rows int, seed uint64) (*Dataset, error) {
	return datagen.ByName(name, rows, seed)
}

// ProtectedAttributes returns the attribute names the paper protects for
// the named dataset.
func ProtectedAttributes(name string) ([]string, error) {
	return datagen.ProtectedAttrs(name)
}

// LoadCSV reads categorical microdata from a CSV file, inferring the
// schema from the data (see dataset.ReadCSV for the rules).
func LoadCSV(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("evoprot: %w", err)
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

// ReadCSV reads categorical microdata from a reader, inferring the schema.
func ReadCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// SaveCSV writes a dataset to a CSV file.
func SaveCSV(d *Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("evoprot: %w", err)
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseMethod builds a masking method from a spec string such as
// "pram:theta=0.8" or "micro:k=5"; see protection.Parse for the grammar.
func ParseMethod(spec string) (Method, error) { return protection.Parse(spec) }

// AggregatorByName resolves every built-in fitness aggregation: "mean"
// (Eq. 1), "max" (Eq. 2), "euclidean", and "weighted:<w>".
func AggregatorByName(name string) (Aggregator, error) {
	return score.AggregatorByName(name)
}

// DefaultAggregatorName names the aggregation selected when none is
// configured: "max" (Eq. 2), the aggregation the paper concludes works
// better for categorical data.
const DefaultAggregatorName = score.DefaultAggregatorName

// PaperComposition returns the paper's §3 initial-population composition
// for the named dataset.
func PaperComposition(name string) (Composition, error) {
	return protection.PaperComposition(name)
}

// NewEvaluator builds a fitness evaluator for the original dataset over
// the named protected attributes.
func NewEvaluator(orig *Dataset, attrNames []string, cfg EvaluatorConfig) (*Evaluator, error) {
	attrs, err := orig.Schema().Indices(attrNames...)
	if err != nil {
		return nil, err
	}
	return score.NewEvaluator(orig, attrs, cfg)
}

// NewEngine builds an evolutionary engine from an evaluator and an initial
// population of protected datasets.
func NewEngine(eval *Evaluator, initial []*Individual, cfg EngineConfig) (*Engine, error) {
	return core.NewEngine(eval, initial, cfg)
}

// NewIndividual wraps a protected dataset for the engine.
func NewIndividual(data *Dataset, origin string) *Individual {
	return core.NewIndividual(data, origin)
}

// ResumeEngine rebuilds an engine from a snapshot written by
// Engine.Snapshot; see core.Resume for the contract. Together with
// Snapshot this makes long optimizations checkpointable: a resumed run
// continues the identical stochastic trajectory.
func ResumeEngine(eval *Evaluator, r io.Reader, cfg EngineConfig) (*Engine, error) {
	return core.Resume(eval, r, cfg)
}

// RunExperiment executes one of the paper's experiments; see
// ExperimentSpec for the knobs.
func RunExperiment(spec ExperimentSpec) (*ExperimentReport, error) {
	return experiment.Run(spec)
}

// ParetoFront returns the non-dominated (IL, DR) pairs of a population,
// sorted by increasing information loss. Pairs with NaN or ±Inf
// components — failed or degenerate evaluations — are dropped; see
// the pareto package contract.
func ParetoFront(pairs []Pair) []Pair { return pareto.Front(pairs) }

// Hypervolume returns the trade-off-plane area dominated by the pairs
// within [0, ref.IL] x [0, ref.DR]; larger is better. A reference point
// with a non-finite, zero or negative component bounds no box and yields
// an error wrapping pareto.ErrReference.
func Hypervolume(pairs []Pair, ref Pair) (float64, error) { return pareto.Hypervolume(pairs, ref) }

// DefaultParetoRef is the hypervolume reference point Pareto-mode runs
// use when WithParetoRef is not given (see core.DefaultParetoRef).
var DefaultParetoRef = core.DefaultParetoRef
