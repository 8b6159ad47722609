package islands

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"evoprot/internal/core"
	"evoprot/internal/score"
)

// Multi-island checkpoints wrap one core engine snapshot per island plus
// the coordinator state worth persisting: the adaptive controller's
// effective schedule (required for bit-reproducible resumption of
// adaptive runs) and the per-island configuration overrides of
// heterogeneous runs (so a bare Resume without a PerIsland config rebuilds
// the same niches). Budgets stay per-Run-call — resuming with -gens N runs
// N more generations, matching the single-engine contract — and the
// migration schedule restarts from the next barrier. Because OnEpoch — the
// checkpointing hook — only fires at barriers, a resumed run's epochs stay
// aligned with the schedule.

// snapshotVersion guards against incompatible checkpoint layouts.
// Version 3 added the Pareto-mode objective fields to island config
// overrides (a pre-Pareto build would silently resume such a niche as
// scalarized, a different trajectory); version 2 added the
// adaptive-migration controller state and the per-island configuration
// overrides; version-1 snapshots (homogeneous, fixed-schedule) still
// load.
const snapshotVersion = 3

// minSnapshotVersion is the oldest layout Resume still reads.
const minSnapshotVersion = 1

type snapshotJSON struct {
	Version int `json:"version"`
	Islands int `json:"islands"`
	// Adaptive carries the controller's effective schedule; present only
	// on adaptive runs.
	Adaptive *adaptiveStateJSON `json:"adaptive,omitempty"`
	// Configs carries the per-island overrides of heterogeneous runs,
	// aligned with Engines; empty on homogeneous runs.
	Configs []islandConfigJSON `json:"configs,omitempty"`
	Engines []json.RawMessage  `json:"engines"`
}

type adaptiveStateJSON struct {
	MigrateEvery int `json:"migrate_every"`
	Migrants     int `json:"migrants"`
}

// islandConfigJSON is the serializable subset of a core.Config override —
// exactly the knobs PerIsland may set. Zero values mean "inherit the
// template", matching the Merged contract, so round-tripping an override
// through JSON reproduces the identical merged configuration. A custom
// programmatic aggregator cannot be serialized; PerIsland aggregators are
// names, which round-trip exactly.
type islandConfigJSON struct {
	Generations         int     `json:"generations,omitempty"`
	MutationRate        float64 `json:"mutation_rate,omitempty"`
	LeaderFraction      float64 `json:"leader_fraction,omitempty"`
	Selection           string  `json:"selection,omitempty"`
	Crowding            string  `json:"crowding,omitempty"`
	CrossoverPoints     int     `json:"crossover_points,omitempty"`
	NoImprovementWindow int     `json:"early_stop,omitempty"`
	ForceOp             string  `json:"force_op,omitempty"`
	Aggregator          string  `json:"aggregator,omitempty"`
	Objective           string  `json:"objective,omitempty"`
	ParetoRefIL         float64 `json:"pareto_ref_il,omitempty"`
	ParetoRefDR         float64 `json:"pareto_ref_dr,omitempty"`
	DisableDelta        bool    `json:"disable_delta,omitempty"`
	LazyPrepare         bool    `json:"lazy_prepare,omitempty"`
}

// needsV3 reports whether an override carries the objective fields that
// only version-3 readers understand.
func (j islandConfigJSON) needsV3() bool {
	return j.Objective != "" || j.ParetoRefIL != 0 || j.ParetoRefDR != 0
}

func configToJSON(c core.Config) islandConfigJSON {
	j := islandConfigJSON{
		Generations:         c.Generations,
		MutationRate:        c.MutationRate,
		LeaderFraction:      c.LeaderFraction,
		CrossoverPoints:     c.CrossoverPoints,
		NoImprovementWindow: c.NoImprovementWindow,
		ForceOp:             c.ForceOp,
		Aggregator:          c.Aggregator,
		Objective:           c.Objective,
		ParetoRefIL:         c.ParetoRef.IL,
		ParetoRefDR:         c.ParetoRef.DR,
		DisableDelta:        c.DisableDelta,
		LazyPrepare:         c.LazyPrepare,
	}
	if c.Selection != 0 {
		j.Selection = c.Selection.String()
	}
	if c.Crowding != 0 {
		j.Crowding = c.Crowding.String()
	}
	return j
}

func configFromJSON(j islandConfigJSON) (core.Config, error) {
	sel, err := core.SelectionByName(j.Selection)
	if err != nil {
		return core.Config{}, err
	}
	crowd, err := core.CrowdingByName(j.Crowding)
	if err != nil {
		return core.Config{}, err
	}
	obj, err := core.ObjectiveByName(j.Objective)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Generations:         j.Generations,
		MutationRate:        j.MutationRate,
		LeaderFraction:      j.LeaderFraction,
		Selection:           sel,
		Crowding:            crowd,
		CrossoverPoints:     j.CrossoverPoints,
		NoImprovementWindow: j.NoImprovementWindow,
		ForceOp:             j.ForceOp,
		Aggregator:          j.Aggregator,
		Objective:           obj,
		ParetoRef:           score.Pair{IL: j.ParetoRefIL, DR: j.ParetoRefDR},
		DisableDelta:        j.DisableDelta,
		LazyPrepare:         j.LazyPrepare,
	}, nil
}

// Snapshot serializes every island's engine state plus the coordinator's
// adaptive schedule and per-island overrides. Only safe while the islands
// are quiescent: between runs, or inside Config.OnEpoch.
func (r *Runner) Snapshot(w io.Writer) error {
	snap := snapshotJSON{Version: snapshotVersion, Islands: len(r.engines)}
	if r.cfg.Adaptive.Enabled {
		snap.Adaptive = &adaptiveStateJSON{MigrateEvery: r.effEvery, Migrants: r.effMigrants}
	}
	if len(r.cfg.PerIsland) > 0 {
		snap.Configs = make([]islandConfigJSON, len(r.cfg.PerIsland))
		for i, ov := range r.cfg.PerIsland {
			snap.Configs[i] = configToJSON(ov)
		}
	}
	// Stamp the lowest version the payload needs, so checkpoints stay
	// readable by the oldest build that can resume them faithfully: plain
	// homogeneous fixed-schedule runs are version 1, adaptive or
	// heterogeneous runs version 2, and only overrides carrying Pareto
	// objective fields require version 3.
	if snap.Adaptive == nil && snap.Configs == nil {
		snap.Version = minSnapshotVersion
	} else {
		snap.Version = 2
		for _, j := range snap.Configs {
			if j.needsV3() {
				snap.Version = snapshotVersion
				break
			}
		}
	}
	for i, e := range r.engines {
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			return fmt.Errorf("islands: snapshotting island %d: %w", i, err)
		}
		snap.Engines = append(snap.Engines, json.RawMessage(buf.Bytes()))
	}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("islands: encoding snapshot: %w", err)
	}
	return nil
}

// Resume rebuilds a runner from a Snapshot. The evaluator must wrap the
// same original dataset the snapshot was taken against; the island count
// comes from the snapshot (cfg.Islands is ignored), and every island
// continues its identical stochastic trajectory. cfg.Engine.Generations is
// the per-island budget for the next Run call. A heterogeneous snapshot's
// per-island overrides are applied automatically when cfg.PerIsland is
// empty (pass overrides explicitly to supersede them), and an adaptive
// snapshot's effective schedule is restored whenever cfg.Adaptive is
// enabled, so a resumed adaptive run continues the controller where it
// left off.
func Resume(eval *score.Evaluator, rd io.Reader, cfg Config) (*Runner, error) {
	var snap snapshotJSON
	if err := json.NewDecoder(rd).Decode(&snap); err != nil {
		return nil, fmt.Errorf("islands: decoding snapshot: %w", err)
	}
	if snap.Version < minSnapshotVersion || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("islands: snapshot version %d, this build reads %d..%d", snap.Version, minSnapshotVersion, snapshotVersion)
	}
	if snap.Islands < 1 || snap.Islands != len(snap.Engines) {
		return nil, fmt.Errorf("islands: snapshot declares %d islands but carries %d engines", snap.Islands, len(snap.Engines))
	}
	if len(snap.Configs) != 0 && len(snap.Configs) != snap.Islands {
		return nil, fmt.Errorf("islands: snapshot carries %d island configs for %d islands", len(snap.Configs), snap.Islands)
	}
	cfg.Islands = snap.Islands
	if len(cfg.PerIsland) == 0 && len(snap.Configs) > 0 {
		cfg.PerIsland = make([]core.Config, len(snap.Configs))
		for i, j := range snap.Configs {
			ov, err := configFromJSON(j)
			if err != nil {
				return nil, fmt.Errorf("islands: snapshot island %d config: %w", i, err)
			}
			cfg.PerIsland[i] = ov
		}
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	engines := make([]*core.Engine, snap.Islands)
	cfgs := make([]core.Config, snap.Islands)
	popSize := 0
	for i, raw := range snap.Engines {
		// The derived per-island seed is cosmetic here: the RNG stream is
		// restored from the snapshot.
		cfgs[i] = c.islandConfig(i)
		e, err := core.Resume(eval, bytes.NewReader(raw), cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("islands: resuming island %d: %w", i, err)
		}
		engines[i] = e
		if n := len(e.Population()); n > popSize {
			popSize = n
		}
	}
	r := &Runner{
		cfg: c, engines: engines, perIsland: cfgs, agg: runAggregator(eval, c), popSize: popSize,
		effEvery: c.MigrateEvery, effMigrants: c.Migrants, seq: c.FirstSeq,
	}
	if c.Adaptive.Enabled && snap.Adaptive != nil {
		r.effEvery = min(max(snap.Adaptive.MigrateEvery, c.Adaptive.MinEvery), c.Adaptive.MaxEvery)
		r.effMigrants = min(max(snap.Adaptive.Migrants, c.Adaptive.MinMigrants), c.Adaptive.MaxMigrants)
	}
	return r, nil
}

// Meta describes a checkpoint without resuming it: the island count and
// the largest per-island generation count executed when the snapshot was
// taken. Services use it to size a resumed job's remaining budget before
// paying for an evaluator-backed resume.
type Meta struct {
	// Islands is the number of islands the checkpoint carries.
	Islands int
	// Generation is the largest per-island generation executed — the same
	// number Runner.Generation reports right after a Resume.
	Generation int
	// MinGeneration is the smallest per-island generation. Barrier and
	// cancellation-point checkpoints have every active island aligned
	// (Runner.Run aligns them after a cancellation); the two differ only when an island stopped
	// early, by stagnating or on a smaller per-island budget. Budget
	// arithmetic for a resume should count from MinGeneration so no
	// island ends up short of its configured budget.
	MinGeneration int
	// Heterogeneous reports whether the checkpoint carries per-island
	// configuration overrides.
	Heterogeneous bool
}

// Peek reads a checkpoint's metadata without rebuilding engines; the
// engine payloads are decoded only far enough to find their generation
// counters.
func Peek(rd io.Reader) (Meta, error) {
	var snap snapshotJSON
	if err := json.NewDecoder(rd).Decode(&snap); err != nil {
		return Meta{}, fmt.Errorf("islands: decoding snapshot: %w", err)
	}
	if snap.Version < minSnapshotVersion || snap.Version > snapshotVersion {
		return Meta{}, fmt.Errorf("islands: snapshot version %d, this build reads %d..%d", snap.Version, minSnapshotVersion, snapshotVersion)
	}
	if snap.Islands < 1 || snap.Islands != len(snap.Engines) {
		return Meta{}, fmt.Errorf("islands: snapshot declares %d islands but carries %d engines", snap.Islands, len(snap.Engines))
	}
	m := Meta{Islands: snap.Islands, Heterogeneous: len(snap.Configs) > 0}
	for i, raw := range snap.Engines {
		var hdr struct {
			Gen int `json:"gen"`
		}
		if err := json.Unmarshal(raw, &hdr); err != nil {
			return Meta{}, fmt.Errorf("islands: peeking island %d: %w", i, err)
		}
		if hdr.Gen > m.Generation {
			m.Generation = hdr.Gen
		}
		if i == 0 || hdr.Gen < m.MinGeneration {
			m.MinGeneration = hdr.Gen
		}
	}
	return m, nil
}
