package islands

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"evoprot/internal/core"
	"evoprot/internal/score"
)

// Multi-island checkpoints wrap one core engine snapshot per island plus
// the coordinator state worth persisting: the per-island overrides of
// heterogeneous runs (so a bare Resume without a PerIsland config rebuilds
// the same niches). Budgets stay per-Run-call — resuming with -gens N runs
// N more generations, matching the single-engine contract — and the
// migration schedule restarts from the next barrier. Because OnEpoch —
// the checkpointing hook — only fires at barriers, a resumed run's epochs
// stay aligned with the schedule.

// snapshotVersion guards against incompatible checkpoint layouts. A
// homogeneous run writes version 1, so its checkpoints keep their bytes
// across every version; a run with per-island overrides writes version 4,
// whose configs are the Overrides themselves. Versions 2 and 3 still
// load: they wrote an override's reference point as the flat keys
// "pareto_ref_il" and "pareto_ref_dr", which decodeSnapshot folds into
// ParetoRef. Checkpoints of earlier builds may also carry an "adaptive"
// block (the removed adaptive-migration schedule) and overrides with
// "crossover_points" (the removed k-point crossover), "force_op",
// "disable_delta" or "lazy_prepare"; decoding ignores them all, so such a
// run resumes on the fixed migration schedule with 2-point crossover and
// the fair operator coin. The engines are core snapshots, each versioned
// on its own: this build writes core version 3 (packed cells) inside a
// version-1 or -4 document, and core.Resume still reads the version-2
// engines of older checkpoints, so a version number here never changes
// with the engine layout.
const snapshotVersion = 4

// minSnapshotVersion is the oldest layout Resume still reads.
const minSnapshotVersion = 1

type snapshotJSON struct {
	Version int `json:"version"`
	Islands int `json:"islands"`
	// Configs carries the per-island overrides of heterogeneous runs,
	// aligned with Engines; empty on homogeneous runs.
	Configs []Override        `json:"configs,omitempty"`
	Engines []json.RawMessage `json:"engines"`
}

// decodeSnapshot reads a checkpoint and checks its version and shape.
func decodeSnapshot(rd io.Reader) (snapshotJSON, error) {
	var snap struct {
		snapshotJSON
		// Configs shadows the embedded field to read the flat reference
		// point of versions 2 and 3 alongside the override.
		Configs []struct {
			Override
			ParetoRefIL float64 `json:"pareto_ref_il"`
			ParetoRefDR float64 `json:"pareto_ref_dr"`
		} `json:"configs"`
	}
	if err := json.NewDecoder(rd).Decode(&snap); err != nil {
		return snapshotJSON{}, fmt.Errorf("islands: decoding snapshot: %w", err)
	}
	out := snap.snapshotJSON
	if out.Version < minSnapshotVersion || out.Version > snapshotVersion {
		return out, fmt.Errorf("islands: snapshot version %d, this build reads %d..%d", out.Version, minSnapshotVersion, snapshotVersion)
	}
	if out.Islands < 1 || out.Islands != len(out.Engines) {
		return out, fmt.Errorf("islands: snapshot declares %d islands but carries %d engines", out.Islands, len(out.Engines))
	}
	if len(snap.Configs) != 0 && len(snap.Configs) != out.Islands {
		return out, fmt.Errorf("islands: snapshot carries %d island configs for %d islands", len(snap.Configs), out.Islands)
	}
	for _, c := range snap.Configs {
		if c.ParetoRefIL != 0 || c.ParetoRefDR != 0 {
			c.ParetoRef = &ParetoRef{IL: c.ParetoRefIL, DR: c.ParetoRefDR}
		}
		out.Configs = append(out.Configs, c.Override)
	}
	return out, nil
}

// Snapshot serializes every island's engine state plus the per-island
// overrides. Only safe while the islands are quiescent: between runs, or
// inside Config.OnEpoch. It writes the document's header and then each
// engine's own snapshot in place, so the output is byte for byte what
// encoding a snapshotJSON would give, without re-compacting every engine
// through a json.RawMessage. On error w may hold a partial document.
func (r *Runner) Snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if len(r.cfg.PerIsland) == 0 {
		fmt.Fprintf(bw, `{"version":%d,"islands":%d,"engines":[`, minSnapshotVersion, len(r.engines))
	} else {
		configs, err := json.Marshal(r.cfg.PerIsland)
		if err != nil {
			return fmt.Errorf("islands: encoding snapshot: %w", err)
		}
		fmt.Fprintf(bw, `{"version":%d,"islands":%d,"configs":%s,"engines":[`, snapshotVersion, len(r.engines), configs)
	}
	for i, e := range r.engines {
		if i > 0 {
			bw.WriteByte(',')
		}
		if err := e.Snapshot(trimNewline{bw}); err != nil {
			return fmt.Errorf("islands: snapshotting island %d: %w", i, err)
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("islands: writing snapshot: %w", err)
	}
	return nil
}

// trimNewline drops the newline that ends an engine's JSON document, so
// the document nests as an array element. Compact JSON escapes newlines
// inside strings, so a newline can only end a document.
type trimNewline struct{ w io.Writer }

func (t trimNewline) Write(p []byte) (int, error) {
	n, err := t.w.Write(bytes.TrimSuffix(p, []byte("\n")))
	if err == nil {
		n = len(p)
	}
	return n, err
}

// Resume rebuilds a runner from a Snapshot. The evaluator must wrap the
// same original dataset the snapshot was taken against; the island count
// comes from the snapshot (cfg.Islands is ignored), and every island
// continues its identical stochastic trajectory. cfg.Engine.Generations is
// the per-island budget for the next Run call. A heterogeneous snapshot's
// per-island overrides are applied automatically when cfg.PerIsland is
// empty (pass overrides explicitly to supersede them).
func Resume(eval *score.Evaluator, rd io.Reader, cfg Config) (*Runner, error) {
	snap, err := decodeSnapshot(rd)
	if err != nil {
		return nil, err
	}
	cfg.Islands = snap.Islands
	if len(cfg.PerIsland) == 0 {
		cfg.PerIsland = snap.Configs
	}
	c, cfgs, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	engines := make([]*core.Engine, snap.Islands)
	popSize := 0
	for i, raw := range snap.Engines {
		// The derived per-island seed is cosmetic here: the RNG stream is
		// restored from the snapshot.
		e, err := core.Resume(eval, bytes.NewReader(raw), cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("islands: resuming island %d: %w", i, err)
		}
		engines[i] = e
		if n := len(e.Population()); n > popSize {
			popSize = n
		}
	}
	return &Runner{
		cfg: c, engines: engines, perIsland: cfgs, agg: runAggregator(eval, c), popSize: popSize,
		seq: c.FirstSeq,
	}, nil
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
}

// Peek reads a checkpoint's metadata without rebuilding engines; the
// engine payloads are decoded only far enough to find their generation
// counters.
func Peek(rd io.Reader) (Meta, error) {
	snap, err := decodeSnapshot(rd)
	if err != nil {
		return Meta{}, err
	}
	m := Meta{Islands: snap.Islands}
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
