package serve

import (
	"bytes"
	"encoding/json"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// The persisted layout, one keyspace per job (a directory under
// <root>/jobs/<id>/ on the filesystem store):
//
//	dataset.csv     the materialized original dataset
//	status.json     the last persisted JobStatus (embeds the normalized spec)
//	events.ndjson   the append-only event feed
//	job.ckpt        the runner checkpoint (atomic Put writes)
//	result.json     the JobResult, written when the job reaches a terminal state
//	best.csv        the best protected dataset found
//
// status.json is written through Store.Put — atomic and durable — so a
// crash can leave a stale status but never a torn one; recovery treats
// anything non-terminal as resumable work.

// The per-job keys. datasetFileName doubles as the file name normalized
// specs of CSV-sourced jobs carry in their DatasetPath on path-backed
// stores.
const (
	datasetFileName = "dataset.csv"
	statusKey       = "status.json"
	eventsKey       = "events.ndjson"
	checkpointKey   = "job.ckpt"
	ckptMetaKey     = "job.ckpt.meta"
	resultKey       = "result.json"
	bestCSVKey      = "best.csv"
)

// Exported key names of the persisted layout, for coordinators that
// observe remote workers' writes arriving through the storage seam
// (internal/cluster folds status.json and events.ndjson traffic back
// into its live job table).
const (
	StatusKey = statusKey
	EventsKey = eventsKey
)

// ckptMeta is the checkpoint's companion feed marker (job.ckpt.meta):
// the durable event feed's length — in events and in bytes — at the
// moment the tagged checkpoint was written. All of a generation's events
// are flushed before the checkpoint sink runs at its quiescent barrier,
// so a resume whose checkpoint carries a matching Generation tag can
// rewind the feed to this marker and re-emit the rewound suffix exactly
// once instead of duplicating it. Written non-atomically after the
// checkpoint itself: a crash between the two leaves a stale marker whose
// Generation no longer matches, which resumes detect and ignore.
type ckptMeta struct {
	Events     uint64 `json:"events"`
	Bytes      int64  `json:"bytes"`
	Generation int    `json:"generation"`
}

// jobState is a job's lifecycle state.
type jobState string

const (
	// StateQueued: accepted and waiting for a worker (also the persisted
	// state of interrupted jobs re-enqueued at boot).
	StateQueued jobState = "queued"
	// StateRunning: a worker is evolving it.
	StateRunning jobState = "running"
	// StateDone: finished its budget (or stagnated every island).
	StateDone jobState = "done"
	// StateCancelled: stopped by DELETE; a partial result is kept.
	StateCancelled jobState = "cancelled"
	// StateFailed: the run errored; see JobStatus.Error.
	StateFailed jobState = "failed"
)

// Terminal reports whether no further work will happen on the job.
func (s jobState) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// BestSummary is the best-so-far (or final) individual in wire form.
type BestSummary struct {
	// Score is the aggregated fitness (lower is better).
	Score float64 `json:"score"`
	// IL and DR are the information-loss and disclosure-risk components.
	IL float64 `json:"il"`
	DR float64 `json:"dr"`
	// Island is the island that produced it.
	Island int `json:"island"`
	// Origin is the producing operator or seed label; filled when the
	// final population is available (results), empty in live status.
	Origin string `json:"origin,omitempty"`
}

// JobStatus is the wire form of GET /v1/jobs/{id} and the persisted
// status.json.
type JobStatus struct {
	ID    string          `json:"id"`
	State jobState        `json:"state"`
	Spec  evoprot.JobSpec `json:"spec"`
	// Created/Started/Finished timestamp the lifecycle; Started and
	// Finished are zero until reached.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Generation is the largest per-island generation executed so far.
	Generation int `json:"generation"`
	// Events is the number of feed events persisted — the exclusive upper
	// bound of the replayable offset space.
	Events uint64 `json:"events"`
	// Best is the best-so-far summary, nil before the first generation.
	Best *BestSummary `json:"best,omitempty"`
	// StopReason is set once the run ends: completed, stagnated,
	// cancelled or deadline.
	StopReason string `json:"stop_reason,omitempty"`
	// Error carries the failure (or last non-fatal checkpoint error).
	Error string `json:"error,omitempty"`
	// Resumes counts checkpoint resumptions after server restarts.
	Resumes int `json:"resumes"`
	// Tenant is the submitting tenant's id; empty in anonymous mode.
	Tenant string `json:"tenant,omitempty"`
	// Preemptions counts how many times a higher-priority submission
	// checkpointed and requeued this job.
	Preemptions int `json:"preemptions,omitempty"`
}

// JobResult is the wire form of GET /v1/jobs/{id}/result and the
// persisted result.json: the trajectory plus the best protection's
// summary. The protected dataset itself lives in best.csv and is
// inlined by the handler on request.
type JobResult struct {
	ID          string      `json:"id"`
	State       jobState    `json:"state"`
	StopReason  string      `json:"stop_reason"`
	Generations int         `json:"generations"`
	Evaluations int         `json:"evaluations"`
	Migrations  int         `json:"migrations"`
	Islands     int         `json:"islands"`
	BestIsland  int         `json:"best_island"`
	Best        BestSummary `json:"best"`
	// Front, FrontSize and Hypervolume carry the final non-dominated
	// (IL, DR) front of Pareto-objective jobs: the best island's when it
	// runs Pareto selection, otherwise the Pareto island with the largest
	// final hypervolume (islands split between scalar and Pareto). Absent on
	// purely scalarized jobs.
	Front       []evoprot.Pair `json:"front,omitempty"`
	FrontSize   int            `json:"front_size,omitempty"`
	Hypervolume float64        `json:"hypervolume,omitempty"`
	// History is the best island's per-generation trajectory.
	History []evoprot.GenStats `json:"history"`
	// DatasetCSV is the best protected dataset, inlined only on the wire.
	DatasetCSV string `json:"dataset_csv,omitempty"`
}

// store adapts the pluggable storage backend to the service's document
// shapes: indented JSON for status/result, CSV for datasets. Every
// persistence touch of the server goes through it (or through eventLog,
// which shares the same backend) — no handler or worker opens files
// directly, which is what lets a -store flag swap the whole persistence
// layer.
type store struct{ be storage.Store }

// saveJSON persists v as indented JSON under the job's key, atomically
// and durably (Store.Put's contract). The indentation matches the
// historical on-disk format byte for byte.
func (st *store) saveJSON(job, key string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return st.be.Put(job, key, buf.Bytes())
}

// loadJSON reads the job's key and unmarshals it into v. Errors pass
// through untouched, so errors.Is(err, storage.ErrNotExist) keeps
// working.
func (st *store) loadJSON(job, key string, v any) error {
	data, err := st.be.Get(job, key)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// saveCSV persists a dataset in CSV form under the job's key.
func (st *store) saveCSV(job, key string, d *evoprot.Dataset) error {
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		return err
	}
	return st.be.Put(job, key, buf.Bytes())
}

// loadCSV reads a dataset persisted by saveCSV.
func (st *store) loadCSV(job, key string) (*evoprot.Dataset, error) {
	data, err := st.be.Get(job, key)
	if err != nil {
		return nil, err
	}
	return evoprot.ReadCSV(bytes.NewReader(data))
}

// listJobIDs returns every persisted job id, sorted.
func (st *store) listJobIDs() ([]string, error) { return st.be.List() }
