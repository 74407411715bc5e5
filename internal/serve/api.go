package serve

import (
	"encoding/json"
	"time"

	"repro/internal/obs"
	"repro/internal/pll"
	"repro/internal/sweep"
)

// Job states, in lifecycle order. A job is terminal in exactly one of
// StateDone (the batch ran; individual points may still have failed),
// StateFailed (a job-level failure: resolution error or wall-clock budget
// exhausted) or StateCanceled (the cancel endpoint or server shutdown tripped
// the job's budget token).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// PointSpec is one characterisation target as pure data: a registered model
// name plus parameter overrides (defaults fill the rest). Strictness is
// inherited from osc.Build — unknown models and unknown parameter names are
// rejected at submission, so a typo can never silently characterise the
// default model under a wrong cache key.
type PointSpec struct {
	// Name labels the point in results and events (default: the model name).
	Name  string `json:"name,omitempty"`
	Model string `json:"model"`
	// Params overrides the model's default parameters; see GET /v1/models.
	Params map[string]float64 `json:"params,omitempty"`
}

// CharacteriseRequest is the body of POST /v1/characterise: one point plus
// job-wide knobs.
type CharacteriseRequest struct {
	PointSpec
	// TimeoutMS bounds the job by wall clock from its first slot grant; on
	// expiry in-flight work is cut off with a budget error (0 = unbounded).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the content-addressed result cache for this job (it
	// neither reads nor writes).
	NoCache bool `json:"no_cache,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a batch of points under one
// budget, sharing the retry ladder and the cache. The points run one per
// execution slot of the server's pool; a request has no parallelism knob.
type SweepRequest struct {
	Points    []PointSpec `json:"points"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
	NoCache   bool        `json:"no_cache,omitempty"`
	// LeaseTTLMS, when > 0, makes the job a lease: unless the submitter
	// renews it (POST /v1/jobs/{id}/renew) within every TTL window, the
	// worker cancels the job itself. A cluster coordinator sets this so a
	// worker orphaned by a coordinator crash or partition stops burning CPU
	// on points nobody will collect — they are in the shared result cache
	// for the reassigned lease anyway. The TTL survives worker restarts via
	// the job journal.
	LeaseTTLMS int64 `json:"lease_ttl_ms,omitempty"`
}

// PointSummary is the compact per-point outcome carried in job status and SSE
// events: the headline numbers without the orbit-sized payload. The full
// loss-free sweep.PointResult (trajectories, Floquet decomposition, retry
// history) is available from GET /v1/jobs/{id}/results and
// /v1/jobs/{id}/results.jsonl.
type PointSummary struct {
	Index    int     `json:"index"`
	Name     string  `json:"name"`
	OK       bool    `json:"ok"`
	Cached   bool    `json:"cached,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
	T        float64 `json:"period_s,omitempty"`
	F0       float64 `json:"f0_hz,omitempty"`
	C        float64 `json:"c_s2hz,omitempty"`
	CornerHz float64 `json:"corner_hz,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
	WallMS   float64 `json:"wall_ms"`
	// Error keeps its budget/panic classification across the wire: decode the
	// job JSON with this package's types and errors.Is against the pipeline
	// sentinels still works (see sweep.RemoteError).
	Error *sweep.RemoteError `json:"error,omitempty"`
}

// Summarize compacts one point result for status payloads and events. It
// reads only the result's scalars, so a cache hit is summarised undecoded.
// Runners use it for the results they make themselves (the cluster
// coordinator's fallback), which then read like served ones.
func Summarize(r *sweep.PointResult) PointSummary {
	s := PointSummary{
		Index:    r.Index,
		Name:     r.Name,
		OK:       r.OK(),
		Cached:   r.Cached,
		Degraded: r.Degraded(),
		Attempts: len(r.Attempts),
		WallMS:   float64(r.Wall) / float64(time.Millisecond),
		Error:    sweep.EncodeError(r.Err),
	}
	if sc, ok := r.Scalars(); ok {
		s.T = sc.T
		s.F0 = sc.F0()
		s.C = sc.C
		s.CornerHz = sc.CornerFreq()
	} else if r.PSS != nil {
		s.T = r.PSS.T // degraded: shooting converged, so the period is known
	}
	return s
}

// JobStatus is the response of the submit endpoints and GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"` // "characterise", "sweep" or "compose"
	State  string `json:"state"`
	Points int    `json:"points"`
	// Progress counters; Done counts terminal points (ok or failed), Cached
	// the subset served from the result cache without running the pipeline.
	DonePoints   int `json:"done_points"`
	CachedPoints int `json:"cached_points"`
	FailedPoints int `json:"failed_points"`
	// Error is the job-level failure (budget trip, resolution error); per-
	// point failures live in Results. Kind-tagged like PointSummary.Error.
	Error  *sweep.RemoteError `json:"error,omitempty"`
	WallMS float64            `json:"wall_ms,omitempty"`
	// Results holds the per-point summaries completed so far (terminal jobs:
	// all of them, in input order).
	Results []PointSummary `json:"results,omitempty"`
	// Compose is the composition summary of a "compose" job once the chain
	// composed; ComposeResult the full mask/breakdown/realization, only with
	// ?full=1.
	Compose       *ComposeSummary `json:"compose,omitempty"`
	ComposeResult *pll.Result     `json:"compose_result,omitempty"`
}

// ResultsPage is the response of GET /v1/jobs/{id}/results: one page of the
// job's loss-free per-point results, served straight from the spill file so a
// client can page through a 10⁵-point sweep without the server (or the
// response) ever materialising the whole result set. Each element of Results
// is the exact JSON encoding of one sweep.PointResult, byte-identical to its
// line in results.jsonl.
type ResultsPage struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
	// Total is the job's point count; Spilled how many results are currently
	// readable from the spill file (== Total for a healthy terminal job).
	Total   int `json:"total"`
	Spilled int `json:"spilled"`
	Offset  int `json:"offset"`
	// NextOffset is the offset of the next page, absent on the last one.
	NextOffset *int `json:"next_offset,omitempty"`
	// Degraded flags a job whose spill file failed (disk full, I/O error):
	// summaries remain available but some or all loss-free results are gone.
	Degraded bool              `json:"degraded,omitempty"`
	Results  []json.RawMessage `json:"results"`
}

// TraceStage aggregates one span name across the timeline — where the job's
// wall clock went, per pipeline stage.
type TraceStage struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// TraceProc aggregates one process's contribution to the timeline — which
// node the time was spent on.
type TraceProc struct {
	Proc    string  `json:"proc"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
}

// JobTrace is the response of GET /v1/jobs/{id}/trace: the job's merged
// distributed timeline (coordinator, worker, and in-process spans under one
// trace ID) plus per-stage and per-process latency rollups. Spans are in
// arrival order; order them by StartNS per Proc for a timeline view (clocks
// are only comparable within one process). Dropped counts events discarded
// once the per-job buffer filled.
type JobTrace struct {
	JobID   string       `json:"job_id"`
	TraceID string       `json:"trace_id"`
	Spans   []obs.Event  `json:"spans"`
	Stages  []TraceStage `json:"stages,omitempty"`
	Procs   []TraceProc  `json:"procs,omitempty"`
	Dropped int          `json:"dropped,omitempty"`
}

// WorkerStatus is one worker node's health as the coordinator sees it.
type WorkerStatus struct {
	URL          string `json:"url"`
	Healthy      bool   `json:"healthy"`
	Quarantined  bool   `json:"quarantined,omitempty"`
	Breaker      string `json:"breaker"` // closed, open, half-open
	ActiveLeases int    `json:"active_leases"`
}

// LeaseStatus is one in-flight lease: which worker holds which point range of
// which job, on which attempt, and for how long.
type LeaseStatus struct {
	JobID   string  `json:"job_id"`
	Lease   int     `json:"lease"`
	Attempt int     `json:"attempt"`
	Worker  string  `json:"worker"`
	Points  int     `json:"points"`
	AgeMS   float64 `json:"age_ms"`
}

// ClusterStatus is the response of GET /v1/cluster/status: the live fleet
// view. Every node answers with its own queue/job numbers; Workers and Leases
// are filled only on a coordinator (Coordinator reports which).
type ClusterStatus struct {
	Coordinator bool           `json:"coordinator"`
	Draining    bool           `json:"draining"`
	QueueDepth  int            `json:"queue_depth"`
	RunningJobs int            `json:"running_jobs"`
	Workers     []WorkerStatus `json:"workers,omitempty"`
	Leases      []LeaseStatus  `json:"leases,omitempty"`
}

// ModelInfo describes one registered model for GET /v1/models.
type ModelInfo struct {
	Name     string             `json:"name"`
	Defaults map[string]float64 `json:"defaults"`
	// NoiseSources are the model's noise-source labels under default
	// parameters — the names a compose leg's "sources" selector accepts.
	NoiseSources []string `json:"noise_sources,omitempty"`
	NumNoise     int      `json:"num_noise"`
}

// Health is the GET /healthz payload.
type Health struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}
