package serve

import (
	"repro/internal/budget"
	"repro/internal/obs"
)

// SweepRunner replaces the in-process sweep engine for job execution. The
// default (nil Config.Runner) resolves the job's specs and runs them through
// internal/sweep on this process; a cluster coordinator installs a runner
// that leases point ranges out to worker nodes instead. Whatever the runner
// does, the server's job lifecycle — queueing, journalling, SSE progress,
// cancellation through the budget token, idempotency — is unchanged.
type SweepRunner interface {
	// RunSweep executes one job, streaming each completed point through
	// req.OnResult (the loss-free payload, spilled to disk server-side) and
	// req.OnSummary (the headline numbers) as it lands. It returns nothing
	// but the job-level outcome: per-point failures are data inside the
	// streamed results, and the server never holds an O(points) slice.
	//
	// The runner must stop promptly when req.Tok trips and should report
	// each point at most once per hook.
	RunSweep(req RunnerRequest) error
}

// RunnerRequest is everything a SweepRunner needs to execute one job.
type RunnerRequest struct {
	// JobID is the server-assigned job ID — stable across restarts (the
	// journal preserves the ID space), so runners can key their own durable
	// state (e.g. lease journals) on it.
	JobID string
	// Kind is "characterise", "sweep" or "compose" (Specs: the spec legs).
	Kind string
	// Specs are the job's points as pure data, in input order.
	Specs []PointSpec
	// Tok bounds the job: cancellation (the cancel endpoint, server
	// shutdown, a lease TTL expiry) and the job's wall-clock deadline both
	// arrive through it.
	Tok *budget.Token
	// NoCache asks the runner to bypass result caches for this job.
	NoCache bool
	// OnSummary, when non-nil, streams per-point completions. At most one
	// call per point index; calls may arrive concurrently from multiple
	// worker streams — the server's handler is safe for concurrent use.
	OnSummary func(PointSummary)
	// OnResult, when non-nil, streams the loss-free records as bytes: the
	// parts (at most three) concatenated are point index's MarshalJSON
	// bytes. Same delivery contract as OnSummary; the server spills each
	// record on arrival and keeps no part after the call.
	OnResult func(index int, parts ...[]byte)
	// Span is the job's root span. Runners parent their own spans (lease
	// dispatch, attempts) under it and propagate Span.Context() over every
	// HTTP hop so worker-side spans join the same trace.
	Span *obs.Span
	// IngestTrace, when non-nil, folds span events collected from other
	// processes (worker trace pulls, coordinator-side flight dumps) into the
	// job's merged timeline. Safe for concurrent use; duplicate events are
	// deduplicated by (proc, span).
	IngestTrace func([]obs.Event)
}
