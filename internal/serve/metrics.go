package serve

import "repro/internal/obs"

// serveInstruments are the job-server metrics: submissions and rejections by
// kind/reason, terminal job states, live queue and in-flight gauges, and the
// job-latency distribution.
type serveInstruments struct {
	submitted     *obs.CounterVec // pn_serve_submitted_total{kind}
	jobs          *obs.CounterVec // pn_serve_jobs_total{state}
	rejected      *obs.CounterVec // pn_serve_rejected_total{reason}
	queueDepth    *obs.Gauge      // pn_serve_queue_depth
	inflight      *obs.Gauge      // pn_serve_jobs_inflight
	jobSeconds    *obs.Histogram  // pn_serve_job_seconds
	idemHits      *obs.Counter    // pn_serve_idempotent_replays_total
	journalWrites *obs.Counter    // pn_serve_journal_writes_total
	journalErrors *obs.Counter    // pn_serve_journal_write_errors_total
	replayCorrupt *obs.Counter    // pn_serve_journal_corrupt_records_total
	recovered     *obs.CounterVec // pn_serve_jobs_recovered_total{outcome}
	leaseRenewals *obs.Counter    // pn_serve_lease_renewals_total
	leaseExpired  *obs.Counter    // pn_serve_lease_expirations_total
	traceSpans    *obs.Counter    // pn_trace_spans_total
	traceIngested *obs.Counter    // pn_trace_ingested_total
	traceDropped  *obs.Counter    // pn_trace_dropped_total

	resultSpilled  *obs.Counter    // pn_serve_results_spilled_total
	resultBytes    *obs.Counter    // pn_serve_results_bytes_total
	resultErrors   *obs.Counter    // pn_serve_results_errors_total
	resultDegraded *obs.Counter    // pn_serve_results_degraded_total
	resultReads    *obs.CounterVec // pn_serve_results_reads_total{kind}
	blobWrites     *obs.Counter    // pn_serve_results_blob_writes_total
	blobBytes      *obs.Gauge      // pn_serve_results_blob_bytes
	tenantJobs     *obs.CounterVec // pn_serve_tenant_jobs_total{tenant}
	tenantRejected *obs.CounterVec // pn_serve_tenant_rejected_total{tenant}
	tenantGrants   *obs.CounterVec // pn_serve_tenant_grants_total{tenant}
}

var serveMetrics = obs.NewView(func(r *obs.Registry) *serveInstruments {
	return &serveInstruments{
		submitted:     r.CounterVec("pn_serve_submitted_total", "Jobs accepted onto the queue, by kind (characterise, sweep, compose).", "kind"),
		jobs:          r.CounterVec("pn_serve_jobs_total", "Jobs finished, by terminal state (done, failed, canceled).", "state"),
		rejected:      r.CounterVec("pn_serve_rejected_total", "Submissions rejected before queueing, by reason (queue_full, draining, too_large, bad_request, idem_mismatch).", "reason"),
		queueDepth:    r.Gauge("pn_serve_queue_depth", "Jobs accepted but not yet granted an execution slot."),
		inflight:      r.Gauge("pn_serve_jobs_inflight", "Jobs started and not yet terminal."),
		jobSeconds:    r.Histogram("pn_serve_job_seconds", "Wall-clock time per job from its first slot grant to terminal state.", obs.ExpBuckets(0.001, 4, 12)),
		idemHits:      r.Counter("pn_serve_idempotent_replays_total", "Submissions answered with an existing job via Idempotency-Key dedup."),
		journalWrites: r.Counter("pn_serve_journal_writes_total", "Records appended to job journals."),
		journalErrors: r.Counter("pn_serve_journal_write_errors_total", "Journal writes dropped on error (real or injected); the job continues, durability degrades."),
		replayCorrupt: r.Counter("pn_serve_journal_corrupt_records_total", "Journal records, torn log tails or whole files skipped as corrupt during replay."),
		recovered:     r.CounterVec("pn_serve_jobs_recovered_total", "Jobs reconstructed from the journal at startup, by outcome (resumed, terminal).", "outcome"),
		leaseRenewals: r.Counter("pn_serve_lease_renewals_total", "Lease renewals received on /v1/jobs/{id}/renew."),
		leaseExpired:  r.Counter("pn_serve_lease_expirations_total", "Leased jobs self-cancelled because no renewal arrived within the TTL."),
		traceSpans:    r.Counter("pn_trace_spans_total", "Span events recorded into job traces by this process."),
		traceIngested: r.Counter("pn_trace_ingested_total", "Span events ingested into job traces from other processes (coordinator trace pulls)."),
		traceDropped:  r.Counter("pn_trace_dropped_total", "Span events dropped because a job's trace buffer was full."),

		resultSpilled:  r.Counter("pn_serve_results_spilled_total", "Point-result frames appended to spill files."),
		resultBytes:    r.Counter("pn_serve_results_bytes_total", "Result-record bytes appended to spill files (point index + codec bytes)."),
		resultErrors:   r.Counter("pn_serve_results_errors_total", "Result-store I/O failures (real or injected), reads and writes."),
		resultDegraded: r.Counter("pn_serve_results_degraded_total", "Jobs degraded to summary-only service because their spill file failed."),
		resultReads:    r.CounterVec("pn_serve_results_reads_total", "Result retrievals served from spill files, by kind (page, jsonl).", "kind"),
		blobWrites:     r.Counter("pn_serve_results_blob_writes_total", "Payload blobs written: one per cache key at the first hit that spills a reference to it."),
		blobBytes:      r.Gauge("pn_serve_results_blob_bytes", "Bytes of the live payload blobs that spill reference records name (key and payload)."),
		tenantJobs:     r.CounterVec("pn_serve_tenant_jobs_total", "Jobs accepted, by tenant.", "tenant"),
		tenantRejected: r.CounterVec("pn_serve_tenant_rejected_total", "Submissions rejected by tenant admission (rate or in-flight quota), by tenant.", "tenant"),
		tenantGrants:   r.CounterVec("pn_serve_tenant_grants_total", "Scheduler grants, by tenant: one per point of an in-process job, one per runner-delegated job.", "tenant"),
	}
})
