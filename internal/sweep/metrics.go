package sweep

import "repro/internal/obs"

// sweepInstruments are the batch-engine metrics: point outcomes, ladder
// pressure (attempts per rung), live queue depth, and the point-latency
// distribution.
type sweepInstruments struct {
	pointsOK       *obs.Counter    // pn_sweep_points_total{outcome="ok"}
	pointsCached   *obs.Counter    // pn_sweep_points_total{outcome="cached"}
	pointsDegraded *obs.Counter    // pn_sweep_points_total{outcome="degraded"}
	pointsFailed   *obs.Counter    // pn_sweep_points_total{outcome="failed"}
	pointsSkipped  *obs.Counter    // pn_sweep_points_total{outcome="skipped"}
	attempts       *obs.CounterVec // pn_sweep_attempts_total{rung}
	abandoned      *obs.Counter    // pn_sweep_abandoned_total
	queueDepth     *obs.Gauge      // pn_sweep_queue_depth
	pointSeconds   *obs.Histogram  // pn_sweep_point_seconds
	pssReuses      *obs.Counter    // pn_sweep_pss_reuse_total
	flightDumps    *obs.Counter    // pn_sweep_flight_dumps_total
}

var sweepMetrics = obs.NewView(func(r *obs.Registry) *sweepInstruments {
	points := r.CounterVec("pn_sweep_points_total", "Sweep points finished, by outcome (ok, cached = served from the result cache without running the pipeline, degraded = failed but with a converged PSS, failed, skipped = never started because the batch budget tripped).", "outcome")
	return &sweepInstruments{
		pointsOK:       points.With("ok"),
		pointsCached:   points.With("cached"),
		pointsDegraded: points.With("degraded"),
		pointsFailed:   points.With("failed"),
		pointsSkipped:  points.With("skipped"),
		attempts:       r.CounterVec("pn_sweep_attempts_total", "Ladder attempts run, by rung name.", "rung"),
		abandoned:      r.Counter("pn_sweep_abandoned_total", "Attempts abandoned because the model ignored cancellation past the grace period."),
		queueDepth:     r.Gauge("pn_sweep_queue_depth", "Points of the current batch not yet finished."),
		pointSeconds:   r.Histogram("pn_sweep_point_seconds", "Wall-clock time per sweep point across its whole retry ladder.", obs.ExpBuckets(0.001, 4, 12)),
		pssReuses:      r.Counter("pn_sweep_pss_reuse_total", "Retry-ladder attempts that skipped Newton shooting by reusing the previous attempt's converged periodic steady state."),
		flightDumps:    r.Counter("pn_sweep_flight_dumps_total", "Flight-recorder dumps attached to crashed attempts (panic, budget/timeout cut-off, abandonment)."),
	}
})
