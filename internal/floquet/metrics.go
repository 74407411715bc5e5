package floquet

import "repro/internal/obs"

// floquetInstruments are the Floquet-stage metrics. Adjoint step counts live
// in the ode package (pn_ode_steps_total{method="adjoint"}); this bundle
// tracks analysis-level outcomes.
type floquetInstruments struct {
	analyses     *obs.Counter   // pn_floquet_analyses_total
	closureFails *obs.Counter   // pn_floquet_closure_failures_total
	closureErr   *obs.Histogram // pn_floquet_closure_error
}

var floquetMetrics = obs.NewView(func(r *obs.Registry) *floquetInstruments {
	return &floquetInstruments{
		analyses:     r.Counter("pn_floquet_analyses_total", "Floquet Analyze calls started."),
		closureFails: r.Counter("pn_floquet_closure_failures_total", "Analyses rejected because the adjoint closure error exceeded MaxPeriodDrift."),
		closureErr:   r.Histogram("pn_floquet_closure_error", "Relative adjoint closure error of each analysis.", obs.ExpBuckets(1e-14, 10, 14)),
	}
})
