package ode

import "repro/internal/obs"

// odeInstruments are the integrator-level metrics. Counts are accumulated in
// plain locals inside the stepping loops and flushed to the atomic counters
// once per call (including the early-exit paths), so the per-step hot path
// carries no observability cost at all and the no-op path (no global
// registry) is allocation-free.
type odeInstruments struct {
	rk4Steps       *obs.Counter // pn_ode_steps_total{method="rk4"}
	dopri5Steps    *obs.Counter // pn_ode_steps_total{method="dopri5"}
	trapSteps      *obs.Counter // pn_ode_steps_total{method="trapezoidal"}
	varSteps       *obs.Counter // pn_ode_steps_total{method="variational"}
	adjSteps       *obs.Counter // pn_ode_steps_total{method="adjoint"}
	dopri5Rejected *obs.Counter // pn_ode_steps_rejected_total
	trapNewton     *obs.Counter // pn_ode_newton_iters_total
	trapJacFactor  *obs.Counter // pn_ode_trap_jac_factorisations_total
	nonFinite      *obs.Counter // pn_ode_nonfinite_total
}

var odeMetrics = obs.NewView(func(r *obs.Registry) *odeInstruments {
	steps := r.CounterVec("pn_ode_steps_total", "Integrator steps completed, by method.", "method")
	return &odeInstruments{
		rk4Steps:       steps.With("rk4"),
		dopri5Steps:    steps.With("dopri5"),
		trapSteps:      steps.With("trapezoidal"),
		varSteps:       steps.With("variational"),
		adjSteps:       steps.With("adjoint"),
		dopri5Rejected: r.Counter("pn_ode_steps_rejected_total", "DOPRI5 trial steps rejected by the error controller."),
		trapNewton:     r.Counter("pn_ode_newton_iters_total", "Implicit trapezoidal Newton corrector iterations."),
		trapJacFactor:  r.Counter("pn_ode_trap_jac_factorisations_total", "Jacobian LU factorisations in the trapezoidal Newton corrector (modified Newton re-uses a frozen factorisation, so this stays well below the iteration count)."),
		nonFinite:      r.Counter("pn_ode_nonfinite_total", "Integrations aborted on a non-finite state or step size."),
	}
})
