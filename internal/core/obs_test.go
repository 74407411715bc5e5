package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/floquet"
	"repro/internal/obs"
	"repro/internal/osc"
)

// tripAfterShooting wraps a system and cancels a budget token a fixed number
// of Jacobian calls after the shooting stage completed (signalled by
// Partial.PSS becoming non-nil, which Characterise sets on the same
// goroutine). Analyze evaluates the Jacobian only inside the backward adjoint
// integration, so the trip is guaranteed to land mid-Floquet.
type tripAfterShooting struct {
	dynsys.System
	part   *Partial
	calls  int
	after  int
	cancel func()
}

func (s *tripAfterShooting) Jacobian(x []float64, dst []float64) {
	if s.part.PSS != nil {
		s.calls++
		if s.calls > s.after {
			s.cancel()
		}
	}
	s.System.Jacobian(x, dst)
}

// Degraded-path traces: when the budget trips mid-Floquet, the aggregate
// Trace must still carry the complete shooting diagnostics and a partial
// (non-zero, non-configured) Floquet stage.
func TestDegradedTraceOnMidFloquetBudgetTrip(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}
	tok, cancel := budget.WithCancel(nil)
	defer cancel()
	var part Partial
	wrapped := &tripAfterShooting{System: h, part: &part, after: 400, cancel: cancel}

	var tr Trace
	const configured = 4000
	_, err := Characterise(wrapped, []float64{1, 0.1}, 1.05, &Options{
		Floquet: &floquet.Options{Steps: configured},
		Trace:   &tr,
		Budget:  tok,
		Partial: &part,
	})
	if !budget.Is(err) {
		t.Fatalf("got %v, want a budget error", err)
	}
	// Shooting completed: its trace is fully populated.
	if tr.Shooting.Iters == 0 || tr.Shooting.Wall <= 0 {
		t.Fatalf("shooting trace lost on degraded run: %+v", tr.Shooting)
	}
	if tr.Shooting.Residual <= 0 || tr.Shooting.Residual > 1e-9 {
		t.Fatalf("converged shooting residual not recorded: %g", tr.Shooting.Residual)
	}
	if part.PSS == nil {
		t.Fatal("converged PSS not preserved")
	}
	// Floquet was cut mid-adjoint: partial step count, wall time recorded.
	if tr.Floquet.Steps <= 0 || tr.Floquet.Steps >= configured {
		t.Fatalf("Floquet.Steps = %d, want partial in (0, %d)", tr.Floquet.Steps, configured)
	}
	if tr.Floquet.Wall <= 0 {
		t.Fatal("partial floquet wall time not recorded")
	}
	// The quadrature never ran.
	if tr.QuadPoints != 0 || tr.QuadWall != 0 {
		t.Fatalf("quadrature trace set for a stage that never ran: points=%d wall=%v", tr.QuadPoints, tr.QuadWall)
	}
	if part.Floquet != nil {
		t.Fatal("failed floquet stage must not populate Partial.Floquet")
	}
}

// The budget-trip counter must name the interrupted stage.
func TestBudgetTripCountedByStage(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}
	tok, cancel := budget.WithCancel(nil)
	cancel()
	if _, err := Characterise(h, []float64{1, 0.1}, 1.05, &Options{Budget: tok}); err == nil {
		t.Fatal("want an error from the pre-canceled budget")
	}
	s := reg.Snapshot()
	if got := s.Counter("pn_budget_trips_total", "shooting"); got != 1 {
		t.Fatalf("shooting trips = %d, want 1", got)
	}
	if got := s.Counter("pn_core_characterisations_total", "error"); got != 1 {
		t.Fatalf("error characterisations = %d, want 1", got)
	}
}

// Numerical health reaches /metrics and the span log: a characterisation
// observes its c_rel_err and its adjoint closure error once each into their
// histograms, and sets them, with the shooting residual, the Newton
// iteration count, the unit-multiplier error, the biorthogonality drift and
// the adjoint step count, as span attributes.
func TestNumericalHealthInMetricsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	ring := obs.NewRingEmitter(64)
	obs.SetEmitter(ring)
	defer obs.SetEmitter(nil)

	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}
	res, err := Characterise(h, []float64{1, 0.1}, 1.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.CRelErr > 0) {
		t.Fatalf("c_rel_err = %g", res.CRelErr)
	}
	s := reg.Snapshot()
	for _, m := range []struct {
		name string
		want float64
	}{{"pn_core_c_rel_error", res.CRelErr}, {"pn_floquet_closure_error", res.Floquet.ClosureErr}} {
		if hv, ok := s.Histogram(m.name); !ok || hv.Count != 1 || hv.Sum != m.want {
			t.Errorf("%s: %+v, want one observation of %g", m.name, hv, m.want)
		}
	}
	attrs := map[string]map[string]any{}
	for _, ev := range ring.Events() {
		attrs[ev.Name] = ev.Attrs
	}
	for _, a := range []struct {
		span, key string
		want      any
	}{
		{"core.Characterise", "c_rel_err", res.CRelErr},
		{"shooting.Find", "residual", res.PSS.Residual},
		{"shooting.Find", "newton_iters", res.PSS.Iters},
		{"shooting.Find", "transient_periods", res.PSS.TransientPeriods()},
		{"floquet.Analyze", "closure_err", res.Floquet.ClosureErr},
		{"floquet.Analyze", "unit_err", res.Floquet.UnitErr},
		{"floquet.Analyze", "biortho_drift", res.Floquet.BiorthoDrift},
		{"floquet.Analyze", "adjoint_steps", len(res.Floquet.V1.Points) - 1},
	} {
		if got := attrs[a.span][a.key]; got != a.want {
			t.Errorf("%s %s = %v, want %v", a.span, a.key, got, a.want)
		}
	}
	if _, ok := attrs["c_error"]; !ok {
		t.Error("no c_error span")
	}
}

// tripAfterFloquet cancels a budget token a fixed number of Jacobian calls
// after the Floquet stage completed: only the error estimate's half-step
// adjoint evaluates the Jacobian after that.
type tripAfterFloquet struct {
	dynsys.System
	part   *Partial
	calls  int
	cancel func()
}

func (s *tripAfterFloquet) Jacobian(x []float64, dst []float64) {
	if s.part.Floquet != nil {
		if s.calls++; s.calls > 100 {
			s.cancel()
		}
	}
	s.System.Jacobian(x, dst)
}

// The error estimate polls the point's budget: a trip inside it fails the
// characterisation with the budget error, counted under stage "c_error",
// while the shooting and Floquet products stay in Partial.
func TestBudgetTripInErrorEstimate(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}
	tok, cancel := budget.WithCancel(nil)
	defer cancel()
	var part Partial
	sys := &tripAfterFloquet{System: h, part: &part, cancel: cancel}
	_, err := Characterise(sys, []float64{1, 0.1}, 1.05, &Options{Budget: tok, Partial: &part})
	if !budget.Is(err) || !strings.Contains(err.Error(), "c error estimate") {
		t.Fatalf("got %v, want a budget error from the c error estimate", err)
	}
	if part.PSS == nil || part.Floquet == nil {
		t.Fatal("the completed stages were not kept")
	}
	if got := reg.Snapshot().Counter("pn_budget_trips_total", "c_error"); got != 1 {
		t.Fatalf("c_error trips = %d, want 1", got)
	}
}
