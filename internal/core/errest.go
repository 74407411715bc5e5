package core

import (
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/floquet"
	"repro/internal/linalg"
	"repro/internal/ode"
	"repro/internal/shooting"
)

// cErrSafety multiplies the summed error terms. Each term is an estimate,
// not a bound: across the registry models and pnbench's parameter ranges the
// bare adjoint term came to 0.96–1.21 of the change in c from a 4× finer
// adjoint wherever that change exceeds 1e-11, and to 0.73–1.26 below it.
const cErrSafety = 3

// estimateCErr estimates the relative error of the served c = q.c, sampled
// at qp points: cErrSafety times the sum of three terms, each relative to c.
//   - The adjoint's: c from v1 integrated at half the steps, at the same
//     samples, by Richardson extrapolation.
//   - The quadrature's: c from every other sample.
//   - The orbit's: c is quadratic in v1 and v1 scales inversely with the
//     orbit, so a relative displacement of the orbit moves c by about twice
//     as much.
//
// It integrates the adjoint and the orbit once more each, at half the
// steps; nothing it makes is kept.
func estimateCErr(sys dynsys.System, pss *shooting.PSS, dec *floquet.Decomposition, q quadSums, qp int, fo *floquet.Options, tok *budget.Token) (float64, error) {
	if q.c == 0 {
		return 0, nil // no noise: no relative error to speak of
	}
	half, err := floquet.HalfStepV1(sys, pss, dec, fo)
	if err != nil {
		return 0, integrationErr(err)
	}
	cHalf := quadrature(sys, pss, half, qp).c
	adjoint := math.Abs(q.c-cHalf) / halvingGain(len(dec.V1.Points)-1, len(half.Points)-1)
	orbit, err := orbitRelErr(sys, pss, dec, tok)
	if err != nil {
		return 0, integrationErr(err)
	}
	c := math.Abs(q.c)
	return cErrSafety * (adjoint/c + math.Abs(q.c-q.cHalf)/c + 2*orbit), nil
}

// integrationErr tags a failed integration of the estimate as refinable, as
// shooting tags its own, so a retry ladder refines the point; budget
// cut-offs stay untagged.
func integrationErr(err error) error {
	if budget.Is(err) {
		return fmt.Errorf("core: c error estimate: %w", err)
	}
	return fmt.Errorf("core: c error estimate: %w: %w", shooting.ErrIntegration, err)
}

// halvingGain is Richardson's factor for RK4, which is of order 4: a result
// a computed with n steps and b with m < n differ by about
// ((n/m)⁴ − 1)·error(a).
func halvingGain(n, m int) float64 {
	r := float64(n) / float64(m)
	return r*r*r*r - 1
}

// orbitRelErr estimates how far the served orbit lies from the true cycle,
// relative to the orbit's radius. Two things keep it off: Newton stopped at
// a residual r = x(T) − x0, and the RK4 map it solved is off the flow by
// its own error e, which step-halving estimates. Only e's part across the
// flow matters: along it, e is a phase error, which moves no point off the
// cycle (and on the weakly contracting hopf default is 100× the rest). A
// transverse error accumulates until the cycle's contraction cancels it, so
// the displacement is about (‖e⊥‖ + ‖r‖)/(1 − |μ₂|).
func orbitRelErr(sys dynsys.System, pss *shooting.PSS, dec *floquet.Decomposition, tok *budget.Token) (float64, error) {
	pts := pss.Orbit.Points
	steps := len(pts) - 1
	f := func(t float64, x, dst []float64) { sys.Eval(x, dst) }
	xHalf, err := ode.RK4(f, 0, pss.T, pss.X0, max(1, steps/2), tok)
	if err != nil {
		return 0, err
	}
	xT := pts[steps].X
	gain := halvingGain(steps, max(1, steps/2))
	e := make([]float64, len(xT))
	res := make([]float64, len(xT))
	for i := range e {
		e[i] = (xHalf[i] - xT[i]) / gain
		res[i] = xT[i] - pss.X0[i]
	}
	// The oblique projection I − u1(0)·v1ᵀ(0) removes the part along the
	// flow (v1ᵀ(0)·u1(0) = 1).
	along := linalg.Dot(dec.V10, e)
	for i := range e {
		e[i] -= along * dec.U10[i]
	}
	margin := dec.StabilityMargin()
	if !(margin > 1e-300) {
		margin = 1e-300 // a cycle that does not contract: no bound, but a finite number
	}
	return (linalg.Norm2(e) + linalg.Norm2(res)) / margin / orbitRadius(pts), nil
}

// orbitRadius returns the largest distance of a knot from the knots' mean.
func orbitRadius(pts []ode.SamplePoint) float64 {
	n := len(pts[0].X)
	mean := make([]float64, n)
	for _, p := range pts {
		for i, v := range p.X {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(pts))
	}
	rad := 0.0
	for _, p := range pts {
		d := 0.0
		for i, v := range p.X {
			d += (v - mean[i]) * (v - mean[i])
		}
		rad = max(rad, d)
	}
	return math.Sqrt(rad)
}
