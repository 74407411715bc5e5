// Package floquet performs the Floquet analysis of a periodic steady state
// needed for phase-noise characterisation (paper Sections 4 and 9): the
// characteristic multipliers/exponents of the monodromy matrix, the tangent
// Floquet vector u1(t) = ẋs(t), and the adjoint Floquet vector v1(t)
// (the perturbation projection vector), computed by numerically stable
// backward integration of the adjoint equation ẏ = −Aᵀ(t)y.
package floquet

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/linalg"
	"repro/internal/ode"
	"repro/internal/shooting"
)

// ErrNoUnitMultiplier is returned when the monodromy matrix has no
// eigenvalue close to 1 — i.e. the supplied orbit is not a (resolved)
// periodic solution of an autonomous system.
var ErrNoUnitMultiplier = errors.New("floquet: no characteristic multiplier near 1")

// ErrAdjointClosure is returned when the backward-integrated adjoint vector
// fails to close on itself over one period within Options.MaxPeriodDrift;
// increase Steps or tighten the shooting tolerance.
var ErrAdjointClosure = errors.New("floquet: adjoint closure error too large")

// Trace records per-stage diagnostics of one Analyze call. Attach a zero
// Trace to Options.Trace; fields are overwritten as each stage completes, so
// on failure the trace shows how far the analysis got.
type Trace struct {
	Wall         time.Duration // total wall-clock time of Analyze
	AdjointWall  time.Duration // time in the backward adjoint integration
	Steps        int           // adjoint integration steps used
	UnitErr      float64       // |multiplier₁ − 1|
	ClosureErr   float64       // relative adjoint closure error over one period
	BiorthoDrift float64       // max |v1ᵀ(t)·ẋs(t) − 1| before renormalisation
}

// ErrUnstableCycle is returned when a multiplier other than the structural
// unit one lies outside the unit circle, meaning the orbit is not
// asymptotically orbitally stable and the phase-noise theory does not apply.
var ErrUnstableCycle = errors.New("floquet: limit cycle is orbitally unstable")

// Options configures the analysis.
type Options struct {
	Steps          int     // adjoint integration steps over one period (default: the orbit's knot count, min 2000)
	UnitTol        float64 // acceptance radius for the unit multiplier (default 5e-3)
	StabilityTol   float64 // margin for instability detection (default 1e-6)
	SkipStability  bool    // do not fail on unstable cycles (for diagnostics)
	NoRenormalize  bool    // keep the raw backward-integrated v1(t) without pointwise rescaling
	RelaxResidual  bool    // accept larger inverse-iteration residuals (ill-conditioned monodromy)
	MaxPeriodDrift float64 // max tolerated ‖v1(0)−v1(T)‖ closure error (default 1e-3, relative)
	Trace          *Trace  // optional per-stage diagnostics, filled in by Analyze
	// Budget, when non-nil, is polled at integrator-step granularity in the
	// backward adjoint integration; a tripped token aborts Analyze with a
	// wrapped budget.ErrCanceled/ErrBudgetExceeded.
	Budget *budget.Token
}

// Effective returns a copy of o with the statically-defaulted knobs resolved
// to the values Analyze actually runs with. Steps is the exception: its
// default scales with the orbit resolution at analysis time, so an unset
// Steps stays 0 ("auto") here. Used for content-addressed result caching,
// where "nil", "zero" and "explicitly default" must hash alike.
func (o *Options) Effective() Options {
	out := o.defaults(0)
	if o == nil || o.Steps <= 0 {
		out.Steps = 0 // auto: resolved against the orbit, not a static default
	}
	return out
}

func (o *Options) defaults(orbitKnots int) Options {
	out := Options{
		Steps:          max(2000, orbitKnots),
		UnitTol:        5e-3,
		StabilityTol:   1e-6,
		MaxPeriodDrift: 1e-3,
	}
	if o != nil {
		if o.Steps > 0 {
			out.Steps = o.Steps
		}
		if o.UnitTol > 0 {
			out.UnitTol = o.UnitTol
		}
		if o.StabilityTol > 0 {
			out.StabilityTol = o.StabilityTol
		}
		out.SkipStability = o.SkipStability
		out.NoRenormalize = o.NoRenormalize
		out.RelaxResidual = o.RelaxResidual
		if o.MaxPeriodDrift > 0 {
			out.MaxPeriodDrift = o.MaxPeriodDrift
		}
		out.Trace = o.Trace
		out.Budget = o.Budget
	}
	return out
}

// Decomposition carries the Floquet quantities of one periodic orbit.
type Decomposition struct {
	T           float64
	Multipliers []complex128 // characteristic multipliers exp(μ_i T), |·| sorted desc
	Exponents   []complex128 // Floquet exponents μ_i = log(multiplier)/T
	U10         []float64    // u1(0) = ẋs(0)
	V10         []float64    // v1(0), normalised v1ᵀ(0)·u1(0) = 1
	V1          *ode.Trajectory
	// Diagnostics:
	UnitErr      float64 // |multiplier₁ − 1|
	ClosureErr   float64 // relative ‖v1 backward-integrated to 0 − v1(0)‖
	BiorthoDrift float64 // max |v1ᵀ(t)·ẋs(t) − 1| before renormalisation
}

// V1At evaluates v1(t) into dst, reducing t modulo the period.
func (d *Decomposition) V1At(t float64, dst []float64) {
	tm := math.Mod(t, d.T)
	if tm < 0 {
		tm += d.T
	}
	d.V1.At(tm, dst)
}

// StabilityMargin returns 1 − max_{i≥2} |multiplier_i|; positive values mean
// an asymptotically orbitally stable cycle.
func (d *Decomposition) StabilityMargin() float64 {
	worst := 0.0
	for i := 1; i < len(d.Multipliers); i++ {
		if a := cmplx.Abs(d.Multipliers[i]); a > worst {
			worst = a
		}
	}
	return 1 - worst
}

// Analyze computes the Floquet decomposition of the periodic steady state
// pss of sys, following paper Section 9 steps 2–5:
//
//  1. eigenvalues of Φ(T,0) give the characteristic multipliers;
//  2. u1(0) = ẋs(0) = f(x0) spans the unit-multiplier eigenspace;
//  3. v1(0) is the eigenvector of Φᵀ(T,0) at eigenvalue 1, scaled so
//     v1ᵀ(0) u1(0) = 1;
//  4. v1(t) follows from integrating ẏ = −Aᵀ(t)y BACKWARD from
//     y(T) = v1(0); forward integration would be unstable because the
//     contracting Floquet modes of the cycle are expanding for the adjoint.
func Analyze(sys dynsys.System, pss *shooting.PSS, opts *Options) (*Decomposition, error) {
	o := opts.defaults(len(pss.Orbit.Points))
	tr := o.Trace
	if tr != nil {
		// Reset to zero — NOT to the configured step count. Steps is filled
		// with the number of adjoint steps actually completed once the
		// integration runs, so a trace from an early exit (budget trip before
		// or during the adjoint stage) reports real work done, not intent.
		*tr = Trace{}
		start := time.Now()
		defer func() { tr.Wall = time.Since(start) }()
	}
	fm := floquetMetrics.Get()
	fm.analyses.Inc()
	prep, err := preAdjoint(sys, pss, o, tr)
	if err != nil {
		return nil, err
	}

	// Backward adjoint integration over [0, T] with y(T) = v1(0).
	jac := func(t float64, x []float64, dst []float64) { sys.Jacobian(x, dst) }
	adjStart := time.Now()
	v1traj, adjDone, err := ode.AdjointBackward(jac, pss.Orbit, 0, pss.T, prep.v10, o.Steps, o.Budget)
	if tr != nil {
		tr.AdjointWall = time.Since(adjStart)
		tr.Steps = adjDone
	}
	if err != nil {
		return nil, fmt.Errorf("floquet: adjoint integration: %w", err)
	}

	return postAdjoint(sys, pss, o, tr, prep, v1traj)
}

// adjPrep carries the pre-adjoint stage results: multipliers ordered per the
// Decomposition contract, exponents, and the Floquet vectors at t = 0.
type adjPrep struct {
	mult  []complex128
	exps  []complex128
	u10   []float64
	v10   []float64
	bdist float64
}

// preAdjoint runs the scalar stages of Analyze that precede the adjoint
// integration: the monodromy eigenanalysis, unit-multiplier search, stability
// check and the v1(0) eigenvector.
func preAdjoint(sys dynsys.System, pss *shooting.PSS, o Options, tr *Trace) (*adjPrep, error) {
	n := sys.Dim()
	phi := pss.Monodromy
	if err := o.Budget.Err(); err != nil {
		return nil, fmt.Errorf("floquet: before monodromy eigenanalysis: %w", err)
	}

	// The PSS memoizes its monodromy eigendecomposition, so re-analysing the
	// same solution (a retry-ladder rung that only changed downstream
	// tolerances) does not refactor Φ.
	mult, err := pss.MonodromyEigen()
	if err != nil {
		return nil, fmt.Errorf("floquet: monodromy eigenvalues: %w", err)
	}
	// Locate the multiplier closest to 1 and move it to the front.
	best, bdist := -1, math.Inf(1)
	for i, m := range mult {
		if d := cmplx.Abs(m - 1); d < bdist {
			best, bdist = i, d
		}
	}
	if tr != nil {
		tr.UnitErr = bdist
	}
	if best < 0 || bdist > o.UnitTol {
		return nil, fmt.Errorf("%w (closest %.3e away; refine the shooting solution)", ErrNoUnitMultiplier, bdist)
	}
	mult[0], mult[best] = mult[best], mult[0]
	// The contract on Decomposition.Multipliers is |·| sorted descending
	// after the structural unit multiplier; eigenvalue routines return them
	// in no particular order.
	sort.SliceStable(mult[1:], func(i, j int) bool {
		return cmplx.Abs(mult[1+i]) > cmplx.Abs(mult[1+j])
	})
	if !o.SkipStability {
		for i := 1; i < len(mult); i++ {
			if cmplx.Abs(mult[i]) > 1+o.StabilityTol {
				return nil, fmt.Errorf("%w (multiplier %v)", ErrUnstableCycle, mult[i])
			}
		}
	}
	exps := make([]complex128, len(mult))
	for i, m := range mult {
		exps[i] = cmplx.Log(m) / complex(pss.T, 0)
	}
	exps[0] = 0 // structurally exact

	// u1(0) = f(x0).
	u10 := make([]float64, n)
	sys.Eval(pss.X0, u10)

	// v1(0): eigenvector of Φᵀ at eigenvalue 1.
	v10, err := linalg.EigenvectorReal(phi.T(), 1)
	if err != nil {
		return nil, fmt.Errorf("floquet: v1(0) eigenvector: %w", err)
	}
	ip := linalg.Dot(v10, u10)
	if ip == 0 {
		return nil, errors.New("floquet: v1(0) orthogonal to u1(0); degenerate monodromy")
	}
	linalg.ScaleVec(1/ip, v10)
	return &adjPrep{mult: mult, exps: exps, u10: u10, v10: v10, bdist: bdist}, nil
}

// postAdjoint runs the scalar stages downstream of the adjoint integration:
// closure diagnostic, biorthogonality drift, pointwise renormalisation and
// assembly of the Decomposition.
func postAdjoint(sys dynsys.System, pss *shooting.PSS, o Options, tr *Trace, prep *adjPrep, v1traj *ode.Trajectory) (*Decomposition, error) {
	fm := floquetMetrics.Get()
	n := sys.Dim()
	v10 := prep.v10

	// Closure diagnostic: the backward solution at t=0 should reproduce v1(0).
	v1at0 := make([]float64, n)
	v1traj.At(0, v1at0)
	closure := linalg.Norm2(linalg.SubVec(v1at0, v10)) / (1 + linalg.Norm2(v10))
	fm.closureErr.Observe(closure)
	if tr != nil {
		tr.ClosureErr = closure
	}

	drift := biortho(sys, pss, v1traj, !o.NoRenormalize)
	if tr != nil {
		tr.BiorthoDrift = drift
	}
	if closure > o.MaxPeriodDrift {
		fm.closureFails.Inc()
		return nil, fmt.Errorf("%w: %.3e exceeds %.3e; increase Steps or tighten shooting tolerance", ErrAdjointClosure, closure, o.MaxPeriodDrift)
	}

	return &Decomposition{
		T:            pss.T,
		Multipliers:  prep.mult,
		Exponents:    prep.exps,
		U10:          prep.u10,
		V10:          v10,
		V1:           v1traj,
		UnitErr:      prep.bdist,
		ClosureErr:   closure,
		BiorthoDrift: drift,
	}, nil
}

// biortho returns the biorthogonality drift max |v1ᵀ(t)·ẋs(t) − 1| over the
// knots of v1 and, when renormalise is set, rescales each knot so that
// v1ᵀ(t)·ẋs(t) = 1 there.
func biortho(sys dynsys.System, pss *shooting.PSS, v1 *ode.Trajectory, renormalise bool) float64 {
	n := sys.Dim()
	pts := v1.Points
	ips := make([]float64, len(pts))
	drift := 0.0
	xbuf := make([]float64, n)
	fbuf := make([]float64, n)
	orbitLoc := ode.NewLocator(pss.Orbit)
	for i := range pts {
		orbitLoc.At(pts[i].T, xbuf)
		sys.Eval(xbuf, fbuf)
		ips[i] = linalg.Dot(pts[i].X, fbuf)
		if d := math.Abs(ips[i] - 1); d > drift {
			drift = d
		}
	}
	if !renormalise {
		return drift
	}
	// The exact v1 satisfies v1ᵀ(t)u1(t) ≡ 1; rescaling pointwise removes
	// accumulated integration error without changing the direction of the
	// projection. The renormalised vector is ṽ1 = v1/ip with
	// d ṽ1/dt = v̇1/ip − (dip/dt)/ip²·v1, so the knot slopes need the
	// derivative of the rescaling factor as well — scaling DX by 1/ip
	// alone leaves the Hermite interpolant inconsistent wherever the
	// drift varies between knots.
	for i := range pts {
		ip := ips[i]
		if ip == 0 {
			continue
		}
		var dip float64
		switch {
		case i == 0:
			dip = (ips[1] - ips[0]) / (pts[1].T - pts[0].T)
		case i == len(pts)-1:
			dip = (ips[i] - ips[i-1]) / (pts[i].T - pts[i-1].T)
		default:
			dip = (ips[i+1] - ips[i-1]) / (pts[i+1].T - pts[i-1].T)
		}
		p := &pts[i]
		for k := range p.DX {
			p.DX[k] = (p.DX[k] - dip/ip*p.X[k]) / ip
		}
		linalg.ScaleVec(1/ip, p.X)
	}
	return drift
}

// HalfStepV1 integrates d's backward adjoint again from the same v1(0), at
// half the steps of d.V1, and renormalises it as Analyze renormalised d.V1:
// c computed on it beside c on d.V1 gives the Richardson estimate of the
// adjoint's share of the error on c. It counts in no Floquet trace or
// metric; opts supplies NoRenormalize and the budget.
func HalfStepV1(sys dynsys.System, pss *shooting.PSS, d *Decomposition, opts *Options) (*ode.Trajectory, error) {
	o := opts.defaults(0)
	jac := func(t float64, x []float64, dst []float64) { sys.Jacobian(x, dst) }
	steps := max(1, (len(d.V1.Points)-1)/2)
	v1, _, err := ode.AdjointBackward(jac, pss.Orbit, 0, pss.T, d.V10, steps, o.Budget)
	if err != nil {
		return nil, fmt.Errorf("floquet: half-step adjoint: %w", err)
	}
	biortho(sys, pss, v1, !o.NoRenormalize)
	return v1, nil
}
