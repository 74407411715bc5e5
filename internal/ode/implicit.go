package ode

import (
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/linalg"
)

// TrapezoidalOptions configures the implicit trapezoidal integrator.
type TrapezoidalOptions struct {
	NewtonTol float64 // residual tolerance (default 1e-12 scaled)
	MaxNewton int     // Newton iterations per step (default 25)
	Record    bool    // store a dense Trajectory
	// FreshJacTol enables modified-Newton Jacobian freezing: the LU
	// factorisation of J_G = I − h/2·A is kept across Newton iterations and
	// across steps, and re-factored only when the observed residual
	// contraction per iteration is worse than this ratio (e.g. 0.25), when
	// the frozen factorisation turns singular, or when a damped update fails
	// under it. Zero (the default) factors a fresh Jacobian on every
	// iteration, exactly as before.
	FreshJacTol float64
	// Budget, when non-nil, is polled once per step; a tripped token aborts
	// the integration with a wrapped ErrCanceled/ErrBudgetExceeded.
	Budget *budget.Token
}

// Trapezoidal integrates ẋ = f with the A-stable implicit trapezoidal rule
// using nsteps fixed steps and a damped Newton corrector with the analytic
// Jacobian jac. Suitable for stiff oscillators (relaxation, switching).
// x0 is not modified.
func Trapezoidal(f Func, jac JacFunc, t0, t1 float64, x0 []float64, nsteps int, opts *TrapezoidalOptions) (*Result, error) {
	if nsteps <= 0 {
		panic("ode: Trapezoidal requires nsteps > 0")
	}
	o := TrapezoidalOptions{NewtonTol: 1e-12, MaxNewton: 25}
	if opts != nil {
		if opts.NewtonTol > 0 {
			o.NewtonTol = opts.NewtonTol
		}
		if opts.MaxNewton > 0 {
			o.MaxNewton = opts.MaxNewton
		}
		o.Record = opts.Record
		o.Budget = opts.Budget
		o.FreshJacTol = opts.FreshJacTol
	}
	n := len(x0)
	h := (t1 - t0) / float64(nsteps)
	x := make([]float64, n)
	copy(x, x0)
	fk := make([]float64, n)
	fn := make([]float64, n)
	xn := make([]float64, n)
	g := make([]float64, n)
	jm := linalg.NewMatrix(n, n)
	res := &Result{}
	if o.Record {
		res.Traj = &Trajectory{}
		f(t0, x, fk)
		res.Traj.Append(t0, x, fk)
	}
	m := odeMetrics.Get()
	newtonIters := 0
	jacFactors := 0
	flush := func() {
		m.trapSteps.Add(int64(res.Steps))
		m.trapNewton.Add(int64(newtonIters))
		m.trapJacFactor.Add(int64(jacFactors))
	}
	freeze := o.FreshJacTol > 0
	var flu *linalg.LU // frozen J_G factorisation; nil forces a fresh factor
	factor := func(t float64, xat []float64) *linalg.LU {
		// J_G = I - h/2 A(t, x)
		jac(t, xat, jm.Data)
		for i := range jm.Data {
			jm.Data[i] *= -0.5 * h
		}
		for i := 0; i < n; i++ {
			jm.Data[i*n+i] += 1
		}
		jacFactors++
		return linalg.NewLU(jm)
	}
	for s := 0; s < nsteps; s++ {
		t := t0 + float64(s)*h
		tn := t + h
		if err := o.Budget.Err(); err != nil {
			flush()
			return nil, fmt.Errorf("ode: trapezoidal at t=%g (step %d/%d): %w", t, s+1, nsteps, err)
		}
		f(t, x, fk)
		// Predictor: explicit Euler.
		for i := 0; i < n; i++ {
			xn[i] = x[i] + h*fk[i]
		}
		converged := false
		for it := 0; it < o.MaxNewton; it++ {
			newtonIters++
			f(tn, xn, fn)
			// G(xn) = xn - x - h/2 (fk + fn)
			gnorm := 0.0
			for i := 0; i < n; i++ {
				g[i] = xn[i] - x[i] - 0.5*h*(fk[i]+fn[i])
				if a := math.Abs(g[i]); a > gnorm {
					gnorm = a
				}
			}
			scale := 1.0 + linalg.NormInfVec(xn)
			if gnorm <= o.NewtonTol*scale {
				converged = true
				break
			}
			fresh := false
			if flu == nil {
				flu = factor(tn, xn)
				fresh = true
			}
			dx, err := flu.Solve(g)
			if err != nil && !fresh {
				// The frozen factorisation went singular; retry fresh.
				flu = factor(tn, xn)
				fresh = true
				dx, err = flu.Solve(g)
			}
			if err != nil {
				flush()
				return nil, fmt.Errorf("ode: trapezoidal Newton solve at t=%g: %w", tn, err)
			}
			// Damped update: halve until the residual does not explode.
			lambda := 1.0
			applied := false
			newNorm := gnorm
			for try := 0; try < 8; try++ {
				cand := make([]float64, n)
				for i := 0; i < n; i++ {
					cand[i] = xn[i] - lambda*dx[i]
				}
				f(tn, cand, fn)
				cnorm := 0.0
				for i := 0; i < n; i++ {
					gi := cand[i] - x[i] - 0.5*h*(fk[i]+fn[i])
					if a := math.Abs(gi); a > cnorm {
						cnorm = a
					}
				}
				if cnorm <= gnorm || cnorm <= o.NewtonTol*scale {
					copy(xn, cand)
					applied = true
					newNorm = cnorm
					break
				}
				lambda *= 0.5
			}
			if !applied {
				if !fresh {
					// A stale Jacobian is the likely culprit: spend the next
					// iteration re-solving this state with a fresh one.
					flu = nil
					continue
				}
				flush()
				return nil, fmt.Errorf("%w at t=%g (residual %g)", ErrNewtonDiverged, tn, gnorm)
			}
			if !freeze {
				flu = nil
			} else if gnorm > 0 && newNorm > o.FreshJacTol*gnorm {
				// Slow contraction: the frozen Jacobian has drifted too far.
				flu = nil
			}
		}
		if !converged {
			// Accept only if the final residual is reasonable.
			f(tn, xn, fn)
			gnorm := 0.0
			for i := 0; i < n; i++ {
				gi := xn[i] - x[i] - 0.5*h*(fk[i]+fn[i])
				if a := math.Abs(gi); a > gnorm {
					gnorm = a
				}
			}
			if gnorm > 1e-6*(1+linalg.NormInfVec(xn)) {
				flush()
				return nil, fmt.Errorf("%w at t=%g after %d iterations", ErrNewtonDiverged, tn, o.MaxNewton)
			}
		}
		if !finite(xn) {
			m.nonFinite.Inc()
			flush()
			return nil, fmt.Errorf("%w in trapezoidal step at t=%g (step %d/%d)", ErrNonFinite, tn, s+1, nsteps)
		}
		copy(x, xn)
		res.Steps++
		if o.Record {
			f(tn, x, fn)
			res.Traj.Append(tn, x, fn)
		}
	}
	flush()
	res.X = x
	return res, nil
}

// Variational integrates the joint system ẋ = f(t,x), Ẏ = A(t,x)Y with
// Y(t0) = I using fixed-step RK4, returning the final state and the
// state-transition matrix Φ(t1, t0). When rec is non-nil its knots are
// replaced by the state part of the solution, nsteps+1 knots whose states
// and slopes f(t, x) share one backing array; knots of an earlier recording
// of the same shape are overwritten in place, so a caller that integrates
// repeatedly (Newton shooting) records into one array. On failure rec holds
// the knots recorded so far. The integration is cut off with a wrapped
// budget error when tok trips (nil tok never trips) and with ErrNonFinite as
// soon as the joint state turns NaN/Inf.
func Variational(f Func, jac JacFunc, t0, t1 float64, x0 []float64, nsteps int, rec *Trajectory, tok *budget.Token) ([]float64, *linalg.Matrix, error) {
	n := len(x0)
	aug := make([]float64, n+n*n)
	copy(aug, x0)
	for i := 0; i < n; i++ {
		aug[n+i*n+i] = 1 // Y(t0) = I
	}
	jm := make([]float64, n*n)
	rhs := func(t float64, z, dst []float64) {
		x := z[:n]
		f(t, x, dst[:n])
		jac(t, x, jm)
		// dY = A Y, Y stored row-major in z[n:].
		y := z[n:]
		dy := dst[n:]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += jm[i*n+k] * y[k*n+j]
				}
				dy[i*n+j] = s
			}
		}
	}
	var pts []SamplePoint
	store := func(idx int, t float64) {
		p := &pts[idx]
		p.T = t
		copy(p.X, aug[:n])
		f(t, p.X, p.DX)
	}
	if rec != nil {
		pts = rec.knots(nsteps+1, n)
		store(0, t0)
	}
	h := (t1 - t0) / float64(nsteps)
	k1 := make([]float64, len(aug))
	k2 := make([]float64, len(aug))
	k3 := make([]float64, len(aug))
	k4 := make([]float64, len(aug))
	tmp := make([]float64, len(aug))
	m := odeMetrics.Get()
	for s := 0; s < nsteps; s++ {
		t := t0 + float64(s)*h
		if err := tok.Err(); err != nil {
			m.varSteps.Add(int64(s))
			if rec != nil {
				rec.Points = pts[: s+1 : s+1]
			}
			return nil, nil, fmt.Errorf("ode: variational integration at t=%g (step %d/%d): %w", t, s+1, nsteps, err)
		}
		rk4Step(rhs, t, aug, h, aug, k1, k2, k3, k4, tmp)
		if !finite(aug) {
			m.varSteps.Add(int64(s + 1))
			m.nonFinite.Inc()
			if rec != nil {
				rec.Points = pts[: s+1 : s+1]
			}
			return nil, nil, fmt.Errorf("%w in variational integration at t=%g (step %d/%d)", ErrNonFinite, t, s+1, nsteps)
		}
		if rec != nil {
			store(s+1, t+h)
		}
	}
	m.varSteps.Add(int64(nsteps))
	if rec != nil {
		checkIncreasing(pts)
	}
	phi := linalg.NewMatrixFrom(n, n, aug[n:])
	xf := make([]float64, n)
	copy(xf, aug[:n])
	return xf, phi, nil
}

// knots sets tr to k knots of dimension n, each knot's state and slope
// slices cut from one backing array, and returns them for filling. A
// trajectory already holding k such knots keeps its storage.
func (tr *Trajectory) knots(k, n int) []SamplePoint {
	if pts := tr.Points; k > 0 && len(pts) == k && cap(pts) == k && len(pts[0].X) == n && len(pts[0].DX) == n {
		return pts
	}
	pts := make([]SamplePoint, k)
	vals := make([]float64, 2*n*k)
	for i := range pts {
		v := vals[2*n*i : 2*n*(i+1) : 2*n*(i+1)]
		pts[i] = SamplePoint{X: v[:n:n], DX: v[n:]}
	}
	tr.Points = pts
	return pts
}

// checkIncreasing panics, as Trajectory.Append does, unless the knot times
// strictly increase.
func checkIncreasing(pts []SamplePoint) {
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			panic(fmt.Sprintf("ode: non-increasing trajectory knot %g after %g", pts[i].T, pts[i-1].T))
		}
	}
}

// AdjointBackward integrates the adjoint system ẏ = −Aᵀ(t)y backwards in
// time from t1 (with y(t1) = yT) to t0, where A(t) is the Jacobian of f
// evaluated along a stored state trajectory xs. It returns the adjoint
// solution as a Trajectory sampled on the same uniform grid (nsteps steps).
// Integrating the adjoint backwards is numerically stable because the
// unstable forward modes become decaying ones (paper, Section 9, step 5).
// The integration is cut off with a wrapped budget error when tok trips (nil
// tok never trips) and with ErrNonFinite if the adjoint state turns NaN/Inf.
//
// The second return value is the number of steps actually completed — equal
// to nsteps on success, smaller on an early exit — so callers can report real
// work done (floquet.Trace.Steps) rather than the configured step count.
func AdjointBackward(jac JacFunc, xs *Trajectory, t0, t1 float64, yT []float64, nsteps int, tok *budget.Token) (*Trajectory, int, error) {
	n := len(yT)
	jm := make([]float64, n*n)
	xbuf := make([]float64, n)
	loc := NewLocator(xs)
	rhs := func(t float64, y, dst []float64) {
		loc.At(t, xbuf)
		jac(t, xbuf, jm)
		// dst = −Aᵀ y
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += jm[k*n+i] * y[k]
			}
			dst[i] = -s
		}
	}
	h := (t1 - t0) / float64(nsteps)
	y := make([]float64, n)
	copy(y, yT)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)
	// The knots are filled last to first, straight into the forward-ordered
	// trajectory: each knot's state and slope are written once, into one
	// backing array shared by all knots.
	out := &Trajectory{}
	pts := out.knots(nsteps+1, n)
	store := func(idx int, t float64) {
		p := &pts[idx]
		p.T = t
		copy(p.X, y)
		rhs(t, y, p.DX)
	}
	store(nsteps, t1)
	m := odeMetrics.Get()
	for s := 0; s < nsteps; s++ {
		t := t1 - float64(s)*h
		if err := tok.Err(); err != nil {
			m.adjSteps.Add(int64(s))
			return nil, s, fmt.Errorf("ode: backward adjoint at t=%g (step %d/%d): %w", t, s+1, nsteps, err)
		}
		rk4Step(rhs, t, y, -h, y, k1, k2, k3, k4, tmp)
		if !finite(y) {
			m.adjSteps.Add(int64(s + 1))
			m.nonFinite.Inc()
			return nil, s + 1, fmt.Errorf("%w in backward adjoint at t=%g (step %d/%d)", ErrNonFinite, t, s+1, nsteps)
		}
		store(nsteps-1-s, t-h)
	}
	m.adjSteps.Add(int64(nsteps))
	checkIncreasing(pts)
	return out, nsteps, nil
}

// AdjointForward integrates ẏ = −Aᵀ(t)y forwards from t0 to t1 along the
// stored trajectory xs. This direction is numerically UNSTABLE for stable
// limit cycles (the contracting Floquet modes of the original system become
// expanding modes of the adjoint); it is provided for the Section-9
// instability demonstration and for testing. Because blow-up is the expected
// outcome being demonstrated, this loop deliberately has no non-finite guard.
func AdjointForward(jac JacFunc, xs *Trajectory, t0, t1 float64, y0 []float64, nsteps int) []float64 {
	n := len(y0)
	jm := make([]float64, n*n)
	xbuf := make([]float64, n)
	rhs := func(t float64, y, dst []float64) {
		xs.At(t, xbuf)
		jac(t, xbuf, jm)
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += jm[k*n+i] * y[k]
			}
			dst[i] = -s
		}
	}
	y := make([]float64, n)
	copy(y, y0)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)
	h := (t1 - t0) / float64(nsteps)
	for s := 0; s < nsteps; s++ {
		rk4Step(rhs, t0+float64(s)*h, y, h, y, k1, k2, k3, k4, tmp)
	}
	return y
}

// FiniteDiffJacobian returns a JacFunc that approximates ∂f/∂x by central
// differences; useful for validating analytic Jacobians and as a fallback
// for systems that do not provide one.
func FiniteDiffJacobian(f Func, n int) JacFunc {
	return func(t float64, x []float64, dst []float64) {
		xp := make([]float64, n)
		fp := make([]float64, n)
		fm := make([]float64, n)
		for j := 0; j < n; j++ {
			h := 1e-7 * (1 + math.Abs(x[j]))
			copy(xp, x)
			xp[j] = x[j] + h
			f(t, xp, fp)
			xp[j] = x[j] - h
			f(t, xp, fm)
			inv := 1 / (2 * h)
			for i := 0; i < n; i++ {
				dst[i*n+j] = (fp[i] - fm[i]) * inv
			}
		}
	}
}
