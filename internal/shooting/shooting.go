// Package shooting finds the periodic steady state (limit cycle) of an
// autonomous oscillator by the Newton shooting method (paper Section 9,
// step 1). Both the point on the cycle and the period are unknowns; a
// phase-anchor condition (orthogonality of the Newton update to the flow)
// removes the time-translation degeneracy.
package shooting

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strconv"
	"time"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/linalg"
	"repro/internal/ode"
	"repro/internal/wfloat"
)

// ErrNoConvergence is returned when Newton shooting fails to close the orbit.
var ErrNoConvergence = errors.New("shooting: Newton iteration did not converge")

// ErrIntegration tags refinable integrator-level failures surfaced through
// Find: adaptive step-size underflow, implicit-Newton divergence, and
// non-finite states from an under-resolved fixed-step integration. These are
// the failures a retry ladder can cure with more steps, tighter tolerances or
// a longer transient; the underlying ode error stays in the chain, so both
// errors.Is(err, ErrIntegration) and errors.Is(err, ode.ErrStepSizeUnderflow)
// hold. Budget cut-offs are never tagged with it.
var ErrIntegration = errors.New("shooting: trajectory integration failed")

// wrapIntegration wraps an integrator error for one named stage of Find,
// tagging refinable causes with ErrIntegration while leaving budget cut-offs
// and structural failures untagged.
func wrapIntegration(stage string, err error) error {
	if errors.Is(err, ode.ErrStepSizeUnderflow) || errors.Is(err, ode.ErrNewtonDiverged) || errors.Is(err, ode.ErrNonFinite) {
		return fmt.Errorf("shooting: %s: %w: %w", stage, ErrIntegration, err)
	}
	return fmt.Errorf("shooting: %s: %w", stage, err)
}

// Trace records per-stage diagnostics of one Find call. Attach a zero Trace
// to Options.Trace before calling Find; every field is overwritten, on
// failure as well as success, so a caller can inspect how far the solver got.
type Trace struct {
	Wall          time.Duration // total wall-clock time of Find
	TransientWall time.Duration // time spent settling onto the attractor
	TRefined      float64       // period after the closest-return scan (0 if the scan failed)
	Iters         int           // Newton iterations performed
	Residuals     []float64     // relative closure residual at the start of each iteration
	Residual      float64       // final relative closure residual
	Dampings      int           // Newton step halvings across all iterations
}

// Options configures the shooting solver.
type Options struct {
	Tol            float64 // tolerance on the orbit-error estimate residual/(1 − |μ₂|), relative to state scale (default 1e-10)
	MaxIter        int     // Newton iterations (default 50)
	StepsPerPeriod int     // RK4 steps for each period integration (default 2000)
	Transient      float64 // pre-integration time in units of the period guess (default 20)
	NoDamping      bool    // disable halving Newton steps that increase the residual (damping is on by default)
	Trace          *Trace  // optional per-stage diagnostics, filled in by Find
	// Budget, when non-nil, is polled at integrator-step granularity through
	// every stage of Find; a tripped token aborts with a wrapped
	// budget.ErrCanceled/ErrBudgetExceeded and the Trace shows how far the
	// solve got.
	Budget *budget.Token
}

// Effective returns a copy of o with every unset knob resolved to the
// solver default — the options Find actually runs with. Callers that need a
// stable identity for a solve (content-addressed result caching) fingerprint
// the effective options so "nil", "zero" and "explicitly default" hash alike.
func (o *Options) Effective() Options { return o.defaults() }

func (o *Options) defaults() Options {
	out := Options{Tol: 1e-10, MaxIter: 50, StepsPerPeriod: 2000, Transient: 20}
	if o != nil {
		if o.Tol > 0 {
			out.Tol = o.Tol
		}
		if o.MaxIter > 0 {
			out.MaxIter = o.MaxIter
		}
		if o.StepsPerPeriod > 0 {
			out.StepsPerPeriod = o.StepsPerPeriod
		}
		if o.Transient > 0 {
			out.Transient = o.Transient
		}
		out.NoDamping = o.NoDamping
		out.Trace = o.Trace
		out.Budget = o.Budget
	}
	return out
}

// PSS is a converged periodic steady state.
type PSS struct {
	X0        []float64       // point on the limit cycle
	T         float64         // period
	Orbit     *ode.Trajectory // dense solution over [0, T] starting at X0
	Monodromy *linalg.Matrix  // Φ(T, 0) linearised about the orbit
	Residual  float64         // final ‖x(T)−x0‖∞ relative to state scale
	Iters     int

	// eig keeps the monodromy eigenvalues Find computed for its stop rule,
	// so the Floquet analyses of one PSS — e.g. retry-ladder rungs that only
	// tightened downstream tolerances — do not factor Φ again. A PSS
	// reconstructed by a decoder (nil eig), or one whose Monodromy was
	// replaced, computes them fresh.
	eig *monodromyEigen
	// transient is the number of guess periods the transient integrated.
	transient float64
}

// TransientPeriods returns how many guess periods Find's transient
// integrated before Newton started: fewer than Options.Transient when the
// orbit reached its cycle first (0 for a PSS that Find did not produce).
func (p *PSS) TransientPeriods() float64 { return p.transient }

// monodromyEigen holds the eigenvalues of one monodromy matrix.
type monodromyEigen struct {
	phi  *linalg.Matrix // the matrix they belong to
	vals []complex128
	err  error
}

func newMonodromyEigen(phi *linalg.Matrix) *monodromyEigen {
	vals, err := linalg.Eigenvalues(phi)
	return &monodromyEigen{phi: phi, vals: vals, err: err}
}

// secondModulus returns |μ₂|, the largest modulus among the multipliers
// other than the one nearest 1 (0 when there is none).
func secondModulus(mult []complex128) float64 {
	near := 0
	for i, m := range mult {
		if cmplx.Abs(m-1) < cmplx.Abs(mult[near]-1) {
			near = i
		}
	}
	worst := 0.0
	for i, m := range mult {
		if a := cmplx.Abs(m); i != near && a > worst {
			worst = a
		}
	}
	return worst
}

// MonodromyEigen returns the eigenvalues of the monodromy matrix; a PSS
// produced by this package already holds them. The returned slice is a
// fresh copy, safe for the caller to reorder.
func (p *PSS) MonodromyEigen() ([]complex128, error) {
	if p.eig == nil || p.eig.phi != p.Monodromy {
		return linalg.Eigenvalues(p.Monodromy)
	}
	if p.eig.err != nil {
		return nil, p.eig.err
	}
	return append([]complex128(nil), p.eig.vals...), nil
}

// AppendJSON appends p's JSON encoding to b: byte for byte what
// encoding/json writes for a *PSS (null when p is nil), the orbit and the
// monodromy included. It fails, as encoding/json does, on a non-finite value.
func (p *PSS) AppendJSON(b []byte) ([]byte, error) {
	if p == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, `{"X0":`...)
	if b, err = wfloat.AppendFloats(b, p.X0); err != nil {
		return b, err
	}
	b = append(b, `,"T":`...)
	if b, err = wfloat.AppendFloat(b, p.T); err != nil {
		return b, err
	}
	b = append(b, `,"Orbit":`...)
	if b, err = p.Orbit.AppendJSON(b); err != nil {
		return b, err
	}
	b = append(b, `,"Monodromy":`...)
	if m := p.Monodromy; m == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, `{"Rows":`...)
		b = strconv.AppendInt(b, int64(m.Rows), 10)
		b = append(b, `,"Cols":`...)
		b = strconv.AppendInt(b, int64(m.Cols), 10)
		b = append(b, `,"Data":`...)
		if b, err = wfloat.AppendFloats(b, m.Data); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	b = append(b, `,"Residual":`...)
	if b, err = wfloat.AppendFloat(b, p.Residual); err != nil {
		return b, err
	}
	b = append(b, `,"Iters":`...)
	b = strconv.AppendInt(b, int64(p.Iters), 10)
	return append(b, '}'), nil
}

// F0 returns the oscillation frequency 1/T.
func (p *PSS) F0() float64 { return 1 / p.T }

// Omega0 returns the angular frequency 2π/T.
func (p *PSS) Omega0() float64 { return 2 * math.Pi / p.T }

// Sample returns ns+1 uniform samples of the orbit over one period
// (the last sample equals the first up to closure error).
func (p *PSS) Sample(ns int) [][]float64 {
	out := make([][]float64, ns+1)
	n := len(p.X0)
	for k := 0; k <= ns; k++ {
		buf := make([]float64, n)
		p.Orbit.At(p.T*float64(k)/float64(ns), buf)
		out[k] = buf
	}
	return out
}

// sysFunc adapts a dynsys.System to an ode.Func / ode.JacFunc pair.
func sysFunc(sys dynsys.System) (ode.Func, ode.JacFunc) {
	f := func(t float64, x, dst []float64) { sys.Eval(x, dst) }
	j := func(t float64, x []float64, dst []float64) { sys.Jacobian(x, dst) }
	return f, j
}

// Find locates the periodic steady state starting from the initial guess
// x0 and period guess tGuess. The guess is first relaxed onto the limit
// cycle by transient integration, then polished by Newton shooting on the
// bordered system
//
//	[Φ(T,0)−I  f(x(T))] [δx0]   [x0 − x(T)]
//	[ f(x0)ᵀ      0   ] [δT ] = [    0    ]
func Find(sys dynsys.System, x0 []float64, tGuess float64, opts *Options) (*PSS, error) {
	if tGuess <= 0 {
		return nil, fmt.Errorf("shooting: period guess must be positive, got %g", tGuess)
	}
	o := opts.defaults()
	tr := o.Trace
	if tr != nil {
		*tr = Trace{}
		start := time.Now()
		defer func() { tr.Wall = time.Since(start) }()
	}
	sm := shootingMetrics.Get()
	sm.finds.Inc()
	iters, dampings := 0, 0
	defer func() {
		sm.newtonIters.Add(int64(iters))
		sm.dampings.Add(int64(dampings))
	}()
	n := sys.Dim()
	if len(x0) != n {
		return nil, fmt.Errorf("shooting: x0 has length %d, want %d", len(x0), n)
	}
	f, jac := sysFunc(sys)

	x, T, periods, err := settle(f, x0, tGuess, o, tr)
	if err != nil {
		return nil, err
	}
	fx0 := make([]float64, n)
	// Reference flow magnitude on the cycle: used to reject Newton updates
	// that slide toward an equilibrium (where the residual is trivially zero
	// for any T and the method would "converge" to a spurious solution).
	sys.Eval(x, fx0)
	fRef := linalg.NormInfVec(fx0)
	if fRef == 0 {
		return nil, errors.New("shooting: initial point is an equilibrium; perturb the guess")
	}
	accept := func(p *PSS) (*PSS, error) {
		sm.converged.Inc()
		return p, nil
	}
	var lastRes float64
	bs := linalg.NewMatrix(n+1, n+1)
	rhs := make([]float64, n+1)
	// Every iteration records its orbit into the same knots; the converged
	// iteration's recording and Φ are the PSS.
	orbit := &ode.Trajectory{}
	for iter := 1; iter <= o.MaxIter; iter++ {
		if err := o.Budget.Err(); err != nil {
			return nil, fmt.Errorf("shooting: Newton iteration %d: %w", iter, err)
		}
		// Count the iteration as soon as it starts real work, so a trace from
		// a failure inside the monodromy integration still reflects it.
		iters = iter
		if tr != nil {
			tr.Iters = iter
		}
		xT, phi, verr := ode.Variational(f, jac, 0, T, x, o.StepsPerPeriod, orbit, o.Budget)
		if verr != nil {
			return nil, wrapIntegration(fmt.Sprintf("monodromy integration (iteration %d)", iter), verr)
		}
		sys.Eval(x, fx0)
		fxT := make([]float64, n)
		sys.Eval(xT, fxT)

		scale := 1 + linalg.NormInfVec(x)
		res := 0.0
		for i := 0; i < n; i++ {
			if d := math.Abs(xT[i] - x[i]); d > res {
				res = d
			}
		}
		res /= scale
		lastRes = res
		if tr != nil {
			tr.Residual = res
			tr.Residuals = append(tr.Residuals, res)
		}
		// Once the raw residual is under Tol the iterate is a solution, and
		// Newton polishes it: it goes on until residual/(1 − |μ₂|), which
		// bounds the distance to the cycle on a weakly contracting orbit, is
		// under Tol too, or until a step stops paying (the roundoff floor).
		var done *PSS
		if res < o.Tol {
			if linalg.NormInfVec(fx0) < 1e-3*fRef {
				return nil, errors.New("shooting: converged to an equilibrium, not a limit cycle")
			}
			done = &PSS{
				X0:        append([]float64(nil), x...),
				T:         T,
				Orbit:     orbit,
				Monodromy: phi,
				Residual:  res,
				Iters:     iter,
				eig:       newMonodromyEigen(phi),
				transient: periods,
			}
			if done.eig.err != nil || res < o.Tol*(1-secondModulus(done.eig.vals)) || iter == o.MaxIter {
				return accept(done)
			}
		}

		// Bordered Newton system.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := phi.At(i, j)
				if i == j {
					v -= 1
				}
				bs.Set(i, j, v)
			}
			bs.Set(i, n, fxT[i])
			rhs[i] = x[i] - xT[i]
		}
		for j := 0; j < n; j++ {
			bs.Set(n, j, fx0[j])
		}
		bs.Set(n, n, 0)
		rhs[n] = 0

		delta, err := linalg.Solve(bs, rhs)
		if err != nil {
			if done != nil {
				return accept(done)
			}
			return nil, fmt.Errorf("shooting: bordered system singular at iteration %d: %w", iter, err)
		}

		// Damped update.
		lambda := 1.0
		applied := false
		for try := 0; try < 6; try++ {
			xc := make([]float64, n)
			for i := 0; i < n; i++ {
				xc[i] = x[i] + lambda*delta[i]
			}
			Tc := T + lambda*delta[n]
			if Tc <= 0.2*tGuess || Tc > 5*tGuess {
				lambda *= 0.5
				dampings++
				if tr != nil {
					tr.Dampings++
				}
				continue
			}
			sys.Eval(xc, fx0)
			if linalg.NormInfVec(fx0) < 1e-3*fRef {
				// Candidate is collapsing onto an equilibrium.
				lambda *= 0.5
				dampings++
				if tr != nil {
					tr.Dampings++
				}
				continue
			}
			if o.NoDamping && done == nil {
				x, T = xc, Tc
				applied = true
				break
			}
			xTc, rerr := ode.RK4(f, 0, Tc, xc, o.StepsPerPeriod, o.Budget)
			if rerr != nil {
				if budget.Is(rerr) {
					return nil, fmt.Errorf("shooting: damping trial (iteration %d): %w", iter, rerr)
				}
				// A non-finite trial orbit is just a rejected candidate:
				// halve the step and keep looking.
				lambda *= 0.5
				dampings++
				if tr != nil {
					tr.Dampings++
				}
				continue
			}
			resc := 0.0
			for i := 0; i < n; i++ {
				if d := math.Abs(xTc[i] - xc[i]); d > resc {
					resc = d
				}
			}
			resc /= 1 + linalg.NormInfVec(xc)
			if resc < res {
				if done != nil && resc > res/2 {
					return accept(done) // the step does not halve the residual
				}
				x, T = xc, Tc
				applied = true
				break
			}
			lambda *= 0.5
			dampings++
			if tr != nil {
				tr.Dampings++
			}
		}
		if !applied {
			if done != nil {
				return accept(done) // no step lowers the residual
			}
			return nil, fmt.Errorf("%w: damping failed at iteration %d (residual %.3e)", ErrNoConvergence, iter, res)
		}
	}
	return nil, fmt.Errorf("%w after %d iterations (residual %.3e)", ErrNoConvergence, o.MaxIter, lastRes)
}

// settle relaxes the initial guess onto the attractor by transient
// integration and refines the period guess by a closest-return scan. It is
// Find's pre-Newton stage: the scan integrates 2.5 guess periods and takes
// the time of the closest return to x, which brings even a 10–30% period
// error within Newton's convergence basin — that matters for
// relaxation-like cycles with very stiff monodromy. The transient runs until
// its returns to a Poincaré section say the orbit is on its cycle (see
// section), at most o.Transient guess periods; settle also returns the guess
// periods it integrated.
func settle(f ode.Func, x0 []float64, tGuess float64, o Options, tr *Trace) ([]float64, float64, float64, error) {
	n := len(x0)
	// The scan's sample grid, allocated here so the section's state can
	// borrow it while the transient runs.
	const grid = 4000
	dist := make([]float64, max(grid+1, 3*n))
	sec := section{tGuess: tGuess, tol: o.Tol / 100, tStop: math.Inf(1),
		p0: dist[:n:n], nrm: dist[n : 2*n : 2*n], prev: dist[2*n : 3*n : 3*n]}
	tStart := time.Now()
	res, err := ode.DOPRI5(f, 0, o.Transient*tGuess, x0, &ode.Options{RTol: 1e-9, ATol: 1e-12, Budget: o.Budget, Step: sec.step})
	if tr != nil {
		tr.TransientWall = time.Since(tStart)
	}
	if err != nil {
		return nil, 0, 0, wrapIntegration("transient integration", err)
	}
	x, periods := res.X, o.Transient
	if sec.tEnd > 0 {
		periods = sec.tEnd / tGuess
	}

	T := tGuess
	res, err = ode.DOPRI5(f, 0, 2.5*tGuess, x, &ode.Options{RTol: 1e-10, ATol: 1e-13, Record: true, Budget: o.Budget})
	if err != nil && budget.Is(err) {
		// A numerically failed scan just falls back to tGuess, but a
		// budget cut-off must not be swallowed.
		return nil, 0, 0, fmt.Errorf("shooting: period-refinement scan: %w", err)
	}
	if err == nil {
		// Sample the dense trajectory on a fine grid and measure the
		// distance back to the starting point.
		buf := make([]float64, n)
		distAt := func(tt float64) float64 {
			res.Traj.At(tt, buf)
			for i := range buf {
				buf[i] -= x[i]
			}
			return linalg.Norm2(buf)
		}
		ts := make([]float64, grid+1)
		bestD, amp := math.Inf(1), 0.0
		for k := 0; k <= grid; k++ {
			tk := 2.5 * tGuess * float64(k) / grid
			d := distAt(tk)
			ts[k], dist[k] = tk, d
			if d > amp {
				amp = d
			}
			if tk >= 0.5*tGuess && d < bestD {
				bestD = d
			}
		}
		// Collect candidate returns: grid local minima well below the
		// orbit scale, each refined by ternary search on the dense
		// trajectory so grid quantization (≈ speed·Δt) cannot make one
		// return look spuriously closer than another.
		type candidate struct{ t, d float64 }
		var cands []candidate
		for k := 1; k < grid; k++ {
			if ts[k] < 0.5*tGuess {
				continue
			}
			if dist[k] > 0.05*amp || dist[k] > dist[k-1] || dist[k] > dist[k+1] {
				continue
			}
			lo, hi := ts[k-1], ts[k+1]
			for it := 0; it < 60; it++ {
				m1 := lo + (hi-lo)/3
				m2 := hi - (hi-lo)/3
				if distAt(m1) < distAt(m2) {
					hi = m2
				} else {
					lo = m1
				}
			}
			tm := 0.5 * (lo + hi)
			cands = append(cands, candidate{tm, distAt(tm)})
		}
		if len(cands) > 0 {
			bestD = math.Inf(1)
			for _, c := range cands {
				if c.d < bestD {
					bestD = c.d
				}
			}
			// Earliest candidate comparable to the best: the absolute
			// slack covers strongly contracting cycles, where the first
			// return is genuinely farther off-cycle than later ones yet
			// still the fundamental.
			thresh := math.Max(3*bestD, 1e-5*amp)
			for _, c := range cands {
				if c.d <= thresh {
					T = c.t
					break
				}
			}
			if tr != nil {
				tr.TRefined = T
			}
		}
	}
	return x, T, periods, nil
}

// section watches a transient's returns to the Poincaré section through p0,
// the state one guess period in, with normal f(p0). A return counts when
// the orbit crosses the section upward, lands within a tenth of the orbit's
// extent (seen so far) of p0, and comes at least half a guess period after
// the last one; its time and point are refined on the step's cubic Hermite.
//
// On a cycle whose other multipliers are μ₂…, the gap d between successive
// returns shrinks by a ratio ρ ≈ |μ₂| per period until it reaches the
// integration's floor, where it stops shrinking; the distance to the cycle
// is then about the geometric tail d·ρ/(1 − ρ), which shrinks by ρ per
// period. While the returns contract, the transient ends once that tail, at
// the slower of the last two ratios, is under tol (relative to the state
// scale). At a return that no longer contracts, the ratio of the latest
// pair still ten times above it (or, when there is none, of the two returns
// before it) extrapolates the tail, and the transient runs the whole
// periods that take it under tol. An orbit whose returns never settle, or
// that never returns near p0, runs the whole transient.
type section struct {
	tGuess, tol   float64
	p0, nrm, prev []float64 // the section's point and normal; the last return
	scale, amp    float64   // 1 + ‖p0‖∞ (0 until p0 is placed); the largest ‖x − p0‖∞ seen
	tLast         float64   // time of the last return (p0's, at first)
	returns       int
	gaps          [8]float64 // return k's distance to return k−1, relative to scale, at [k%8]
	tStop, tEnd   float64    // stop at the first step ending at or after tStop; where it stopped (0: it did not)
}

func (s *section) step(t0 float64, x0, f0 []float64, t1 float64, x1, f1 []float64) bool {
	if t1 >= s.tStop {
		s.tEnd = t1
		return true
	}
	if s.scale == 0 {
		if t1 >= s.tGuess {
			copy(s.p0, x1)
			copy(s.prev, x1)
			copy(s.nrm, f1)
			s.scale = 1 + linalg.NormInfVec(x1)
			s.tLast = t1
		}
		return false
	}
	ga, gb, fa, fb := 0.0, 0.0, 0.0, 0.0
	for i, p := range s.p0 {
		s.amp = math.Max(s.amp, math.Abs(x1[i]-p))
		ga += (x0[i] - p) * s.nrm[i]
		gb += (x1[i] - p) * s.nrm[i]
		fa += f0[i] * s.nrm[i]
		fb += f1[i] * s.nrm[i]
	}
	if !(ga < 0 && gb >= 0) {
		return false
	}
	// The crossing on the step's Hermite, g(u) = ⟨H(u) − p0, nrm⟩, by
	// bisection: g(0) < 0 ≤ g(1).
	h := t1 - t0
	fa, fb = h*fa, h*fb
	lo, hi := 0.0, 1.0
	for range 60 {
		u := 0.5 * (lo + hi)
		h00, h10, h01, h11 := hermite(u)
		if h00*ga+h10*fa+h01*gb+h11*fb < 0 {
			lo = u
		} else {
			hi = u
		}
	}
	u := 0.5 * (lo + hi)
	tr := t0 + u*h
	if tr-s.tLast < 0.5*s.tGuess {
		return false
	}
	h00, h10, h01, h11 := hermite(u)
	near := 0.0
	for i, p := range s.p0 {
		near = math.Max(near, math.Abs(h00*x0[i]+h10*h*f0[i]+h01*x1[i]+h11*h*f1[i]-p))
	}
	if near > 0.1*s.amp {
		return false
	}
	d := 0.0
	for i := range s.prev {
		v := h00*x0[i] + h10*h*f0[i] + h01*x1[i] + h11*h*f1[i]
		d = math.Max(d, math.Abs(v-s.prev[i]))
		s.prev[i] = v
	}
	d /= s.scale
	s.returns++
	k, w := s.returns, len(s.gaps)
	s.gaps[k%w] = d
	tRet := tr - s.tLast
	s.tLast = tr
	if k < 3 {
		return false
	}
	if d1, d2 := s.gaps[(k-1)%w], s.gaps[(k-2)%w]; d < d1 {
		// Still contracting: stop if the tail is already under tol, taking
		// the slower of the last two ratios, so that one return the floor's
		// noise pulled low cannot end the transient.
		rho := math.Max(d/d1, d1/d2)
		if rho < 1 && d*rho/(1-rho) <= s.tol {
			s.tEnd = t1
			return true
		}
		return false
	}
	// The returns stopped contracting: this one sits at the floor.
	rho, e := -1.0, 0.0
	for j := k - 1; j >= max(2, k-w+2); j-- {
		if dj, dp := s.gaps[j%w], s.gaps[(j-1)%w]; dj >= 10*d && dj < dp {
			rho = dj / dp
			e = dj * rho / (1 - rho) * math.Pow(rho, float64(k-j))
			break
		}
	}
	if rho < 0 {
		d1, d2 := s.gaps[(k-1)%w], s.gaps[(k-2)%w]
		if d1 >= d2 && d1 > 0 {
			return false // no contraction seen: keep watching
		}
		if d1 > 0 {
			rho = d1 / d2
			e = d1 * rho * rho / (1 - rho)
		}
	}
	m := 0.0
	if e > s.tol {
		m = math.Ceil(math.Log(s.tol/e) / math.Log(rho))
	}
	s.tStop = math.Min(s.tStop, tr+m*tRet)
	if t1 >= s.tStop {
		s.tEnd = t1
		return true
	}
	return false
}

// hermite returns the cubic Hermite basis at u ∈ [0, 1].
func hermite(u float64) (h00, h10, h01, h11 float64) {
	u2 := u * u
	u3 := u2 * u
	return 2*u3 - 3*u2 + 1, u3 - 2*u2 + u, -2*u3 + 3*u2, u3 - u2
}

// EstimatePeriod integrates the system for tMax and estimates the oscillation
// period from successive upward mean-crossings of the state component with
// the largest swing. Returns the period estimate and a point on the
// (approximate) cycle at a crossing instant. Fails if fewer than three
// crossings are seen.
func EstimatePeriod(sys dynsys.System, x0 []float64, tMax float64) (float64, []float64, error) {
	return EstimatePeriodBudget(sys, x0, tMax, nil)
}

// EstimatePeriodBudget is EstimatePeriod under a cancellation/budget token:
// the transient integration is polled per step and cut off with a wrapped
// budget error when tok trips.
func EstimatePeriodBudget(sys dynsys.System, x0 []float64, tMax float64, tok *budget.Token) (float64, []float64, error) {
	f, _ := sysFunc(sys)
	res, err := ode.DOPRI5(f, 0, tMax, x0, &ode.Options{RTol: 1e-8, ATol: 1e-11, Record: true, Budget: tok})
	if err != nil {
		return 0, nil, wrapIntegration("period-estimation integration", err)
	}
	pts := res.Traj.Points
	if len(pts) < 10 {
		return 0, nil, errors.New("shooting: trajectory too short to estimate a period")
	}
	n := sys.Dim()
	// Use the second half (transient decayed) and pick the liveliest component.
	half := len(pts) / 2
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := 0; i < n; i++ {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range pts[half:] {
		for i := 0; i < n; i++ {
			lo[i] = math.Min(lo[i], p.X[i])
			hi[i] = math.Max(hi[i], p.X[i])
		}
	}
	comp, swing := 0, 0.0
	for i := 0; i < n; i++ {
		if s := hi[i] - lo[i]; s > swing {
			comp, swing = i, s
		}
	}
	if swing == 0 {
		return 0, nil, errors.New("shooting: no oscillation detected (zero swing)")
	}
	mid := 0.5 * (lo[comp] + hi[comp])
	// Upward crossings of mid, with linear-interpolated crossing times.
	var crossings []float64
	var xAt []float64
	for k := half + 1; k < len(pts); k++ {
		a, b := pts[k-1], pts[k]
		if a.X[comp] < mid && b.X[comp] >= mid {
			frac := (mid - a.X[comp]) / (b.X[comp] - a.X[comp])
			tc := a.T + frac*(b.T-a.T)
			crossings = append(crossings, tc)
			if xAt == nil {
				xAt = make([]float64, n)
				res.Traj.At(tc, xAt)
			}
		}
	}
	if len(crossings) < 3 {
		return 0, nil, fmt.Errorf("shooting: only %d mean-crossings in %g time units; increase tMax", len(crossings), tMax)
	}
	// Average of successive crossing intervals.
	sum := 0.0
	for k := 1; k < len(crossings); k++ {
		sum += crossings[k] - crossings[k-1]
	}
	return sum / float64(len(crossings)-1), xAt, nil
}
