// Package ode provides the deterministic initial-value-problem integrators
// used by the phase-noise pipeline: a fixed-step classical RK4, an adaptive
// Dormand–Prince 5(4) pair with PI step-size control and dense output, and an
// A-stable implicit trapezoidal method with a damped Newton corrector for
// stiff circuit equations. It also integrates the joint state + variational
// (state-transition-matrix) system needed for monodromy computation.
package ode

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/wfloat"
)

// Func is the right-hand side of an autonomous-friendly ODE ẋ = f(t, x).
// The result is written into dst (len == len(x)).
type Func func(t float64, x, dst []float64)

// JacFunc evaluates the Jacobian ∂f/∂x at (t, x) into dst (n×n row-major).
type JacFunc func(t float64, x []float64, dst []float64)

// ErrStepSizeUnderflow is returned when the adaptive controller cannot meet
// the tolerance without the step size collapsing below the resolvable limit.
var ErrStepSizeUnderflow = errors.New("ode: step size underflow")

// ErrNewtonDiverged is returned when the implicit corrector fails.
var ErrNewtonDiverged = errors.New("ode: Newton iteration diverged")

// ErrNonFinite is returned when an integrator state turns NaN or ±Inf. The
// fixed-step integrators check after every step, so a model that leaves its
// validity range is caught within one step instead of marching garbage to the
// end of the interval.
var ErrNonFinite = errors.New("ode: non-finite state")

// finite reports whether every entry of x is a finite float64.
// (x-x != 0 catches both NaN and ±Inf with a single arithmetic op.)
func finite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// Stepper carries the scratch buffers of repeated single RK4 steps, so a
// caller-driven stepping loop allocates once instead of five slices per step.
// A Stepper is sized for one state dimension and is not safe for concurrent
// use; give each goroutine its own.
type Stepper struct {
	k1, k2, k3, k4, tmp []float64
}

// NewStepper returns a Stepper for n-dimensional states.
func NewStepper(n int) *Stepper {
	return &Stepper{
		k1:  make([]float64, n),
		k2:  make([]float64, n),
		k3:  make([]float64, n),
		k4:  make([]float64, n),
		tmp: make([]float64, n),
	}
}

// Step advances x by one classical Runge–Kutta 4 step of size h, writing the
// result into xout (may alias x). It performs no allocations (guarded by
// TestStepperZeroAllocs). len(x) must match the dimension the Stepper was
// built for.
func (s *Stepper) Step(f Func, t float64, x []float64, h float64, xout []float64) {
	rk4Step(f, t, x, h, xout, s.k1, s.k2, s.k3, s.k4, s.tmp)
}

// RK4Step advances x by one classical Runge–Kutta 4 step of size h,
// writing the result into xout (may alias x). Scratch slices are allocated
// internally; stepping loops should hold a Stepper (or use RK4) so the per
// step cost is pure arithmetic.
func RK4Step(f Func, t float64, x []float64, h float64, xout []float64) {
	NewStepper(len(x)).Step(f, t, x, h, xout)
}

func rk4Step(f Func, t float64, x []float64, h float64, xout, k1, k2, k3, k4, tmp []float64) {
	n := len(x)
	f(t, x, k1)
	for i := 0; i < n; i++ {
		tmp[i] = x[i] + 0.5*h*k1[i]
	}
	f(t+0.5*h, tmp, k2)
	for i := 0; i < n; i++ {
		tmp[i] = x[i] + 0.5*h*k2[i]
	}
	f(t+0.5*h, tmp, k3)
	for i := 0; i < n; i++ {
		tmp[i] = x[i] + h*k3[i]
	}
	f(t+h, tmp, k4)
	for i := 0; i < n; i++ {
		xout[i] = x[i] + h/6*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
}

// RK4 integrates ẋ = f from t0 to t1 with nsteps fixed steps, returning the
// final state. x0 is not modified. The integration is cut off with a wrapped
// budget error when tok trips (nil tok never trips) and with ErrNonFinite as
// soon as the state turns NaN/Inf. Both failure exits use the same
// convention: the reported step is the 1-indexed step that did not complete,
// and the reported t is the time of the last valid state (the start of that
// step).
func RK4(f Func, t0, t1 float64, x0 []float64, nsteps int, tok *budget.Token) ([]float64, error) {
	if nsteps <= 0 {
		panic("ode: RK4 requires nsteps > 0")
	}
	n := len(x0)
	x := make([]float64, n)
	copy(x, x0)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)
	h := (t1 - t0) / float64(nsteps)
	m := odeMetrics.Get()
	for s := 0; s < nsteps; s++ {
		t := t0 + float64(s)*h
		if err := tok.Err(); err != nil {
			m.rk4Steps.Add(int64(s))
			return nil, fmt.Errorf("ode: RK4 at t=%g (step %d/%d): %w", t, s+1, nsteps, err)
		}
		rk4Step(f, t, x, h, x, k1, k2, k3, k4, tmp)
		if !finite(x) {
			m.rk4Steps.Add(int64(s + 1))
			m.nonFinite.Inc()
			return nil, fmt.Errorf("%w in RK4 at t=%g (step %d/%d)", ErrNonFinite, t, s+1, nsteps)
		}
	}
	m.rk4Steps.Add(int64(nsteps))
	return x, nil
}

// SamplePoint is one stored knot of a trajectory: state and derivative at t,
// enabling cubic Hermite interpolation between knots.
type SamplePoint struct {
	T  float64
	X  []float64
	DX []float64
}

// Trajectory is a time-ordered sequence of sample points supporting C¹
// cubic-Hermite interpolation. Knots must be strictly increasing in T.
type Trajectory struct {
	Points []SamplePoint
}

// Append adds a knot (copies x and dx).
func (tr *Trajectory) Append(t float64, x, dx []float64) {
	tr.appendFrom(nil, t, x, dx)
}

// knotChunks hands out the storage of recorded knots in chunks that double
// in size, so a run recording N knots makes O(log N) allocations instead of
// two per knot.
type knotChunks struct {
	free []float64 // the current chunk's unused tail
	next int       // the next chunk's length
}

// appendFrom is Append with the copies of x and dx cut from c (nil: their
// own allocations). Each knot's X and DX are capped, as Trajectory.knots
// caps them, so an append to one can never write into its neighbour.
func (tr *Trajectory) appendFrom(c *knotChunks, t float64, x, dx []float64) {
	if k := len(tr.Points); k > 0 && t <= tr.Points[k-1].T {
		panic(fmt.Sprintf("ode: non-increasing trajectory knot %g after %g", t, tr.Points[k-1].T))
	}
	nx, nd := len(x), len(dx)
	var v []float64
	if c == nil {
		v = make([]float64, nx+nd)
	} else {
		if len(c.free) < nx+nd {
			c.next = max(2*c.next, 64*(nx+nd))
			c.free = make([]float64, c.next)
		}
		v, c.free = c.free[:nx+nd:nx+nd], c.free[nx+nd:]
	}
	copy(v, x)
	copy(v[nx:], dx)
	tr.Points = append(tr.Points, SamplePoint{T: t, X: v[:nx:nx], DX: v[nx:]})
}

// AppendJSON appends tr's JSON encoding to b: byte for byte what
// encoding/json writes for a *Trajectory (null when tr is nil). It fails,
// as encoding/json does, on a non-finite knot value.
func (tr *Trajectory) AppendJSON(b []byte) ([]byte, error) {
	switch {
	case tr == nil:
		return append(b, "null"...), nil
	case tr.Points == nil:
		return append(b, `{"Points":null}`...), nil
	}
	b = append(b, `{"Points":[`...)
	var err error
	for i := range tr.Points {
		p := &tr.Points[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"T":`...)
		if b, err = wfloat.AppendFloat(b, p.T); err != nil {
			return b, err
		}
		b = append(b, `,"X":`...)
		if b, err = wfloat.AppendFloats(b, p.X); err != nil {
			return b, err
		}
		b = append(b, `,"DX":`...)
		if b, err = wfloat.AppendFloats(b, p.DX); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// Span returns the time interval covered by the trajectory.
func (tr *Trajectory) Span() (t0, t1 float64) {
	if len(tr.Points) == 0 {
		return 0, 0
	}
	return tr.Points[0].T, tr.Points[len(tr.Points)-1].T
}

// At evaluates the trajectory at time t by cubic Hermite interpolation,
// writing into dst. t is clamped to the covered span.
func (tr *Trajectory) At(t float64, dst []float64) {
	pts := tr.Points
	if len(pts) == 0 {
		panic("ode: empty trajectory")
	}
	if t <= pts[0].T {
		copy(dst, pts[0].X)
		return
	}
	if t >= pts[len(pts)-1].T {
		copy(dst, pts[len(pts)-1].X)
		return
	}
	// Binary search for the bracketing segment.
	lo, hi := 0, len(pts)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pts[mid].T <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := pts[lo], pts[hi]
	h := b.T - a.T
	s := (t - a.T) / h
	// Hermite basis.
	s2 := s * s
	s3 := s2 * s
	h00 := 2*s3 - 3*s2 + 1
	h10 := s3 - 2*s2 + s
	h01 := -2*s3 + 3*s2
	h11 := s3 - s2
	for i := range dst {
		dst[i] = h00*a.X[i] + h10*h*a.DX[i] + h01*b.X[i] + h11*h*b.DX[i]
	}
}

// Deriv evaluates the time derivative of the interpolant at t into dst.
func (tr *Trajectory) Deriv(t float64, dst []float64) {
	pts := tr.Points
	if len(pts) == 0 {
		panic("ode: empty trajectory")
	}
	if t <= pts[0].T {
		copy(dst, pts[0].DX)
		return
	}
	if t >= pts[len(pts)-1].T {
		copy(dst, pts[len(pts)-1].DX)
		return
	}
	lo, hi := 0, len(pts)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pts[mid].T <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := pts[lo], pts[hi]
	h := b.T - a.T
	s := (t - a.T) / h
	s2 := s * s
	dh00 := (6*s2 - 6*s) / h
	dh10 := 3*s2 - 4*s + 1
	dh01 := (-6*s2 + 6*s) / h
	dh11 := 3*s2 - 2*s
	for i := range dst {
		dst[i] = dh00*a.X[i] + dh10*a.DX[i] + dh01*b.X[i] + dh11*b.DX[i]
	}
}

// Locator is an O(1) segment finder over a (near-)uniform trajectory,
// replacing the per-call binary search of Trajectory.At in hot interpolation
// loops (the c quadrature, the adjoint renormalisation pass). It locates
// exactly the same bracketing segment as the binary search and runs the same
// Hermite arithmetic, so its results are bit-identical; non-uniform
// trajectories fall back to Trajectory.At. Build one outside the loop: the
// constructor scans the knots once.
type Locator struct {
	tr      *Trajectory
	first   float64
	h       float64
	uniform bool
}

func NewLocator(tr *Trajectory) Locator {
	lc := Locator{tr: tr}
	pts := tr.Points
	if len(pts) < 2 {
		return lc
	}
	first := pts[0].T
	h := (pts[len(pts)-1].T - first) / float64(len(pts)-1)
	if h <= 0 || h-h != 0 {
		return lc
	}
	// Fixed-step recordings accumulate knot times as s·h + h, which drifts
	// from first + i·h by at most a few thousand ulps — far inside this
	// tolerance. Anything worse (adaptive output, hand-built knots) keeps
	// the binary-search path.
	tol := 1e-6 * h
	for i := range pts {
		if math.Abs(pts[i].T-(first+float64(i)*h)) > tol {
			return lc
		}
	}
	lc.first, lc.h, lc.uniform = first, h, true
	return lc
}

// At evaluates the trajectory at t into dst, bit-identical to tr.At(t, dst).
func (lc *Locator) At(t float64, dst []float64) {
	if !lc.uniform {
		lc.tr.At(t, dst)
		return
	}
	pts := lc.tr.Points
	if t <= pts[0].T {
		copy(dst, pts[0].X)
		return
	}
	if t >= pts[len(pts)-1].T {
		copy(dst, pts[len(pts)-1].X)
		return
	}
	lo := int((t - lc.first) / lc.h)
	if lo < 0 {
		lo = 0
	}
	if lo > len(pts)-2 {
		lo = len(pts) - 2
	}
	for lo < len(pts)-2 && pts[lo+1].T <= t {
		lo++
	}
	for lo > 0 && pts[lo].T > t {
		lo--
	}
	a, b := pts[lo], pts[lo+1]
	h := b.T - a.T
	s := (t - a.T) / h
	s2 := s * s
	s3 := s2 * s
	h00 := 2*s3 - 3*s2 + 1
	h10 := s3 - 2*s2 + s
	h01 := -2*s3 + 3*s2
	h11 := s3 - s2
	for i := range dst {
		dst[i] = h00*a.X[i] + h10*h*a.DX[i] + h01*b.X[i] + h11*h*b.DX[i]
	}
}

// Options configures the adaptive integrators.
type Options struct {
	RTol     float64 // relative tolerance (default 1e-9)
	ATol     float64 // absolute tolerance (default 1e-12)
	InitStep float64 // initial step (default: estimated)
	MaxStep  float64 // maximum step (default: interval length)
	MaxSteps int     // step budget (default 10_000_000)
	Record   bool    // store the solution as a dense Trajectory
	// Budget, when non-nil, is polled once per trial step; a tripped token
	// aborts the integration with a wrapped ErrCanceled/ErrBudgetExceeded.
	Budget *budget.Token
	// Step, when non-nil, is called by DOPRI5 after every accepted step
	// with the step's start (t0, x0, f0 = f(t0, x0)) and end (t1, x1, f1):
	// the data of the step's cubic Hermite. The slices are the integrator's
	// own and valid only during the call. Returning true ends the
	// integration at t1, with x1 as Result.X.
	Step func(t0 float64, x0, f0 []float64, t1 float64, x1, f1 []float64) (stop bool)
}

func (o *Options) defaults(t0, t1 float64) Options {
	out := Options{RTol: 1e-9, ATol: 1e-12, MaxSteps: 10_000_000}
	if o != nil {
		if o.RTol > 0 {
			out.RTol = o.RTol
		}
		if o.ATol > 0 {
			out.ATol = o.ATol
		}
		out.InitStep = o.InitStep
		out.MaxStep = o.MaxStep
		if o.MaxSteps > 0 {
			out.MaxSteps = o.MaxSteps
		}
		out.Record = o.Record
		out.Budget = o.Budget
		out.Step = o.Step
	}
	if out.MaxStep <= 0 {
		out.MaxStep = math.Abs(t1 - t0)
	}
	return out
}

// Result reports an adaptive integration outcome.
type Result struct {
	X        []float64   // final state
	Steps    int         // accepted steps
	Rejected int         // rejected trial steps
	Traj     *Trajectory // dense output if Options.Record
}

// Dormand–Prince 5(4) coefficients.
var (
	dpC = [7]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpA = [7][6]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	dpB = [7]float64{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0}
	dpE = [7]float64{ // b - b̂ (error estimator)
		71.0 / 57600, 0, -71.0 / 16695, 71.0 / 1920, -17253.0 / 339200, 22.0 / 525, -1.0 / 40,
	}
)

// DOPRI5 integrates ẋ = f from t0 to t1 (t1 > t0) with the Dormand–Prince
// 5(4) adaptive pair, or until Options.Step ends it earlier. x0 is not
// modified.
func DOPRI5(f Func, t0, t1 float64, x0 []float64, opts *Options) (*Result, error) {
	res, err := dopri5(f, t0, t1, x0, opts)
	m := odeMetrics.Get()
	m.dopri5Steps.Add(int64(res.Steps))
	m.dopri5Rejected.Add(int64(res.Rejected))
	if err != nil {
		if errors.Is(err, ErrNonFinite) {
			m.nonFinite.Inc()
		}
		return nil, err
	}
	return res, nil
}

// dopri5 is the DOPRI5 body; it always returns a non-nil Result so the
// wrapper can account partial work (accepted/rejected steps) on failure too.
func dopri5(f Func, t0, t1 float64, x0 []float64, opts *Options) (*Result, error) {
	if t1 <= t0 {
		return &Result{}, fmt.Errorf("ode: DOPRI5 requires t1 > t0 (got %g..%g)", t0, t1)
	}
	o := opts.defaults(t0, t1)
	n := len(x0)
	x := make([]float64, n)
	copy(x, x0)
	k := make([][]float64, 7)
	for i := range k {
		k[i] = make([]float64, n)
	}
	tmp := make([]float64, n)
	xnew := make([]float64, n)
	res := &Result{}
	var knots knotChunks
	if o.Record {
		res.Traj = &Trajectory{}
		f(t0, x, k[0])
		res.Traj.appendFrom(&knots, t0, x, k[0])
	}

	t := t0
	h := o.InitStep
	if h <= 0 {
		h = initialStep(f, t0, x, o)
	}
	if h > o.MaxStep {
		h = o.MaxStep
	}
	const (
		minScale = 0.2
		maxScale = 5.0
		safety   = 0.9
	)
	prevErr := 1.0
	firstStage := true
	for t < t1 {
		if err := o.Budget.Err(); err != nil {
			return res, fmt.Errorf("ode: DOPRI5 at t=%g after %d steps: %w", t, res.Steps, err)
		}
		if res.Steps+res.Rejected > o.MaxSteps {
			return res, fmt.Errorf("ode: exceeded %d steps at t=%g", o.MaxSteps, t)
		}
		if h < 1e-14*(math.Abs(t)+1) {
			return res, fmt.Errorf("%w at t=%g (h=%g)", ErrStepSizeUnderflow, t, h)
		}
		// A NaN step size (vector field non-finite at the very first state,
		// poisoning the initial-step estimate) fails every comparison above
		// and would otherwise grind through MaxSteps rejected steps.
		if h-h != 0 {
			return res, fmt.Errorf("%w: DOPRI5 step size %g at t=%g (vector field non-finite?)", ErrNonFinite, h, t)
		}
		if t+h > t1 {
			h = t1 - t
		}
		// FSAL: k[0] holds f(t, x) from the previous accepted step.
		if firstStage {
			f(t, x, k[0])
			firstStage = false
		}
		for s := 1; s < 7; s++ {
			for i := 0; i < n; i++ {
				acc := x[i]
				for j := 0; j < s; j++ {
					if dpA[s][j] != 0 {
						acc += h * dpA[s][j] * k[j][i]
					}
				}
				tmp[i] = acc
			}
			f(t+dpC[s]*h, tmp, k[s])
		}
		// 5th-order solution and embedded error estimate.
		errNorm := 0.0
		for i := 0; i < n; i++ {
			acc := x[i]
			e := 0.0
			for s := 0; s < 7; s++ {
				if dpB[s] != 0 {
					acc += h * dpB[s] * k[s][i]
				}
				if dpE[s] != 0 {
					e += h * dpE[s] * k[s][i]
				}
			}
			xnew[i] = acc
			sc := o.ATol + o.RTol*math.Max(math.Abs(x[i]), math.Abs(acc))
			r := e / sc
			errNorm += r * r
		}
		errNorm = math.Sqrt(errNorm / float64(n))
		if math.IsNaN(errNorm) || math.IsInf(errNorm, 0) {
			errNorm = 10 // force rejection and shrink
		}
		if errNorm <= 1 {
			// Accept. k[6] = f(t+h, xnew) is the FSAL stage.
			stop := o.Step != nil && o.Step(t, x, k[0], t+h, xnew, k[6])
			t += h
			copy(x, xnew)
			copy(k[0], k[6])
			res.Steps++
			if o.Record {
				res.Traj.appendFrom(&knots, t, x, k[0])
			}
			if stop {
				break
			}
			// PI controller (Gustafsson).
			scale := safety * math.Pow(errNorm, -0.7/5) * math.Pow(prevErr, 0.4/5)
			if scale < minScale {
				scale = minScale
			}
			if scale > maxScale {
				scale = maxScale
			}
			prevErr = math.Max(errNorm, 1e-4)
			h *= scale
			if h > o.MaxStep {
				h = o.MaxStep
			}
		} else {
			res.Rejected++
			scale := safety * math.Pow(errNorm, -1.0/5)
			if scale < minScale {
				scale = minScale
			}
			h *= scale
			firstStage = true // k[0] no longer matches a fresh (t, x)... recompute
		}
	}
	res.X = x
	return res, nil
}

// initialStep estimates a safe initial step (Hairer–Nørsett–Wanner, alg. II.4).
func initialStep(f Func, t0 float64, x0 []float64, o Options) float64 {
	n := len(x0)
	f0 := make([]float64, n)
	f(t0, x0, f0)
	d0, d1 := 0.0, 0.0
	for i := 0; i < n; i++ {
		sc := o.ATol + o.RTol*math.Abs(x0[i])
		d0 += (x0[i] / sc) * (x0[i] / sc)
		d1 += (f0[i] / sc) * (f0[i] / sc)
	}
	d0 = math.Sqrt(d0 / float64(n))
	d1 = math.Sqrt(d1 / float64(n))
	var h0 float64
	if d0 < 1e-5 || d1 < 1e-5 {
		h0 = 1e-6
	} else {
		h0 = 0.01 * d0 / d1
	}
	// One explicit Euler step to estimate the second derivative.
	x1 := make([]float64, n)
	for i := range x1 {
		x1[i] = x0[i] + h0*f0[i]
	}
	f1 := make([]float64, n)
	f(t0+h0, x1, f1)
	d2 := 0.0
	for i := 0; i < n; i++ {
		sc := o.ATol + o.RTol*math.Abs(x0[i])
		df := (f1[i] - f0[i]) / sc
		d2 += df * df
	}
	d2 = math.Sqrt(d2/float64(n)) / h0
	dm := math.Max(d1, d2)
	var h1 float64
	if dm <= 1e-15 {
		h1 = math.Max(1e-6, h0*1e-3)
	} else {
		h1 = math.Pow(0.01/dm, 1.0/5)
	}
	return math.Min(100*h0, h1)
}
