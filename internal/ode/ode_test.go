package ode

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/budget"
	"repro/internal/linalg"
	"repro/internal/osc"
)

// Exponential decay: ẋ = −x, x(0)=1 → x(t) = e^{-t}.
func decay(t float64, x, dst []float64) { dst[0] = -x[0] }

// rk4 / vari / adjBack run the budget-aware integrators with a nil token,
// panicking on error — for well-posed test problems where failure is a bug.
func rk4(f Func, t0, t1 float64, x0 []float64, nsteps int) []float64 {
	x, err := RK4(f, t0, t1, x0, nsteps, nil)
	if err != nil {
		panic(err)
	}
	return x
}

func vari(f Func, jac JacFunc, t0, t1 float64, x0 []float64, nsteps int, rec *Trajectory) ([]float64, *linalg.Matrix) {
	xf, phi, err := Variational(f, jac, t0, t1, x0, nsteps, rec, nil)
	if err != nil {
		panic(err)
	}
	return xf, phi
}

func adjBack(jac JacFunc, xs *Trajectory, t0, t1 float64, yT []float64, nsteps int) *Trajectory {
	tr, _, err := AdjointBackward(jac, xs, t0, t1, yT, nsteps, nil)
	if err != nil {
		panic(err)
	}
	return tr
}

// Harmonic oscillator: ẋ = y, ẏ = −ω²x.
func harmonic(omega float64) Func {
	return func(t float64, x, dst []float64) {
		dst[0] = x[1]
		dst[1] = -omega * omega * x[0]
	}
}

func harmonicJac(omega float64) JacFunc {
	return func(t float64, x []float64, dst []float64) {
		dst[0], dst[1] = 0, 1
		dst[2], dst[3] = -omega*omega, 0
	}
}

func TestRK4Decay(t *testing.T) {
	x := rk4(decay, 0, 1, []float64{1}, 100)
	want := math.Exp(-1)
	if math.Abs(x[0]-want) > 1e-9 {
		t.Fatalf("x(1) = %g, want %g", x[0], want)
	}
}

func TestRK4FourthOrderConvergence(t *testing.T) {
	// Halving h should reduce the error by ~2⁴.
	errAt := func(nsteps int) float64 {
		x := rk4(decay, 0, 1, []float64{1}, nsteps)
		return math.Abs(x[0] - math.Exp(-1))
	}
	e1 := errAt(10)
	e2 := errAt(20)
	ratio := e1 / e2
	if ratio < 12 || ratio > 20 {
		t.Fatalf("convergence ratio %g, want ≈16", ratio)
	}
}

func TestRK4StepMatchesRK4(t *testing.T) {
	x := []float64{1}
	out := make([]float64, 1)
	RK4Step(decay, 0, x, 0.1, out)
	want := rk4(decay, 0, 0.1, []float64{1}, 1)
	if out[0] != want[0] {
		t.Fatalf("RK4Step %g != RK4 %g", out[0], want[0])
	}
}

func TestRK4HarmonicEnergyConservation(t *testing.T) {
	f := harmonic(2)
	x := rk4(f, 0, 2*math.Pi, []float64{1, 0}, 20000)
	// After one period of cos(2t): x(π) ... period is π for ω=2. 2π = 2 periods.
	if math.Abs(x[0]-1) > 1e-8 || math.Abs(x[1]) > 1e-7 {
		t.Fatalf("after integral periods: %v, want [1 0]", x)
	}
}

func TestDOPRI5Decay(t *testing.T) {
	res, err := DOPRI5(decay, 0, 5, []float64{1}, &Options{RTol: 1e-10, ATol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-5)
	if math.Abs(res.X[0]-want) > 1e-10 {
		t.Fatalf("x(5) = %g, want %g", res.X[0], want)
	}
	if res.Steps == 0 {
		t.Fatal("no steps taken")
	}
}

func TestDOPRI5Harmonic(t *testing.T) {
	omega := 3.0
	res, err := DOPRI5(harmonic(omega), 0, 10, []float64{1, 0}, &Options{RTol: 1e-11, ATol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	wantX := math.Cos(omega * 10)
	wantY := -omega * math.Sin(omega*10)
	if math.Abs(res.X[0]-wantX) > 1e-7 || math.Abs(res.X[1]-wantY) > 1e-6 {
		t.Fatalf("got %v, want [%g %g]", res.X, wantX, wantY)
	}
}

func TestDOPRI5RejectsBadInterval(t *testing.T) {
	if _, err := DOPRI5(decay, 1, 1, []float64{1}, nil); err == nil {
		t.Fatal("expected error for empty interval")
	}
	if _, err := DOPRI5(decay, 2, 1, []float64{1}, nil); err == nil {
		t.Fatal("expected error for reversed interval")
	}
}

func TestDOPRI5StepBudget(t *testing.T) {
	_, err := DOPRI5(harmonic(1), 0, 1000, []float64{1, 0}, &Options{RTol: 1e-12, ATol: 1e-14, MaxSteps: 10})
	if err == nil {
		t.Fatal("expected step-budget error")
	}
}

func TestDOPRI5DenseOutput(t *testing.T) {
	res, err := DOPRI5(harmonic(1), 0, 2*math.Pi, []float64{1, 0}, &Options{RTol: 1e-10, ATol: 1e-12, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traj == nil || len(res.Traj.Points) < 3 {
		t.Fatal("no dense output recorded")
	}
	// Interpolated solution should match cos(t) everywhere to interpolation order.
	buf := make([]float64, 2)
	for _, tt := range []float64{0.1, 1.0, 2.5, 4.0, 6.0} {
		res.Traj.At(tt, buf)
		if math.Abs(buf[0]-math.Cos(tt)) > 1e-5 {
			t.Fatalf("traj(%g)[0] = %g, want %g", tt, buf[0], math.Cos(tt))
		}
	}
	// Derivative interpolation.
	res.Traj.Deriv(1.5, buf)
	if math.Abs(buf[0]+math.Sin(1.5)) > 1e-4 {
		t.Fatalf("traj'(1.5)[0] = %g, want %g", buf[0], -math.Sin(1.5))
	}
}

// TestDOPRI5RecordAllocsLogarithmic: recording N accepted steps allocates
// the knots' storage in chunks, O(log N) allocations in all, where one
// allocation per knot would make thousands. Each knot's slices are capped,
// so growing one cannot overwrite its neighbour.
func TestDOPRI5RecordAllocsLogarithmic(t *testing.T) {
	for _, periods := range []float64{1, 16} {
		opts := &Options{Record: true, MaxStep: 0.01}
		var steps int
		allocs := testing.AllocsPerRun(3, func() {
			res, err := DOPRI5(harmonic(1), 0, periods*2*math.Pi, []float64{1, 0}, opts)
			if err != nil {
				t.Fatal(err)
			}
			steps = res.Steps
		})
		if limit := 4*math.Log2(float64(steps)) + 24; allocs > limit {
			t.Fatalf("%d recorded steps: %v allocs, want at most %.0f", steps, allocs, limit)
		}
	}
	res, err := DOPRI5(harmonic(1), 0, 1, []float64{1, 0}, &Options{Record: true, MaxStep: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Traj.Points
	if cap(p[0].X) != 2 || cap(p[0].DX) != 2 {
		t.Fatalf("knot slices of capacity %d and %d, want 2", cap(p[0].X), cap(p[0].DX))
	}
	_ = append(p[0].X, 9)
	_ = append(p[0].DX, 9)
	if p[0].DX[0] != 0 || p[1].X[0] == 9 {
		t.Fatal("an append to one knot wrote into its neighbour")
	}
}

func TestTrajectoryClamping(t *testing.T) {
	tr := &Trajectory{}
	tr.Append(0, []float64{1}, []float64{0})
	tr.Append(1, []float64{2}, []float64{0})
	buf := make([]float64, 1)
	tr.At(-5, buf)
	if buf[0] != 1 {
		t.Fatalf("left clamp = %g", buf[0])
	}
	tr.At(7, buf)
	if buf[0] != 2 {
		t.Fatalf("right clamp = %g", buf[0])
	}
	t0, t1 := tr.Span()
	if t0 != 0 || t1 != 1 {
		t.Fatalf("span = %g..%g", t0, t1)
	}
}

func TestTrajectoryRejectsNonIncreasing(t *testing.T) {
	tr := &Trajectory{}
	tr.Append(0, []float64{1}, []float64{0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-increasing knot")
		}
	}()
	tr.Append(0, []float64{1}, []float64{0})
}

func TestTrajectoryHermiteExactForCubic(t *testing.T) {
	// Hermite interpolation is exact for cubics: x(t) = t³ − 2t² + 3.
	x := func(tt float64) float64 { return tt*tt*tt - 2*tt*tt + 3 }
	dx := func(tt float64) float64 { return 3*tt*tt - 4*tt }
	tr := &Trajectory{}
	for _, tt := range []float64{0, 1.5, 4} {
		tr.Append(tt, []float64{x(tt)}, []float64{dx(tt)})
	}
	buf := make([]float64, 1)
	for _, tt := range []float64{0.2, 0.9, 2.0, 3.7} {
		tr.At(tt, buf)
		if math.Abs(buf[0]-x(tt)) > 1e-12 {
			t.Fatalf("hermite(%g) = %g, want %g", tt, buf[0], x(tt))
		}
		tr.Deriv(tt, buf)
		if math.Abs(buf[0]-dx(tt)) > 1e-11 {
			t.Fatalf("hermite'(%g) = %g, want %g", tt, buf[0], dx(tt))
		}
	}
}

func TestTrapezoidalDecay(t *testing.T) {
	jac := func(tt float64, x []float64, dst []float64) { dst[0] = -1 }
	res, err := Trapezoidal(decay, jac, 0, 1, []float64{1}, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-math.Exp(-1)) > 1e-6 {
		t.Fatalf("x(1) = %g", res.X[0])
	}
}

func TestTrapezoidalStiff(t *testing.T) {
	// Very stiff linear problem: ẋ = −10⁶(x − cos t) − sin t, solution x = cos t.
	f := func(tt float64, x, dst []float64) {
		dst[0] = -1e6*(x[0]-math.Cos(tt)) - math.Sin(tt)
	}
	jac := func(tt float64, x []float64, dst []float64) { dst[0] = -1e6 }
	res, err := Trapezoidal(f, jac, 0, 1, []float64{1}, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-math.Cos(1)) > 1e-4 {
		t.Fatalf("stiff x(1) = %g, want %g", res.X[0], math.Cos(1))
	}
}

func TestTrapezoidalSecondOrderConvergence(t *testing.T) {
	jac := func(tt float64, x []float64, dst []float64) { dst[0] = -1 }
	errAt := func(n int) float64 {
		res, err := Trapezoidal(decay, jac, 0, 1, []float64{1}, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.X[0] - math.Exp(-1))
	}
	ratio := errAt(50) / errAt(100)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("trapezoidal convergence ratio %g, want ≈4", ratio)
	}
}

func TestTrapezoidalRecord(t *testing.T) {
	jac := func(tt float64, x []float64, dst []float64) { dst[0] = -1 }
	res, err := Trapezoidal(decay, jac, 0, 1, []float64{1}, 10, &TrapezoidalOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traj == nil || len(res.Traj.Points) != 11 {
		t.Fatalf("expected 11 knots, got %v", res.Traj)
	}
}

func TestVariationalLinearSystem(t *testing.T) {
	// For the harmonic oscillator the STM is the rotation-like matrix
	// [[cos ωt, sin(ωt)/ω], [−ω sin ωt, cos ωt]].
	omega := 2.0
	tEnd := 0.7
	_, phi := vari(harmonic(omega), harmonicJac(omega), 0, tEnd, []float64{1, 0}, 2000, nil)
	c, s := math.Cos(omega*tEnd), math.Sin(omega*tEnd)
	want := [][]float64{{c, s / omega}, {-omega * s, c}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(phi.At(i, j)-want[i][j]) > 1e-8 {
				t.Fatalf("Φ(%d,%d) = %g, want %g", i, j, phi.At(i, j), want[i][j])
			}
		}
	}
}

func TestVariationalDeterminantLiouville(t *testing.T) {
	// Liouville: det Φ(t,0) = exp(∫ tr A). For harmonic oscillator tr A = 0
	// so det Φ = 1 for all t.
	_, phi := vari(harmonic(1.3), harmonicJac(1.3), 0, 5, []float64{0.3, -1}, 5000, nil)
	det := phi.At(0, 0)*phi.At(1, 1) - phi.At(0, 1)*phi.At(1, 0)
	if math.Abs(det-1) > 1e-8 {
		t.Fatalf("det Φ = %g, want 1", det)
	}
}

func TestVariationalRecordsTrajectory(t *testing.T) {
	rec := &Trajectory{}
	xf, _ := vari(harmonic(1), harmonicJac(1), 0, 1, []float64{1, 0}, 100, rec)
	if len(rec.Points) != 101 {
		t.Fatalf("expected 101 knots, got %d", len(rec.Points))
	}
	buf := make([]float64, 2)
	rec.At(1, buf)
	if math.Abs(buf[0]-xf[0]) > 1e-12 {
		t.Fatal("trajectory end differs from final state")
	}
}

func TestAdjointBackwardInverseTransposeProperty(t *testing.T) {
	// For the adjoint system, y(t)ᵀ x(t) is conserved when ẋ = A x and
	// ẏ = −Aᵀ y. Verify numerically along a harmonic-oscillator orbit.
	omega := 1.7
	f := harmonic(omega)
	jac := harmonicJac(omega)
	rec := &Trajectory{}
	vari(f, jac, 0, 3, []float64{1, 0.5}, 3000, rec)
	yT := []float64{0.3, -0.8}
	adj := adjBack(jac, rec, 0, 3, yT, 3000)
	// Inner product of adjoint and a variational solution must be constant.
	// Take the variational solution w(t) starting from w(0)=e1:
	wrec := &Trajectory{}
	wf := func(tt float64, w, dst []float64) {
		jm := make([]float64, 4)
		jac(tt, nil, jm)
		dst[0] = jm[0]*w[0] + jm[1]*w[1]
		dst[1] = jm[2]*w[0] + jm[3]*w[1]
	}
	res, err := DOPRI5(wf, 0, 3, []float64{1, 0}, &Options{RTol: 1e-11, ATol: 1e-13, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	wrec = res.Traj
	ybuf := make([]float64, 2)
	wbuf := make([]float64, 2)
	var first float64
	for i, tt := range []float64{0, 0.5, 1.2, 2.0, 3.0} {
		adj.At(tt, ybuf)
		wrec.At(tt, wbuf)
		ip := ybuf[0]*wbuf[0] + ybuf[1]*wbuf[1]
		if i == 0 {
			first = ip
			continue
		}
		if math.Abs(ip-first) > 1e-6*(1+math.Abs(first)) {
			t.Fatalf("adjoint invariant broken at t=%g: %g vs %g", tt, ip, first)
		}
	}
}

func TestFiniteDiffJacobianMatchesAnalytic(t *testing.T) {
	omega := 2.5
	fd := FiniteDiffJacobian(harmonic(omega), 2)
	got := make([]float64, 4)
	want := make([]float64, 4)
	fd(0, []float64{0.4, -0.2}, got)
	harmonicJac(omega)(0, []float64{0.4, -0.2}, want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-5 {
			t.Fatalf("fd jac[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestStepSizeUnderflowSurfaced(t *testing.T) {
	// A right-hand side with a strong singularity forces h → 0.
	f := func(tt float64, x, dst []float64) {
		dst[0] = 1 / (1 - tt) // blows up at t = 1
	}
	_, err := DOPRI5(f, 0, 2, []float64{0}, &Options{RTol: 1e-10, ATol: 1e-12, MaxSteps: 100000})
	if err == nil {
		t.Fatal("expected failure integrating through a singularity")
	}
	if !errors.Is(err, ErrStepSizeUnderflow) && err != nil {
		// Either underflow or step budget is acceptable; just require failure.
		t.Logf("failed with: %v", err)
	}
}

// Property: DOPRI5 and RK4 agree on smooth problems.
func TestQuickDOPRI5vsRK4(t *testing.T) {
	f := func(omegaRaw float64) bool {
		omega := 0.5 + math.Mod(math.Abs(omegaRaw), 3)
		res, err := DOPRI5(harmonic(omega), 0, 2, []float64{1, 0}, &Options{RTol: 1e-10, ATol: 1e-12})
		if err != nil {
			return false
		}
		want := rk4(harmonic(omega), 0, 2, []float64{1, 0}, 4000)
		return math.Abs(res.X[0]-want[0]) < 1e-6 && math.Abs(res.X[1]-want[1]) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: trapezoidal and DOPRI5 agree on a mildly nonlinear problem.
func TestQuickTrapezoidalVsDOPRI5(t *testing.T) {
	f := func(seedRaw float64) bool {
		a := 0.2 + math.Mod(math.Abs(seedRaw), 1)
		rhs := func(tt float64, x, dst []float64) { dst[0] = -a * x[0] * x[0] }
		jac := func(tt float64, x []float64, dst []float64) { dst[0] = -2 * a * x[0] }
		r1, err1 := Trapezoidal(rhs, jac, 0, 1, []float64{1}, 2000, nil)
		r2, err2 := DOPRI5(rhs, 0, 1, []float64{1}, &Options{RTol: 1e-10, ATol: 1e-12})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(r1.X[0]-r2.X[0]) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRK4NonFiniteBailsEarly(t *testing.T) {
	// A vector field that turns NaN at t ≥ 0.5 must surface ErrNonFinite
	// within a handful of evaluations, not after the whole grid.
	evals := 0
	f := func(tt float64, x, dst []float64) {
		evals++
		if tt >= 0.5 {
			dst[0] = math.NaN()
			return
		}
		dst[0] = -x[0]
	}
	_, err := RK4(f, 0, 1, []float64{1}, 1000, nil)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("got %v, want ErrNonFinite", err)
	}
	// The poison hits at step ~500 of 1000 (4 evals per step); the guard
	// must fire on that very step, within a few evaluations of the onset.
	if evals > 4*505 {
		t.Fatalf("took %d evaluations to notice non-finite state", evals)
	}
}

func TestRK4InfiniteStateSurfaced(t *testing.T) {
	f := func(tt float64, x, dst []float64) { dst[0] = math.Inf(1) }
	_, err := RK4(f, 0, 1, []float64{1}, 100, nil)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("got %v, want ErrNonFinite for +Inf", err)
	}
}

func TestVariationalNonFiniteSurfaced(t *testing.T) {
	f := func(tt float64, x, dst []float64) { dst[0], dst[1] = math.NaN(), 0 }
	jac := func(tt float64, x []float64, dst []float64) {
		dst[0], dst[1], dst[2], dst[3] = 0, 0, 0, 0
	}
	_, _, err := Variational(f, jac, 0, 1, []float64{1, 0}, 100, nil, nil)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("got %v, want ErrNonFinite", err)
	}
}

func TestRK4CanceledBudget(t *testing.T) {
	tok, cancel := budget.WithCancel(nil)
	cancel()
	evals := 0
	f := func(tt float64, x, dst []float64) { evals++; dst[0] = -x[0] }
	_, err := RK4(f, 0, 1, []float64{1}, 1000, tok)
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if evals != 0 {
		t.Fatalf("pre-canceled token still ran %d evaluations", evals)
	}
}

func TestDOPRI5CanceledBudget(t *testing.T) {
	tok, cancel := budget.WithCancel(nil)
	cancel()
	_, err := DOPRI5(decay, 0, 5, []float64{1}, &Options{Budget: tok})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

func TestTrapezoidalCanceledBudget(t *testing.T) {
	jac := func(tt float64, x []float64, dst []float64) { dst[0] = -1 }
	tok, cancel := budget.WithCancel(nil)
	cancel()
	_, err := Trapezoidal(decay, jac, 0, 1, []float64{1}, 100, &TrapezoidalOptions{Budget: tok})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

func TestAdjointBackwardCanceledBudget(t *testing.T) {
	rec := &Trajectory{}
	vari(harmonic(1), harmonicJac(1), 0, 1, []float64{1, 0}, 100, rec)
	tok, cancel := budget.WithCancel(nil)
	cancel()
	_, done, err := AdjointBackward(harmonicJac(1), rec, 0, 1, []float64{1, 0}, 100, tok)
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if done != 0 {
		t.Fatalf("pre-canceled token: got %d steps done, want 0", done)
	}
}

func TestStepperZeroAllocs(t *testing.T) {
	st := NewStepper(2)
	f := harmonic(2)
	x := []float64{1, 0}
	out := make([]float64, 2)
	allocs := testing.AllocsPerRun(100, func() {
		st.Step(f, 0, x, 1e-3, out)
	})
	if allocs != 0 {
		t.Fatalf("Stepper.Step allocates %v per call, want 0", allocs)
	}
}

func TestStepperMatchesRK4Step(t *testing.T) {
	f := harmonic(3)
	x := []float64{0.3, -1.2}
	want := make([]float64, 2)
	RK4Step(f, 0.1, x, 0.05, want)
	got := make([]float64, 2)
	NewStepper(2).Step(f, 0.1, x, 0.05, got)
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Stepper.Step %v != RK4Step %v", got, want)
	}
}

// TestRK4ErrorConvention pins the shared failure convention of the RK4
// exits: the reported step is the 1-indexed step that did not complete and
// the reported t is the time of the last valid state (the start of that
// step), identically for the budget-trip and non-finite paths.
func TestRK4ErrorConvention(t *testing.T) {
	// Budget trip before the very first step: step 1, t = t0.
	tok, cancel := budget.WithCancel(nil)
	cancel()
	_, err := RK4(decay, 2.5, 3.5, []float64{1}, 10, tok)
	if err == nil {
		t.Fatal("tripped token did not abort")
	}
	if want := "at t=2.5 (step 1/10)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("budget error %q does not contain %q", err, want)
	}

	// Non-finite state produced by step 4 (t crosses 0.3): step 4 starts at
	// t = 0.3 and is the last valid state time.
	poison := func(tt float64, x, dst []float64) {
		dst[0] = 1
		if tt > 0.35 {
			dst[0] = nan()
		}
	}
	_, err = RK4(poison, 0, 1, []float64{0}, 10, nil)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("want ErrNonFinite, got %v", err)
	}
	// Step 4 starts at t = 3·h, the last valid state time.
	h := float64(1) / float64(10)
	want := fmt.Sprintf("at t=%g (step 4/10)", float64(3)*h)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("non-finite error %q does not contain %q", err, want)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestKnotLocatorMatchesAt(t *testing.T) {
	rec := &Trajectory{}
	vari(harmonic(1.3), harmonicJac(1.3), 0, 3, []float64{1, 0}, 137, rec)
	lc := NewLocator(rec)
	if !lc.uniform {
		t.Fatal("fixed-step recording not recognised as uniform")
	}
	got := make([]float64, 2)
	want := make([]float64, 2)
	for i := 0; i <= 1000; i++ {
		tt := -0.1 + 3.2*float64(i)/1000
		lc.At(tt, got)
		rec.At(tt, want)
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("locator at t=%g: %v != At %v", tt, got, want)
		}
	}
	// Non-uniform knots must fall back to the binary-search path.
	nu := &Trajectory{}
	nu.Append(0, []float64{0, 0}, []float64{0, 0})
	nu.Append(1, []float64{1, 1}, []float64{0, 0})
	nu.Append(3, []float64{2, 2}, []float64{0, 0})
	if NewLocator(nu).uniform {
		t.Fatal("non-uniform trajectory classified as uniform")
	}
}

// adjointBackwardReference is AdjointBackward as first written: xs(t) found
// by binary search (Trajectory.At) at every stage, knots gathered in reverse
// and copied into a Trajectory by Append. TestAdjointBackwardMatchesReference
// holds the Locator-based version to it bit for bit.
func adjointBackwardReference(jac JacFunc, xs *Trajectory, t0, t1 float64, yT []float64, nsteps int) *Trajectory {
	n := len(yT)
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
	h := (t1 - t0) / float64(nsteps)
	y := append([]float64(nil), yT...)
	k1, k2, k3, k4, tmp := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	dy := make([]float64, n)
	ts := make([]float64, nsteps+1)
	ys := make([][]float64, nsteps+1)
	dys := make([][]float64, nsteps+1)
	store := func(idx int, t float64) {
		rhs(t, y, dy)
		ts[idx] = t
		ys[idx] = append([]float64(nil), y...)
		dys[idx] = append([]float64(nil), dy...)
	}
	store(nsteps, t1)
	for s := 0; s < nsteps; s++ {
		t := t1 - float64(s)*h
		rk4Step(rhs, t, y, -h, y, k1, k2, k3, k4, tmp)
		store(nsteps-1-s, t-h)
	}
	out := &Trajectory{}
	for i := 0; i <= nsteps; i++ {
		out.Append(ts[i], ys[i], dys[i])
	}
	return out
}

// TestAdjointBackwardMatchesReference: on a registry model's orbit, the
// adjoint trajectory is bit for bit the binary-search construction's — every
// knot time, state and slope.
func TestAdjointBackwardMatchesReference(t *testing.T) {
	m, err := osc.Build("ring", nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, n := m.Sys, m.Sys.Dim()
	f := func(_ float64, x, dst []float64) { sys.Eval(x, dst) }
	jac := func(_ float64, x, dst []float64) { sys.Jacobian(x, dst) }
	orbit := &Trajectory{}
	vari(f, jac, 0, m.TGuess, m.X0, 4000, orbit)
	yT := make([]float64, n)
	for i := range yT {
		yT[i] = 1 / float64(i+1)
	}
	const steps = 6007 // off the orbit's grid: every stage interpolates
	got := adjBack(jac, orbit, 0, m.TGuess, yT, steps)
	want := adjointBackwardReference(jac, orbit, 0, m.TGuess, yT, steps)
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%d knots, want %d", len(got.Points), len(want.Points))
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for i, w := range want.Points {
		g := got.Points[i]
		if math.Float64bits(g.T) != math.Float64bits(w.T) || !same(g.X, w.X) || !same(g.DX, w.DX) {
			t.Fatalf("knot %d: got t=%v x=%v dx=%v, want t=%v x=%v dx=%v", i, g.T, g.X, g.DX, w.T, w.X, w.DX)
		}
	}
	if !finite(got.Points[0].X) {
		t.Fatalf("adjoint blew up: %v", got.Points[0].X)
	}
}

func TestTrapezoidalJacobianFreezing(t *testing.T) {
	// With freezing on, the stiff decay still converges to the same answer
	// while factorising far fewer Jacobians than Newton iterations.
	f := func(tt float64, x, dst []float64) { dst[0] = -50 * x[0] }
	jac := func(tt float64, x, dst []float64) { dst[0] = -50 }
	fresh, err := Trapezoidal(f, jac, 0, 1, []float64{1}, 400, &TrapezoidalOptions{NewtonTol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := Trapezoidal(f, jac, 0, 1, []float64{1}, 400, &TrapezoidalOptions{NewtonTol: 1e-13, FreshJacTol: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if d := frozen.X[0] - fresh.X[0]; d > 1e-12 || d < -1e-12 {
		t.Fatalf("frozen-Jacobian result %v differs from fresh %v", frozen.X[0], fresh.X[0])
	}
}

func BenchmarkScalarRK4x8(b *testing.B) {
	const lanes = 8
	fs := make([]Func, lanes)
	for j := range fs {
		fs[j] = harmonic(1 + 0.25*float64(j))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < lanes; j++ {
			if _, err := RK4(fs[j], 0, 1, []float64{1, 0}, 500, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestDOPRI5StepEndsIntegration: Options.Step sees every accepted step's
// start and end with their derivatives, and returning true ends the
// integration at that step's end.
func TestDOPRI5StepEndsIntegration(t *testing.T) {
	f := func(t float64, x, dst []float64) { dst[0] = -x[0] }
	calls, tEnd, xEnd := 0, 0.0, 0.0
	prev := 0.0
	step := func(t0 float64, x0, f0 []float64, t1 float64, x1, f1 []float64) bool {
		calls++
		if t0 != prev || t1 <= t0 || f0[0] != -x0[0] || f1[0] != -x1[0] {
			t.Fatalf("step %d: [%g, %g] after %g, f0 %g at x0 %g, f1 %g at x1 %g", calls, t0, t1, prev, f0[0], x0[0], f1[0], x1[0])
		}
		prev, tEnd, xEnd = t1, t1, x1[0]
		return t1 >= 1
	}
	res, err := DOPRI5(f, 0, 10, []float64{1}, &Options{Step: step})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != calls || tEnd < 1 || tEnd >= 10 || res.X[0] != xEnd {
		t.Fatalf("%d steps, %d calls, stopped at t=%g with x=%g (last step's x1 %g)", res.Steps, calls, tEnd, res.X[0], xEnd)
	}
	if math.Abs(res.X[0]-math.Exp(-tEnd)) > 1e-8 {
		t.Fatalf("x(%g) = %g, want %g", tEnd, res.X[0], math.Exp(-tEnd))
	}
}
