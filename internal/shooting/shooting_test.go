package shooting

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/osc"
)

func TestFindHopfExactPeriod(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi} // T = 1 exactly
	pss, err := Find(h, []float64{0.8, 0.1}, 0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pss.T-1) > 1e-8 {
		t.Fatalf("T = %.12g, want 1", pss.T)
	}
	// The converged point must lie on the unit circle.
	r := math.Hypot(pss.X0[0], pss.X0[1])
	if math.Abs(r-1) > 1e-8 {
		t.Fatalf("|x0| = %g, want 1", r)
	}
	if pss.Residual > 1e-9 {
		t.Fatalf("residual %g", pss.Residual)
	}
}

func TestFindHopfMonodromyMultipliers(t *testing.T) {
	h := &osc.Hopf{Lambda: 0.5, Omega: 3}
	pss, err := Find(h, []float64{1.2, 0}, 2*math.Pi/3*1.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Monodromy eigenvalues: 1 and exp(−4πλ/ω); check via trace & det.
	phi := pss.Monodromy
	tr := phi.At(0, 0) + phi.At(1, 1)
	det := phi.At(0, 0)*phi.At(1, 1) - phi.At(0, 1)*phi.At(1, 0)
	m2 := h.ExactSecondMultiplier()
	if math.Abs(tr-(1+m2)) > 1e-5 {
		t.Fatalf("trace = %g, want %g", tr, 1+m2)
	}
	if math.Abs(det-m2) > 1e-5 {
		t.Fatalf("det = %g, want %g", det, m2)
	}
}

func TestFindVanDerPolSmallMu(t *testing.T) {
	v := &osc.VanDerPol{Mu: 0.2}
	pss, err := Find(v, []float64{2, 0}, 2*math.Pi, nil)
	if err != nil {
		t.Fatal(err)
	}
	// T ≈ 2π(1 + μ²/16) to O(μ⁴).
	want := 2 * math.Pi * (1 + 0.2*0.2/16)
	if math.Abs(pss.T-want) > 2e-3 {
		t.Fatalf("T = %g, want ≈ %g", pss.T, want)
	}
	// Amplitude close to 2 for small mu.
	maxAmp := 0.0
	for _, s := range pss.Sample(200) {
		if a := math.Abs(s[0]); a > maxAmp {
			maxAmp = a
		}
	}
	if math.Abs(maxAmp-2) > 0.05 {
		t.Fatalf("amplitude = %g, want ≈ 2", maxAmp)
	}
}

func TestFindVanDerPolStiffer(t *testing.T) {
	v := &osc.VanDerPol{Mu: 3}
	pss, err := Find(v, []float64{2, 0}, 8, &Options{StepsPerPeriod: 6000})
	if err != nil {
		t.Fatal(err)
	}
	// Asymptotic relaxation period ≈ (3−2ln2)μ for large μ; for μ=3 the
	// true period is ≈ 8.86 (known numerical value).
	if pss.T < 8 || pss.T > 10 {
		t.Fatalf("T = %g, expected ≈ 8.9", pss.T)
	}
}

func TestOrbitClosure(t *testing.T) {
	h := &osc.Hopf{Lambda: 2, Omega: 5}
	pss, err := Find(h, []float64{0.5, -0.5}, 1.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := make([]float64, 2)
	end := make([]float64, 2)
	pss.Orbit.At(0, start)
	pss.Orbit.At(pss.T, end)
	if math.Hypot(end[0]-start[0], end[1]-start[1]) > 1e-8 {
		t.Fatalf("orbit not closed: %v vs %v", start, end)
	}
}

func TestPSSAccessors(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi}
	pss, err := Find(h, []float64{1, 0}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pss.F0()-1) > 1e-8 {
		t.Fatalf("F0 = %g", pss.F0())
	}
	if math.Abs(pss.Omega0()-2*math.Pi) > 1e-7 {
		t.Fatalf("Omega0 = %g", pss.Omega0())
	}
	s := pss.Sample(16)
	if len(s) != 17 {
		t.Fatalf("Sample returned %d points", len(s))
	}
}

func TestFindRejectsBadGuess(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 1}
	if _, err := Find(h, []float64{1, 0}, -1, nil); err == nil {
		t.Fatal("expected error for negative period guess")
	}
	if _, err := Find(h, []float64{1, 0, 0}, 1, nil); err == nil {
		t.Fatal("expected error for dimension mismatch")
	}
}

func TestFindFromOrigin(t *testing.T) {
	// The origin is an unstable equilibrium of the Hopf system; the
	// transient phase must carry the state to the cycle... but exactly at
	// the origin f = 0 and the trajectory stays there. A slightly offset
	// start must converge.
	h := &osc.Hopf{Lambda: 1, Omega: 6}
	pss, err := Find(h, []float64{1e-3, 0}, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pss.T-2*math.Pi/6) > 1e-7 {
		t.Fatalf("T = %g", pss.T)
	}
}

func TestEstimatePeriodHopf(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi}
	T, x, err := EstimatePeriod(h, []float64{0.3, 0}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(T-1) > 0.02 {
		t.Fatalf("estimated T = %g, want ≈1", T)
	}
	if len(x) != 2 {
		t.Fatalf("crossing point %v", x)
	}
	// The crossing point should be near the unit circle.
	if r := math.Hypot(x[0], x[1]); math.Abs(r-1) > 0.05 {
		t.Fatalf("crossing point radius %g", r)
	}
}

func TestEstimatePeriodVanDerPol(t *testing.T) {
	v := &osc.VanDerPol{Mu: 1}
	T, _, err := EstimatePeriod(v, []float64{0.1, 0}, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Known numerical period for μ=1 is ≈ 6.6633.
	if math.Abs(T-6.6633) > 0.05 {
		t.Fatalf("estimated T = %g, want ≈6.66", T)
	}
}

func TestEstimatePeriodFailsOnEquilibrium(t *testing.T) {
	// Start exactly at the (unstable) equilibrium: no crossings.
	h := &osc.Hopf{Lambda: 1, Omega: 1}
	if _, _, err := EstimatePeriod(h, []float64{0, 0}, 10); err == nil {
		t.Fatal("expected failure at equilibrium")
	}
}

func TestShootingThenEstimateConsistency(t *testing.T) {
	v := &osc.VanDerPol{Mu: 0.7}
	Test, x0, err := EstimatePeriod(v, []float64{1, 0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	pss, err := Find(v, x0, Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pss.T-Test) > 0.05*Test {
		t.Fatalf("shooting T=%g far from estimate %g", pss.T, Test)
	}
}

// Regression: a caller that passes a partial Options (setting only Tol)
// must NOT silently lose the default-on Newton damping. Before the
// tri-state fix, defaults() copied the damping flag verbatim from the
// caller struct, so any non-nil Options disabled damping.
func TestPartialOptionsKeepDampingEnabled(t *testing.T) {
	d := (&Options{Tol: 1e-8}).defaults()
	if d.NoDamping {
		t.Fatal("partial Options{Tol: ...} disabled Newton damping; damping must stay on by default")
	}
	d = (&Options{NoDamping: true}).defaults()
	if !d.NoDamping {
		t.Fatal("explicit NoDamping was not honoured")
	}
}

func TestNoDampingStillConvergesOnHopf(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi}
	pss, err := Find(h, []float64{0.8, 0.1}, 0.9, &Options{NoDamping: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pss.T-1) > 1e-8 {
		t.Fatalf("T = %g, want 1", pss.T)
	}
}

func TestTraceRecordsConvergenceHistory(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi}
	var tr Trace
	pss, err := Find(h, []float64{0.8, 0.1}, 0.9, &Options{Trace: &tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Iters != pss.Iters {
		t.Fatalf("trace iters %d, pss iters %d", tr.Iters, pss.Iters)
	}
	if len(tr.Residuals) != tr.Iters {
		t.Fatalf("%d residuals for %d iterations", len(tr.Residuals), tr.Iters)
	}
	if tr.Residual != pss.Residual {
		t.Fatalf("trace residual %g, pss residual %g", tr.Residual, pss.Residual)
	}
	if tr.Wall <= 0 {
		t.Fatalf("wall time %v not recorded", tr.Wall)
	}
	if tr.TransientWall <= 0 {
		t.Fatalf("transient wall time %v not recorded", tr.TransientWall)
	}
	if tr.TRefined <= 0 {
		t.Fatalf("refined period %g not recorded", tr.TRefined)
	}
	// The trace must be reset between calls.
	if _, err := Find(h, []float64{1, 0}, 1, &Options{Trace: &tr, Transient: 1}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Residuals) > tr.Iters {
		t.Fatalf("stale residual history: %d entries for %d iterations", len(tr.Residuals), tr.Iters)
	}
}

func TestFindCanceledBudget(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi}
	tok, cancel := budget.WithCancel(nil)
	cancel()
	_, err := Find(h, []float64{0.8, 0.1}, 0.9, &Options{Budget: tok})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

func TestFindBudgetTimeoutPrompt(t *testing.T) {
	// An expired deadline must cut Find off at integrator-step granularity:
	// the call returns almost immediately with the typed error and the
	// trace shows it never reached the Newton iteration.
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi}
	var tr Trace
	start := time.Now()
	_, err := Find(h, []float64{0.8, 0.1}, 0.9, &Options{
		Budget: budget.WithTimeout(nil, 0),
		Trace:  &tr,
	})
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cut-off took %v", elapsed)
	}
	if tr.Iters != 0 {
		t.Fatalf("Newton ran %d iterations past an expired budget", tr.Iters)
	}
}

func TestEstimatePeriodBudget(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi}
	tok, cancel := budget.WithCancel(nil)
	cancel()
	_, _, err := EstimatePeriodBudget(h, []float64{1, 0}, 20, tok)
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestMonodromyEigenMemoized checks the PSS eigendecomposition cache: two
// calls agree, and callers get private copies they may reorder freely.
func TestMonodromyEigenMemoized(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 1}
	pss, err := Find(h, []float64{0.8, 0.1}, 6.0, &Options{Transient: 5, StepsPerPeriod: 600})
	if err != nil {
		t.Fatal(err)
	}
	if pss.eig == nil {
		t.Fatal("Find returned a PSS without an eigen cache")
	}
	first, err := pss.MonodromyEigen()
	if err != nil {
		t.Fatal(err)
	}
	first[0] = complex(42, 42) // must not leak into the cache
	second, err := pss.MonodromyEigen()
	if err != nil {
		t.Fatal(err)
	}
	if second[0] == complex(42, 42) {
		t.Fatal("MonodromyEigen returned a shared slice")
	}
	// A decoded PSS (nil cache) still answers.
	bare := &PSS{Monodromy: pss.Monodromy}
	vals, err := bare.MonodromyEigen()
	if err != nil || len(vals) != len(second) {
		t.Fatalf("cacheless MonodromyEigen: %v (%d values)", err, len(vals))
	}
	for i := range vals {
		if vals[i] != second[i] {
			t.Fatalf("cacheless eigenvalues differ at %d: %v vs %v", i, vals[i], second[i])
		}
	}
}

// registryStart is a registry model at its defaults with the start the
// service uses: the recommended state and period guess (estimated where the
// model has no closed form) and the recommended shooting steps.
func registryStart(t *testing.T, name string) (dynsys.System, []float64, float64, *Options) {
	t.Helper()
	m, err := osc.Build(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0, tGuess := m.X0, m.TGuess
	if tGuess == 0 {
		if tGuess, x0, err = EstimatePeriodBudget(m.Sys, x0, m.EstimateTMax, nil); err != nil {
			t.Fatal(err)
		}
	}
	return m.Sys, x0, tGuess, &Options{StepsPerPeriod: m.ShootingSteps}
}

// recordOrbit integrates the variational system from x0 over [0, T] and
// records the orbit as the solver did before Find kept the converged
// iteration's recording: a second RK4 integration of the joint state and
// monodromy, each knot appended with the first n entries of the whole
// variational right-hand side. It returns the knots, Φ(T, 0) and x(T).
func recordOrbit(sys dynsys.System, x0 []float64, T float64, nsteps int) (*ode.Trajectory, *linalg.Matrix, []float64) {
	n := len(x0)
	jm := make([]float64, n*n)
	rhs := func(_ float64, z, dst []float64) {
		sys.Eval(z[:n], dst[:n])
		sys.Jacobian(z[:n], jm)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += jm[i*n+k] * z[n+k*n+j]
				}
				dst[n+i*n+j] = s
			}
		}
	}
	aug := make([]float64, n+n*n)
	copy(aug, x0)
	for i := 0; i < n; i++ {
		aug[n+i*n+i] = 1
	}
	dz := make([]float64, len(aug))
	rec := &ode.Trajectory{}
	rhs(0, aug, dz)
	rec.Append(0, aug[:n], dz[:n])
	st := ode.NewStepper(len(aug))
	h := T / float64(nsteps)
	for s := 0; s < nsteps; s++ {
		t := float64(s) * h
		st.Step(rhs, t, aug, h, aug)
		rhs(t+h, aug, dz)
		rec.Append(t+h, aug[:n], dz[:n])
	}
	return rec, linalg.NewMatrixFrom(n, n, aug[n:]), append([]float64(nil), aug[:n]...)
}

// TestFindRecordsConvergedOrbit: the PSS Find builds from its converged
// Newton iteration — X0, T, every orbit knot's T, X and DX, the monodromy,
// the residual and the iteration count — is bit for bit what integrating the
// converged x0 and T once more with the old recording gives.
func TestFindRecordsConvergedOrbit(t *testing.T) {
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
	for _, name := range []string{"hopf", "ring", "fhn"} {
		t.Run(name, func(t *testing.T) {
			sys, x0, tGuess, opts := registryStart(t, name)
			tr := &Trace{}
			opts.Trace = tr
			pss, err := Find(sys, x0, tGuess, opts)
			if err != nil {
				t.Fatal(err)
			}
			steps := opts.Effective().StepsPerPeriod
			orbit, phi, xT := recordOrbit(sys, pss.X0, pss.T, steps)
			if len(pss.Orbit.Points) != len(orbit.Points) {
				t.Fatalf("%d orbit knots, reference %d", len(pss.Orbit.Points), len(orbit.Points))
			}
			for k, p := range pss.Orbit.Points {
				q := orbit.Points[k]
				if !same([]float64{p.T}, []float64{q.T}) || !same(p.X, q.X) || !same(p.DX, q.DX) {
					t.Fatalf("orbit knot %d: %v %v %v, reference %v %v %v", k, p.T, p.X, p.DX, q.T, q.X, q.DX)
				}
			}
			if pss.Monodromy.Rows != phi.Rows || pss.Monodromy.Cols != phi.Cols || !same(pss.Monodromy.Data, phi.Data) {
				t.Fatalf("monodromy %v, reference %v", pss.Monodromy.Data, phi.Data)
			}
			res := 0.0
			for i := range xT {
				res = math.Max(res, math.Abs(xT[i]-pss.X0[i]))
			}
			res /= 1 + linalg.NormInfVec(pss.X0)
			if !same([]float64{pss.Residual}, []float64{res}) || pss.Residual != tr.Residual {
				t.Fatalf("residual %g, reference %g, trace %g", pss.Residual, res, tr.Residual)
			}
			if pss.Iters != tr.Iters || pss.Iters != len(tr.Residuals) {
				t.Fatalf("%d iterations, trace %d with %d residuals", pss.Iters, tr.Iters, len(tr.Residuals))
			}
		})
	}
}

// TestFindIntegratesEachIterationOnce: a converged Find makes one
// variational integration per Newton iteration and none after.
func TestFindIntegratesEachIterationOnce(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	t.Cleanup(func() { obs.SetGlobal(nil) })
	h := &osc.Hopf{Lambda: 1, Omega: 2}
	opts := &Options{StepsPerPeriod: 1500}
	pss, err := Find(h, []float64{1, 0.1}, h.Period()*1.05, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := reg.Snapshot().Counter("pn_ode_steps_total", "variational")
	if want := int64(pss.Iters * opts.StepsPerPeriod); got != want {
		t.Fatalf("%d variational steps for %d iterations of %d steps, want %d", got, pss.Iters, opts.StepsPerPeriod, want)
	}
}

// On a weakly contracting cycle the raw residual bounds the orbit only
// loosely: the 1 MHz Hopf normal form contracts by 1 − |μ₂| = 2·10⁻⁶ per
// period, so a residual just under Tol leaves the orbit about Tol/(2·10⁻⁶)
// off the unit circle. Find polishes until residual/(1 − |μ₂|) is under
// Tol or a step no longer halves the residual, and returns that iterate as
// converged (the roundoff floor sits above Tol·2·10⁻⁶), with or without
// damping. Its multipliers travel on the PSS.
func TestStopRuleSeesWeakContraction(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi * 1e6}
	for _, noDamping := range []bool{false, true} {
		var tr Trace
		pss, err := Find(h, []float64{1, 0.1}, 1.05e-6, &Options{NoDamping: noDamping, Trace: &tr})
		if err != nil {
			t.Fatalf("NoDamping %v: %v", noDamping, err)
		}
		mult, err := pss.MonodromyEigen()
		if err != nil {
			t.Fatal(err)
		}
		margin := 1 - secondModulus(mult)
		if margin > 1e-5 || pss.eig == nil || pss.eig.phi != pss.Monodromy {
			t.Fatalf("1 − |μ₂| = %g, memo %v: not the weakly contracting case", margin, pss.eig)
		}
		if pss.Residual > 1e-14 {
			t.Errorf("NoDamping %v: stopped at residual %.2g; residual/(1 − |μ₂|) = %.2g", noDamping, pss.Residual, pss.Residual/margin)
		}
		if r := math.Hypot(pss.X0[0], pss.X0[1]); math.Abs(r-1) > 1e-8 {
			t.Errorf("NoDamping %v: |x0| = %.15g, want 1 within 1e-8", noDamping, r)
		}
		t.Logf("NoDamping %v: %d iterations, residuals %.2g", noDamping, pss.Iters, tr.Residuals)
	}
}

// TestTransientStopsOnItsCycle: the transient ends once its returns to the
// Poincaré section stop shrinking and the extrapolated distance to the cycle
// is under Tol/100; an orbit that contracts too slowly for that runs the
// whole Options.Transient, which stays the cap.
func TestTransientStopsOnItsCycle(t *testing.T) {
	for _, c := range []struct {
		name   string
		lambda float64 // multiplier e^{−2λ} per period
		opts   Options
		lo, hi float64 // transient periods
	}{
		{"strong", 1, Options{}, 2, 19},
		{"weak", 1e-3, Options{}, 20, 20},
		{"capped", 1, Options{Transient: 3}, 2, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := &osc.Hopf{Lambda: c.lambda, Omega: 2 * math.Pi}
			pss, err := Find(h, []float64{0.8, 0.1}, 0.97, &c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if p := pss.TransientPeriods(); p < c.lo || p > c.hi {
				t.Fatalf("transient ran %g guess periods, want [%g, %g]", p, c.lo, c.hi)
			}
			if math.Abs(pss.T-1) > 1e-9 {
				t.Fatalf("T = %.12g, want 1", pss.T)
			}
			t.Logf("%.2f guess periods, %d Newton iterations", pss.TransientPeriods(), pss.Iters)
		})
	}
}
