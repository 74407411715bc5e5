package floquet

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/linalg"
	"repro/internal/ode"
	"repro/internal/osc"
	"repro/internal/shooting"
)

func hopfDecomp(t *testing.T, lambda, omega float64) (*osc.Hopf, *shooting.PSS, *Decomposition) {
	t.Helper()
	h := &osc.Hopf{Lambda: lambda, Omega: omega, Sigma: 0.1}
	pss, err := shooting.Find(h, []float64{1, 0.2}, 2*math.Pi/omega*1.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Analyze(h, pss, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, pss, dec
}

func TestHopfMultipliers(t *testing.T) {
	h, _, dec := hopfDecomp(t, 0.8, 4)
	if len(dec.Multipliers) != 2 {
		t.Fatalf("got %d multipliers", len(dec.Multipliers))
	}
	if cmplx.Abs(dec.Multipliers[0]-1) > 1e-6 {
		t.Fatalf("unit multiplier = %v", dec.Multipliers[0])
	}
	want := h.ExactSecondMultiplier()
	if cmplx.Abs(dec.Multipliers[1]-complex(want, 0)) > 1e-5 {
		t.Fatalf("second multiplier = %v, want %g", dec.Multipliers[1], want)
	}
	// Exponents: μ1 = 0 exactly, μ2 = −2λ.
	if dec.Exponents[0] != 0 {
		t.Fatalf("μ1 = %v", dec.Exponents[0])
	}
	if cmplx.Abs(dec.Exponents[1]-complex(-2*0.8, 0)) > 1e-4 {
		t.Fatalf("μ2 = %v, want %g", dec.Exponents[1], -1.6)
	}
}

func TestHopfV1MatchesClosedForm(t *testing.T) {
	h, pss, dec := hopfDecomp(t, 1, 2*math.Pi)
	// The orbit starts at an arbitrary phase point; find its angle so we can
	// compare against the closed-form v1.
	theta0 := math.Atan2(pss.X0[1], pss.X0[0])
	buf := make([]float64, 2)
	for _, frac := range []float64{0, 0.17, 0.42, 0.73, 0.96} {
		tt := frac * pss.T
		dec.V1At(tt, buf)
		// Closed form referenced to angle θ0 + ωt.
		th := theta0 + h.Omega*tt
		wantX := -math.Sin(th) / h.Omega
		wantY := math.Cos(th) / h.Omega
		if math.Abs(buf[0]-wantX) > 1e-6 || math.Abs(buf[1]-wantY) > 1e-6 {
			t.Fatalf("v1(%.2fT) = %v, want (%g, %g)", frac, buf, wantX, wantY)
		}
	}
}

func TestHopfBiorthogonality(t *testing.T) {
	h, pss, dec := hopfDecomp(t, 0.5, 3)
	// v1ᵀ(t)·ẋs(t) = 1 along the whole period.
	xbuf := make([]float64, 2)
	fbuf := make([]float64, 2)
	vbuf := make([]float64, 2)
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		tt := frac * pss.T
		pss.Orbit.At(tt, xbuf)
		h.Eval(xbuf, fbuf)
		dec.V1At(tt, vbuf)
		ip := vbuf[0]*fbuf[0] + vbuf[1]*fbuf[1]
		if math.Abs(ip-1) > 1e-8 {
			t.Fatalf("v1ᵀu1 at %.3fT = %g", frac, ip)
		}
	}
	if dec.BiorthoDrift > 1e-4 {
		t.Fatalf("raw biorthogonality drift %g too large", dec.BiorthoDrift)
	}
}

func TestHopfV1Periodicity(t *testing.T) {
	_, pss, dec := hopfDecomp(t, 1.5, 5)
	a := make([]float64, 2)
	b := make([]float64, 2)
	dec.V1.At(0, a)
	dec.V1.At(pss.T, b)
	if math.Hypot(a[0]-b[0], a[1]-b[1]) > 1e-6 {
		t.Fatalf("v1 not periodic: %v vs %v", a, b)
	}
	if dec.ClosureErr > 1e-6 {
		t.Fatalf("closure error %g", dec.ClosureErr)
	}
}

func TestV1AtWrapsModuloPeriod(t *testing.T) {
	_, pss, dec := hopfDecomp(t, 1, 2*math.Pi)
	a := make([]float64, 2)
	b := make([]float64, 2)
	dec.V1At(0.3*pss.T, a)
	dec.V1At(0.3*pss.T+3*pss.T, b)
	if math.Hypot(a[0]-b[0], a[1]-b[1]) > 1e-12 {
		t.Fatalf("V1At not periodic: %v vs %v", a, b)
	}
	dec.V1At(-0.7*pss.T, b) // negative times wrap too
	if math.Hypot(a[0]-b[0], a[1]-b[1]) > 1e-12 {
		t.Fatalf("V1At negative wrap: %v vs %v", a, b)
	}
}

func TestVanDerPolDecomposition(t *testing.T) {
	v := &osc.VanDerPol{Mu: 1, Sigma: 0.05}
	pss, err := shooting.Find(v, []float64{2, 0}, 6.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Analyze(v, pss, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(dec.Multipliers[0]-1) > 1e-6 {
		t.Fatalf("unit multiplier = %v", dec.Multipliers[0])
	}
	// Liouville: product of multipliers = exp(∫tr A) = exp(μ∫(1−x²)dt);
	// both multipliers real, second inside unit circle.
	if im := imag(dec.Multipliers[1]); math.Abs(im) > 1e-9 {
		t.Fatalf("second multiplier complex: %v", dec.Multipliers[1])
	}
	if m := cmplx.Abs(dec.Multipliers[1]); m >= 1 {
		t.Fatalf("cycle should be stable, |m2| = %g", m)
	}
	if dec.StabilityMargin() <= 0 {
		t.Fatalf("stability margin %g", dec.StabilityMargin())
	}
	// Biorthogonality for a non-trivial oscillator.
	xb := make([]float64, 2)
	fb := make([]float64, 2)
	vb := make([]float64, 2)
	for _, frac := range []float64{0.1, 0.4, 0.8} {
		tt := frac * pss.T
		pss.Orbit.At(tt, xb)
		v.Eval(xb, fb)
		dec.V1At(tt, vb)
		ip := vb[0]*fb[0] + vb[1]*fb[1]
		if math.Abs(ip-1) > 1e-7 {
			t.Fatalf("vdp v1ᵀu1 at %.1fT = %g", frac, ip)
		}
	}
}

func TestAnalyzeRejectsNonPeriodicOrbit(t *testing.T) {
	// Hand the analyzer a fake PSS whose "monodromy" has no unit eigenvalue.
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi}
	pss, err := shooting.Find(h, []float64{1, 0}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fake := *pss
	fake.Monodromy = linalg.Diag([]float64{0.5, 0.2})
	if _, err := Analyze(h, &fake, nil); !errors.Is(err, ErrNoUnitMultiplier) {
		t.Fatalf("expected ErrNoUnitMultiplier, got %v", err)
	}
}

func TestAnalyzeDetectsUnstableCycle(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi}
	pss, err := shooting.Find(h, []float64{1, 0}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fake := *pss
	fake.Monodromy = linalg.Diag([]float64{1, 1.5})
	if _, err := Analyze(h, &fake, nil); !errors.Is(err, ErrUnstableCycle) {
		t.Fatalf("expected ErrUnstableCycle, got %v", err)
	}
	// SkipStability must let it pass the stability gate (it may still fail
	// later, but not with ErrUnstableCycle).
	if _, err := Analyze(h, &fake, &Options{SkipStability: true}); errors.Is(err, ErrUnstableCycle) {
		t.Fatal("SkipStability did not bypass the gate")
	}
}

func TestForwardAdjointUnstableBackwardStable(t *testing.T) {
	// Section 9 step 5: forward integration of the adjoint blows up the
	// solution away from span{v1}; backward integration keeps it periodic.
	h := &osc.Hopf{Lambda: 3, Omega: 2 * math.Pi} // strongly contracting cycle
	pss, err := shooting.Find(h, []float64{1, 0}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Analyze(h, pss, nil)
	if err != nil {
		t.Fatal(err)
	}
	jac := func(tt float64, x []float64, dst []float64) { h.Jacobian(x, dst) }
	// Perturb v1(0) slightly and integrate FORWARD over several periods:
	// the error mode grows like exp(+2λT) per period.
	y0 := append([]float64(nil), dec.V10...)
	y0[0] += 1e-8
	// Build an extended orbit trajectory spanning several periods.
	f := func(tt float64, x, dst []float64) { h.Eval(x, dst) }
	extRec := &ode.Trajectory{}
	if _, _, err := ode.Variational(f, jac, 0, 5*pss.T, pss.X0, 10000, extRec, nil); err != nil {
		t.Fatal(err)
	}
	yf := ode.AdjointForward(jac, extRec, 0, 5*pss.T, y0, 10000)
	growth := linalg.Norm2(linalg.SubVec(yf, dec.V10)) / 1e-8
	if growth < 1e3 {
		t.Fatalf("forward adjoint error growth %g, expected exponential blow-up", growth)
	}
	// Backward stays bounded: closure error is tiny even from the perturbed start.
	if dec.ClosureErr > 1e-6 {
		t.Fatalf("backward closure %g", dec.ClosureErr)
	}
}

func TestStabilityMarginHopf(t *testing.T) {
	h, _, dec := hopfDecomp(t, 0.3, 2)
	want := 1 - h.ExactSecondMultiplier()
	if math.Abs(dec.StabilityMargin()-want) > 1e-5 {
		t.Fatalf("margin = %g, want %g", dec.StabilityMargin(), want)
	}
}

// Regression for the renormalised-interpolant slope bug: scaling the knot
// slopes by the same 1/ipT as the knot values drops the −(d ipT/dt)/ipT²·v1
// term of the exact derivative of v1(t)/ipT(t), so the Hermite interpolant
// was inconsistent wherever the biorthogonality drift varies. A coarse
// monodromy (StepsPerPeriod 20) plants a small error in v1(0) that decays
// backward as exp(−2λ(T−t)), concentrating drift variation near t = T,
// while the fine adjoint grid keeps Hermite truncation error ≈1e-9.
// Calibration on this exact configuration: pre-fix mid-knot worst error
// 1.05e-7, post-fix 5.8e-8.
func TestRenormalisedInterpolantBiorthogonality(t *testing.T) {
	h := &osc.Hopf{Lambda: 2, Omega: 2 * math.Pi, Sigma: 0.05}
	pss, err := shooting.Find(h, []float64{1, 0}, 1, &shooting.Options{StepsPerPeriod: 20})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Analyze(h, pss, &Options{Steps: 600})
	if err != nil {
		t.Fatal(err)
	}
	if dec.BiorthoDrift < 1e-5 {
		t.Fatalf("drift %g too small to exercise the renormalisation", dec.BiorthoDrift)
	}
	v := make([]float64, 2)
	x := make([]float64, 2)
	f := make([]float64, 2)
	worst := 0.0
	pts := dec.V1.Points
	for i := 0; i+1 < len(pts); i++ {
		tm := 0.5 * (pts[i].T + pts[i+1].T)
		dec.V1.At(tm, v)
		pss.Orbit.At(tm, x)
		h.Eval(x, f)
		if d := math.Abs(v[0]*f[0] + v[1]*f[1] - 1); d > worst {
			worst = d
		}
	}
	if worst > 8e-8 {
		t.Fatalf("mid-knot |v1ᵀ·ẋs − 1| = %.3e, want < 8e-8 (inconsistent Hermite slopes)", worst)
	}
}

// Regression: Multipliers is documented "|·| sorted desc" after the leading
// structural unit multiplier, but Analyze only swapped the unit one to the
// front. A Hopf oscillator augmented with two OU noise states has
// multipliers {1, e^{−2λT}, e^{−T/τ₁}, e^{−T/τ₂}} whose natural eigenvalue
// order is not modulus-sorted.
func TestMultipliersSortedByModulus(t *testing.T) {
	h := &osc.Hopf{Lambda: 1.5, Omega: 2 * math.Pi, Sigma: 0.05, YOnly: true}
	col, err := dynsys.NewColored(h, []dynsys.ColoredSource{
		{Index: 0, Tau: 0.04, Sigma: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pss, err := shooting.Find(col, col.AugmentState([]float64{1, 0}), h.Period(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Analyze(col, pss, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Multipliers) != 3 {
		t.Fatalf("%d multipliers", len(dec.Multipliers))
	}
	for i := 1; i+1 < len(dec.Multipliers); i++ {
		a, b := cmplx.Abs(dec.Multipliers[i]), cmplx.Abs(dec.Multipliers[i+1])
		if a < b {
			t.Fatalf("multipliers not |·|-sorted desc after the unit one: %v", dec.Multipliers)
		}
	}
	// The exponents must stay aligned with the sorted multipliers.
	for i, m := range dec.Multipliers {
		want := cmplx.Log(m) / complex(dec.T, 0)
		if i == 0 {
			want = 0
		}
		if cmplx.Abs(dec.Exponents[i]-want) > 1e-12 {
			t.Fatalf("exponent %d = %v misaligned with multiplier %v", i, dec.Exponents[i], m)
		}
	}
	// StabilityMargin must reflect the largest non-unit modulus, which for
	// τ = 0.04 (e^{−T/τ} ≈ e^{−25}) is the oscillator mode e^{−2λT}.
	want := 1 - math.Exp(-2*h.Lambda*h.Period())
	if got := dec.StabilityMargin(); math.Abs(got-want) > 1e-4 {
		t.Fatalf("stability margin %g, want %g", got, want)
	}
}

func TestAdjointClosureTypedError(t *testing.T) {
	h := &osc.Hopf{Lambda: 2, Omega: 2 * math.Pi, Sigma: 0.05}
	pss, err := shooting.Find(h, []float64{1, 0}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(h, pss, &Options{Steps: 40, MaxPeriodDrift: 1e-12})
	if err == nil {
		t.Fatal("expected a closure failure with 40 steps and 1e-12 drift budget")
	}
	if !errors.Is(err, ErrAdjointClosure) {
		t.Fatalf("error %v is not ErrAdjointClosure", err)
	}
}

func TestFloquetTraceRecordsStages(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.05}
	pss, err := shooting.Find(h, []float64{1, 0}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tr Trace
	dec, err := Analyze(h, pss, &Options{Trace: &tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Wall <= 0 || tr.AdjointWall <= 0 {
		t.Fatalf("wall times not recorded: %+v", tr)
	}
	if tr.Steps <= 0 {
		t.Fatalf("steps not recorded: %+v", tr)
	}
	if tr.UnitErr != dec.UnitErr || tr.ClosureErr != dec.ClosureErr || tr.BiorthoDrift != dec.BiorthoDrift {
		t.Fatalf("trace diagnostics %+v disagree with decomposition %+v", tr, dec)
	}
	// On failure the trace still reports the stages that ran.
	_, err = Analyze(h, pss, &Options{Trace: &tr, Steps: 40, MaxPeriodDrift: 1e-12})
	if err == nil {
		t.Fatal("expected closure failure")
	}
	if tr.ClosureErr <= 1e-12 {
		t.Fatalf("failed analysis left no closure diagnostic: %+v", tr)
	}
}

// Regression for the multiplier-sort bug on a path where it actually bites:
// linalg.Eigenvalues returns moduli sorted desc, so for a stable cycle the
// unit multiplier is already first and the front-swap is a no-op. But when
// two or more multipliers lie outside the unit circle (diagnostic analysis
// of an unstable orbit with SkipStability), the swap that brings the unit
// multiplier forward drops the displaced large multiplier into the middle
// of the tail: {3, 2, 1, ε} → {1, 2, 3, ε}, violating the documented
// "|·| sorted desc" contract. Built from a Hopf cycle with two repelling
// transverse directions (ż_i = κ_i·z_i, z_i ≡ 0 on the cycle).
func TestMultipliersSortedWhenUnitNotLargest(t *testing.T) {
	lam, om := 1.5, 2*math.Pi
	k1, k2 := math.Log(3.0), math.Log(2.0) // T = 1 ⇒ multipliers 3 and 2
	sys := &dynsys.FiniteDiffSystem{
		N: 4,
		F: func(x, dst []float64) {
			r2 := x[0]*x[0] + x[1]*x[1]
			dst[0] = lam*x[0]*(1-r2) - om*x[1]
			dst[1] = lam*x[1]*(1-r2) + om*x[0]
			dst[2] = k1 * x[2]
			dst[3] = k2 * x[3]
		},
	}
	pss, err := shooting.Find(sys, []float64{1, 0, 0, 0}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Analyze(sys, pss, &Options{SkipStability: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Multipliers) != 4 {
		t.Fatalf("%d multipliers", len(dec.Multipliers))
	}
	if cmplx.Abs(dec.Multipliers[0]-1) > 1e-5 {
		t.Fatalf("leading multiplier %v, want the structural unit one", dec.Multipliers[0])
	}
	for i := 1; i+1 < len(dec.Multipliers); i++ {
		a, b := cmplx.Abs(dec.Multipliers[i]), cmplx.Abs(dec.Multipliers[i+1])
		if a < b {
			t.Fatalf("multipliers not |·|-sorted desc after the unit one: %v", dec.Multipliers)
		}
	}
	if math.Abs(cmplx.Abs(dec.Multipliers[1])-3) > 1e-4 {
		t.Fatalf("largest non-unit multiplier %v, want 3", dec.Multipliers[1])
	}
	// Report must print them in contract order too.
	if got := dec.StabilityMargin(); math.Abs(got-(1-3)) > 1e-3 {
		t.Fatalf("stability margin %g, want −2", got)
	}
}

// The backward adjoint takes as many steps as the orbit has knots, at least
// 2000, so the retry ladder's finer orbits refine it too; an explicit Steps
// wins. HalfStepV1 integrates from the same v1(0) at half the steps and is
// renormalised alike.
func TestAdjointStepsFollowTheOrbit(t *testing.T) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.1}
	for _, c := range []struct{ orbitSteps, adjSteps, want int }{
		{1000, 0, 2000},
		{2000, 0, 2001},
		{4000, 0, 4001},
		{2000, 3000, 3000},
	} {
		pss, err := shooting.Find(h, []float64{1, 0.2}, 1.05, &shooting.Options{StepsPerPeriod: c.orbitSteps})
		if err != nil {
			t.Fatal(err)
		}
		var tr Trace
		opts := &Options{Steps: c.adjSteps, Trace: &tr}
		dec, err := Analyze(h, pss, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(dec.V1.Points) - 1; got != c.want || tr.Steps != c.want {
			t.Errorf("orbit %d steps, Steps %d: adjoint took %d steps (trace %d), want %d", c.orbitSteps, c.adjSteps, got, tr.Steps, c.want)
		}
		half, err := HalfStepV1(h, pss, dec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(half.Points) - 1; got != c.want/2 || tr.Steps != c.want {
			t.Errorf("half-step adjoint took %d steps (trace %d), want %d", got, tr.Steps, c.want/2)
		}
		a, b := make([]float64, 2), make([]float64, 2)
		for _, frac := range []float64{0, 0.3, 0.7} {
			dec.V1.At(frac*pss.T, a)
			half.At(frac*pss.T, b)
			if d := math.Hypot(a[0]-b[0], a[1]-b[1]) / math.Hypot(a[0], a[1]); d > 1e-8 {
				t.Errorf("v1(%gT) differs by %.2g between the adjoint and its half-step twin", frac, d)
			}
		}
	}
}
