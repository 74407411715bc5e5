package phasenoise

// Benchmark harness: one benchmark per paper table/figure (see DESIGN.md §4
// and EXPERIMENTS.md for the paper-vs-measured comparison), plus kernel
// benchmarks for the pipeline's numerical primitives.
//
// Run with: go test -bench=. -benchmem

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/floquet"
	"repro/internal/fourier"
	"repro/internal/linalg"
	"repro/internal/ode"
	"repro/internal/osc"
	"repro/internal/sde"
	"repro/internal/shooting"
	"repro/internal/sweep"
)

// --- Figure 2(a): computed PSD of the bandpass oscillator ------------------

func BenchmarkFig2aPSD(b *testing.B) {
	res, err := experiments.CharacteriseBandpass()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig2a(res, 400)
		if len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// --- Figure 2(b): Monte-Carlo spectrum-analyzer emulation ------------------

func BenchmarkFig2bMonteCarloPSD(b *testing.B) {
	res, err := experiments.CharacteriseBandpass()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2b(res, 4, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: L(f_m) via Eq. 27 and Eq. 28 --------------------------------

func BenchmarkFig3Lfm(b *testing.B) {
	res, err := experiments.CharacteriseBandpass()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig3(res, 40)
		if len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// --- Figure 4(a): the six-row ECL-ring characterisation table --------------

func BenchmarkFig4aTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4a()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("short table")
		}
	}
}

// --- Figure 4(b): (2πf0)²c vs IEE sweep -------------------------------------

func BenchmarkFig4bSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var prev float64 = math.Inf(1)
		for _, p := range []float64{331e-6, 450e-6, 600e-6, 715e-6} {
			row, err := experiments.CharacteriseRing(500, 58, p)
			if err != nil {
				b.Fatal(err)
			}
			if row.FOM >= prev {
				b.Fatalf("FOM not decreasing at IEE=%g", p)
			}
			prev = row.FOM
		}
	}
}

// --- Section 4: LTV covariance growth (the linearisation inconsistency) ----

func BenchmarkSec4LTVGrowth(b *testing.B) {
	h := &osc.Hopf{Lambda: 2, Omega: 2 * math.Pi, Sigma: 0.02}
	pss, err := shooting.Find(h, []float64{1, 0}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := baseline.LTVCovariance(h, pss, 30, 400)
		if g.TangentSlope() <= 0 {
			b.Fatal("no tangent growth")
		}
	}
}

// --- Section 6: Var[α(t)] = c·t via the exact phase SDE (Eq. 9) ------------

func BenchmarkSec6AlphaVariance(b *testing.B) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.05}
	res, err := core.Characterise(h, []float64{1, 0}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	phase := res.PhaseSDE(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st sde.Stats
		for p := 0; p < 100; p++ {
			rng := rand.New(rand.NewSource(int64(i*1000 + p)))
			path := sde.EulerMaruyama(phase, []float64{0}, 0, res.T()/50, 20*50, 20*50, rng)
			st.Add(path.X[len(path.X)-1][0])
		}
		if st.Var() <= 0 {
			b.Fatal("degenerate variance")
		}
	}
}

// --- Section 7: total power preservation (Eq. 25) ---------------------------

func BenchmarkSec7TotalPower(b *testing.B) {
	res, err := experiments.CharacteriseBandpass()
	if err != nil {
		b.Fatal(err)
	}
	sp := res.OutputSpectrum(0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Integrate the Lorentzian PSD contiguously across the first four
		// harmonic lines (0 to 4.5·f0); resolution ≪ the 10.5 Hz line width.
		f0 := sp.F0
		lo, hi := 0.0, 4.5*f0
		n := 60000
		df := (hi - lo) / float64(n)
		sum := 0.0
		for k := 0; k <= n; k++ {
			w := 1.0
			if k == 0 || k == n {
				w = 0.5
			}
			sum += w * sp.SSB(lo+float64(k)*df) * df
		}
		if math.Abs(sum-sp.TotalPower()) > 0.05*sp.TotalPower() {
			b.Fatalf("power %g vs Eq.25 %g", sum, sp.TotalPower())
		}
	}
}

// --- Section 8: per-source noise budget of the ring (Eqs. 30–31) -----------

func BenchmarkSec8SourceBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CharacteriseRingFull(500, 58, 331e-6)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerSource) != 12 {
			b.Fatal("missing sources")
		}
	}
}

// --- Section 9 step 5: backward-stable vs forward-unstable adjoint ----------

func BenchmarkSec9AdjointStability(b *testing.B) {
	h := &osc.Hopf{Lambda: 2, Omega: 2 * math.Pi, Sigma: 0.1}
	pss, err := shooting.Find(h, []float64{1, 0}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	th0 := math.Atan2(pss.X0[1], pss.X0[0])
	v10 := []float64{-math.Sin(th0) / h.Omega, math.Cos(th0) / h.Omega}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		growth := baseline.ForwardAdjointGrowth(h, pss, v10, 1e-9, 4, 1000)
		if growth < 1e3 {
			b.Fatal("forward adjoint unexpectedly stable")
		}
	}
}

// --- Section 8 jitter: Var[t_k] = c·k·T Monte Carlo -------------------------

func BenchmarkMcNeillJitter(b *testing.B) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}
	res, err := core.Characterise(h, []float64{1, 0}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	full := sde.System{
		Dim: 2, NumNoise: h.NumNoise(),
		Drift: func(tt float64, x, dst []float64) { h.Eval(x, dst) },
		Diff:  func(tt float64, x []float64, dst []float64) { h.Noise(x, dst) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jr, err := experiments.JitterExperiment(full, res, 0, 60, 20, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if jr.MeasuredC <= 0 {
			b.Fatal("degenerate jitter slope")
		}
	}
}

// --- Batch sweep engine ------------------------------------------------------

// sweepGrid builds an 8-point Hopf frequency sweep, the workload of the
// parallel-speedup acceptance criterion: compare BenchmarkSweepSerial8
// against BenchmarkSweepParallel8 on a multi-core runner (>= 2x on 4 cores).
func sweepGrid() []sweep.Point {
	pts := make([]sweep.Point, 8)
	for i := range pts {
		h := &osc.Hopf{Lambda: 1, Omega: 2 + float64(i), Sigma: 0.02}
		pts[i] = sweep.Point{
			Name:   "hopf",
			System: h,
			X0:     []float64{1, 0.1},
			TGuess: h.Period() * 1.05,
		}
	}
	return pts
}

func benchmarkSweep(b *testing.B, workers int) {
	pts := sweepGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range sweep.Run(pts, &sweep.Config{Workers: workers}) {
			if !r.OK() {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkSweepSerial8(b *testing.B)   { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel8(b *testing.B) { benchmarkSweep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSweepLadderRecovery measures the retry-ladder overhead on a point
// that needs all three rungs (see sweep.TestRunLadderRecoversHardPoint).
func BenchmarkSweepLadderRecovery(b *testing.B) {
	pts := []sweep.Point{{
		Name:   "vdp-hard",
		System: &osc.VanDerPol{Mu: 3, Sigma: 0.01},
		X0:     []float64{2, 0},
		TGuess: 9.0,
		Opts:   &core.Options{Shooting: &shooting.Options{StepsPerPeriod: 60}},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sweep.Run(pts, nil)[0]
		if !r.OK() || len(r.Attempts) != 3 {
			b.Fatalf("ladder behaviour changed: ok=%v attempts=%d", r.OK(), len(r.Attempts))
		}
	}
}

// --- Pipeline kernels --------------------------------------------------------

func BenchmarkShootingHopf(b *testing.B) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}
	for i := 0; i < b.N; i++ {
		if _, err := shooting.Find(h, []float64{0.8, 0.1}, 0.95, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloquetAnalyze(b *testing.B) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}
	pss, err := shooting.Find(h, []float64{1, 0}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := floquet.Analyze(h, pss, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCharacteriseBandpass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CharacteriseBandpass(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCharacteriseRing6State(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CharacteriseRing(500, 58, 331e-6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonodromyEigenvalues(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := linalg.NewMatrix(12, 12)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 0.3
	}
	for i := 0; i < 12; i++ {
		m.Set(i, i, m.At(i, i)+0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.Eigenvalues(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT4096(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fourier.FFT(x)
	}
}

func BenchmarkEulerMaruyama(b *testing.B) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.05}
	sys := sde.System{
		Dim: 2, NumNoise: 2,
		Drift: func(t float64, x, dst []float64) { h.Eval(x, dst) },
		Diff:  func(t float64, x []float64, dst []float64) { h.Noise(x, dst) },
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sde.EulerMaruyama(sys, []float64{1, 0}, 0, 1e-3, 10000, 10000, rng)
	}
}

// BenchmarkPhaseSDEDiff exercises the Monte-Carlo inner loop of the exact
// phase SDE; -benchmem must report 0 allocs/op (scratch is hoisted out of
// the Diff closure).
func BenchmarkPhaseSDEDiff(b *testing.B) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.05}
	res, err := core.Characterise(h, []float64{1, 0}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys := res.PhaseSDE(h)
	alpha := []float64{0.01}
	dst := make([]float64, sys.NumNoise)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Diff(float64(i)*1e-3, alpha, dst)
	}
}

func BenchmarkVariationalSTM(b *testing.B) {
	h := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}
	f := func(t float64, x, dst []float64) { h.Eval(x, dst) }
	jac := func(t float64, x []float64, dst []float64) { h.Jacobian(x, dst) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ode.Variational(f, jac, 0, 1, []float64{1, 0}, 2000, nil, nil)
	}
}
