// Package core implements the paper's primary contribution: the unified
// phase-noise characterisation of autonomous oscillators
// (Demir–Mehrotra–Roychowdhury, DAC 1998).
//
// Given an oscillator model (dynsys.System), the pipeline is
//
//	shooting.Find  →  floquet.Analyze  →  core.Characterise
//
// producing the scalar phase-diffusion constant
//
//	c = (1/T) ∫₀ᵀ v1ᵀ(τ) B(xs(τ)) Bᵀ(xs(τ)) v1(τ) dτ      (Eq. 29)
//
// from which every practical figure of merit follows: the Lorentzian output
// spectrum (Eqs. 23/24), single-sideband phase noise L(f_m) (Eqs. 26–28),
// timing jitter Var[t_k] = c·k·T, per-source contributions c_i (Eqs. 30–31)
// and per-node sensitivities (Eq. 32).
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/floquet"
	"repro/internal/fourier"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/sde"
	"repro/internal/shooting"
)

// coreInstruments are the pipeline-level metrics.
type coreInstruments struct {
	ok      *obs.Counter   // pn_core_characterisations_total{outcome="ok"}
	failed  *obs.Counter   // pn_core_characterisations_total{outcome="error"}
	cRelErr *obs.Histogram // pn_core_c_rel_error
}

var coreMetrics = obs.NewView(func(r *obs.Registry) *coreInstruments {
	runs := r.CounterVec("pn_core_characterisations_total", "Characterise calls, by outcome.", "outcome")
	return &coreInstruments{
		ok:      runs.With("ok"),
		failed:  runs.With("error"),
		cRelErr: r.Histogram("pn_core_c_rel_error", "Estimated relative error of each characterised c.", obs.ExpBuckets(1e-14, 10, 14)),
	}
})

// SourceContribution is one noise source's share of the phase-diffusion
// constant (Eq. 30): c = Σ c_i.
type SourceContribution struct {
	Label    string  `json:"label"`
	C        float64 `json:"c"`        // c_i in s²·Hz
	Fraction float64 `json:"fraction"` // c_i / c (Eq. 31)
}

// Result is a complete phase-noise characterisation of one oscillator.
type Result struct {
	PSS     *shooting.PSS
	Floquet *floquet.Decomposition

	C float64 // phase-diffusion constant, s²·Hz (Eq. 29)
	// CRelErr is the estimated relative error of C: the adjoint's, the
	// quadrature's and the orbit's shares, summed with a safety factor.
	// Characterise sets it; FromDecomposition leaves it 0 (not estimated).
	CRelErr float64

	// PerSource decomposes C by noise source, sorted by decreasing share.
	PerSource []SourceContribution
	// Sensitivity[k] = cs^(k) (Eq. 32): the c produced by a unit-intensity
	// source attached to state equation k.
	Sensitivity []float64

	labels []string
}

// T returns the oscillation period.
func (r *Result) T() float64 { return r.PSS.T }

// F0 returns the oscillation frequency in Hz.
func (r *Result) F0() float64 { return r.PSS.F0() }

// CornerFreq returns the Lorentzian corner (half-width) f_c = π f0² c of the
// first-harmonic phase-noise spectrum; below f_c the 1/f² approximation
// (Eq. 28) breaks down and the exact form (Eq. 27) must be used.
func (r *Result) CornerFreq() float64 { return r.Scalars().CornerFreq() }

// Scalars are the few numbers of a Result that served code reads: the period,
// c (Eq. 29) and its per-source split with the source labels (Eqs. 30–31).
// They travel beside the result's encoded bytes, so a cache hit is summarised
// or composed without decoding the trajectories.
type Scalars struct {
	T         float64
	C         float64
	PerSource []SourceContribution
}

// Scalars returns r's scalars, sharing its PerSource slice. r must pass Check.
func (r *Result) Scalars() Scalars {
	return Scalars{T: r.PSS.T, C: r.C, PerSource: r.PerSource}
}

// F0 returns the oscillation frequency in Hz, exactly as Result.F0 does.
func (s Scalars) F0() float64 { return 1 / s.T }

// CornerFreq returns the Lorentzian corner f_c = π f0² c (see
// Result.CornerFreq).
func (s Scalars) CornerFreq() float64 {
	f0 := s.F0()
	return math.Pi * f0 * f0 * s.C
}

// JitterVariance returns the mean-square timing error of the k-th clock
// transition, Var[t_k] = c·k·T (paper Section 8, "Timing jitter").
func (r *Result) JitterVariance(k int) float64 {
	return r.C * float64(k) * r.PSS.T
}

// JitterRMSAfter returns the RMS accumulated jitter after elapsed time
// τ ≈ kT, σ(τ) = √(c·τ).
func (r *Result) JitterRMSAfter(tau float64) float64 {
	return math.Sqrt(r.C * tau)
}

// Trace aggregates per-stage diagnostics of one Characterise call: how long
// each pipeline stage took, how hard the solvers worked, and how well they
// converged. Attach a zero Trace to Options.Trace; on failure the populated
// stages show where the pipeline stopped.
type Trace struct {
	Shooting   shooting.Trace // Newton shooting diagnostics
	Floquet    floquet.Trace  // Floquet/adjoint diagnostics
	QuadPoints int            // quadrature points used for the c integral
	QuadWall   time.Duration  // wall-clock time of the c quadratures
	Wall       time.Duration  // total wall-clock time of Characterise
}

// Options configures Characterise.
type Options struct {
	Shooting *shooting.Options
	Floquet  *floquet.Options
	// QuadPoints sets the number of quadrature points for the c integral
	// (default: the adjoint trajectory knots).
	QuadPoints int
	// Trace, when non-nil, receives per-stage diagnostics. Stage traces
	// configured directly on Shooting/Floquet options are preserved;
	// otherwise the stages record into this aggregate trace.
	Trace *Trace
	// Budget, when non-nil, threads a cancellation/wall-clock token through
	// every pipeline stage (polled at integrator-step granularity). On a
	// cut-off, Characterise returns a wrapped budget.ErrCanceled or
	// budget.ErrBudgetExceeded naming the interrupted stage, and the Trace
	// shows how far each stage got. Stage budgets configured directly on
	// Shooting/Floquet options are preserved.
	Budget *budget.Token
	// Partial, when non-nil, receives intermediate pipeline products as each
	// stage completes, so a caller keeps everything the pipeline learned even
	// when a later stage fails or the budget expires.
	Partial *Partial
	// Span, when non-nil, parents the "core.Characterise" span (with nested
	// shooting/floquet/quadrature child spans) under an existing trace. When
	// nil, Characterise starts a root span on the process-wide emitter — or
	// none at all if tracing is off.
	Span *obs.Span
	// ReusePSS, when non-nil, skips the shooting stage entirely and runs the
	// downstream analysis on this already-converged periodic steady state.
	// Retry ladders use it when an earlier attempt failed downstream of
	// shooting with unchanged shooting knobs: the solution is still valid,
	// only the adjoint or quadrature resolution changed, so re-running Newton
	// shooting would reproduce it at full cost. The caller owns the validity
	// argument (same system, same shooting knobs, residual within tolerance).
	ReusePSS *shooting.PSS
}

// Partial collects the pipeline products that had already converged when
// Characterise failed partway: the periodic steady state after shooting, the
// Floquet decomposition after the adjoint analysis. Fields are nil for stages
// that never completed.
type Partial struct {
	PSS     *shooting.PSS
	Floquet *floquet.Decomposition
}

// Characterise runs the full Section-9 pipeline: periodic steady state by
// shooting, Floquet decomposition with the stable backward-adjoint
// computation of v1(t), and the quadratures for c, per-source contributions
// and per-node sensitivities.
func Characterise(sys dynsys.System, x0 []float64, tGuess float64, opts *Options) (*Result, error) {
	var parent *obs.Span
	if opts != nil {
		parent = opts.Span
	}
	sp := obs.StartSpan(parent, "core.Characterise")
	res, err := characterise(sys, x0, tGuess, opts, sp)
	m := coreMetrics.Get()
	if err != nil {
		m.failed.Inc()
	} else {
		m.ok.Inc()
		m.cRelErr.Observe(res.CRelErr)
		sp.SetAttr("c", res.C)
		sp.SetAttr("c_rel_err", res.CRelErr)
		sp.SetAttr("period", res.T())
	}
	sp.EndErr(err)
	return res, err
}

// stagePlan is one point's fully resolved pipeline configuration: stage
// option copies with traces and budgets threaded into the aggregate, so the
// caller's option structs stay untouched.
type stagePlan struct {
	so   *shooting.Options
	fo   *floquet.Options
	qp   int
	tr   *Trace
	bud  *budget.Token
	part *Partial
}

func resolveStages(opts *Options) stagePlan {
	var p stagePlan
	if opts != nil {
		p.so, p.fo, p.qp, p.tr = opts.Shooting, opts.Floquet, opts.QuadPoints, opts.Trace
		p.bud, p.part = opts.Budget, opts.Partial
	}
	if p.tr != nil || p.bud != nil {
		sc := shooting.Options{}
		if p.so != nil {
			sc = *p.so
		}
		if p.tr != nil && sc.Trace == nil {
			sc.Trace = &p.tr.Shooting
		}
		if sc.Budget == nil {
			sc.Budget = p.bud
		}
		p.so = &sc
		fc := floquet.Options{}
		if p.fo != nil {
			fc = *p.fo
		}
		if p.tr != nil && fc.Trace == nil {
			fc.Trace = &p.tr.Floquet
		}
		if fc.Budget == nil {
			fc.Budget = p.bud
		}
		p.fo = &fc
	}
	return p
}

func characterise(sys dynsys.System, x0 []float64, tGuess float64, opts *Options, sp *obs.Span) (*Result, error) {
	p := resolveStages(opts)
	so, fo, qp, tr := p.so, p.fo, p.qp, p.tr
	bud, part := p.bud, p.part
	if tr != nil {
		*tr = Trace{}
		start := time.Now()
		defer func() { tr.Wall = time.Since(start) }()
	}
	var pss *shooting.PSS
	var err error
	if opts != nil && opts.ReusePSS != nil {
		pss = opts.ReusePSS
		sp.SetAttr("pss_reused", true)
	} else {
		ssp := obs.StartSpan(sp, "shooting.Find")
		pss, err = shooting.Find(sys, x0, tGuess, so)
		// SetAttr's argument escapes: box the values only for a span that
		// records them.
		if err == nil && ssp != nil {
			ssp.SetAttr("residual", pss.Residual)
			ssp.SetAttr("newton_iters", pss.Iters)
			ssp.SetAttr("transient_periods", pss.TransientPeriods())
		}
		ssp.EndErr(err)
		if err != nil {
			if budget.Is(err) {
				budget.RecordTrip("shooting")
			}
			return nil, fmt.Errorf("core: periodic steady state: %w", err)
		}
	}
	if part != nil {
		part.PSS = pss
	}
	fsp := obs.StartSpan(sp, "floquet.Analyze")
	dec, err := floquet.Analyze(sys, pss, fo)
	if err == nil {
		fsp.SetAttr("closure_err", dec.ClosureErr)
		fsp.SetAttr("unit_err", dec.UnitErr)
		fsp.SetAttr("biortho_drift", dec.BiorthoDrift)
		fsp.SetAttr("adjoint_steps", len(dec.V1.Points)-1)
	}
	fsp.EndErr(err)
	if err != nil {
		if budget.Is(err) {
			budget.RecordTrip("floquet")
		}
		return nil, fmt.Errorf("core: floquet analysis: %w", err)
	}
	if part != nil {
		part.Floquet = dec
	}
	if err := bud.Err(); err != nil {
		budget.RecordTrip("quadrature")
		return nil, fmt.Errorf("core: before c quadrature: %w", err)
	}
	if qp <= 0 {
		qp = max(len(dec.V1.Points), 1000) // FromDecomposition's default grid
	}
	qsp := obs.StartSpan(sp, "quadrature")
	qStart := time.Now()
	res, q := fromDecomposition(sys, pss, dec, qp)
	qsp.SetAttr("points", qp)
	qsp.End()
	if tr != nil {
		tr.QuadWall = time.Since(qStart)
		tr.QuadPoints = qp
	}
	esp := obs.StartSpan(sp, "c_error")
	res.CRelErr, err = estimateCErr(sys, pss, dec, q, qp, fo, bud)
	esp.EndErr(err)
	if err != nil {
		if budget.Is(err) {
			budget.RecordTrip("c_error")
		}
		return nil, err
	}
	return res, nil
}

// CharacteriseAuto is Characterise without a period guess: it integrates
// the system for tMax, estimates the period and a point on the cycle from
// mean-crossings, then runs the full pipeline. tMax should cover at least a
// few dozen oscillation periods.
func CharacteriseAuto(sys dynsys.System, x0 []float64, tMax float64, opts *Options) (*Result, error) {
	var bud *budget.Token
	if opts != nil {
		bud = opts.Budget
	}
	T, xc, err := shooting.EstimatePeriodBudget(sys, x0, tMax, bud)
	if err != nil {
		return nil, fmt.Errorf("core: period estimation: %w", err)
	}
	return Characterise(sys, xc, T, opts)
}

// FromDecomposition computes the c quadratures for an existing periodic
// steady state and Floquet decomposition (Eqs. 29–32). quadPoints <= 0
// selects a default grid.
func FromDecomposition(sys dynsys.System, pss *shooting.PSS, dec *floquet.Decomposition, quadPoints int) (*Result, error) {
	res, _ := fromDecomposition(sys, pss, dec, quadPoints)
	return res, nil
}

// fromDecomposition is FromDecomposition, also returning the quadrature
// sums the error estimate reads.
func fromDecomposition(sys dynsys.System, pss *shooting.PSS, dec *floquet.Decomposition, quadPoints int) (*Result, quadSums) {
	if quadPoints <= 0 {
		quadPoints = max(len(dec.V1.Points), 1000)
	}
	q := quadrature(sys, pss, dec.V1, quadPoints)
	p := sys.NumNoise()
	labels := sys.NoiseLabels()
	contribs := make([]SourceContribution, p)
	for j := 0; j < p; j++ {
		frac := 0.0
		if q.c > 0 {
			frac = q.perSource[j] / q.c
		}
		lbl := fmt.Sprintf("source%d", j)
		if j < len(labels) {
			lbl = labels[j]
		}
		contribs[j] = SourceContribution{Label: lbl, C: q.perSource[j], Fraction: frac}
	}
	sort.SliceStable(contribs, func(i, j int) bool { return contribs[i].C > contribs[j].C })

	return &Result{
		PSS:         pss,
		Floquet:     dec,
		C:           q.c,
		PerSource:   contribs,
		Sensitivity: q.sens,
		labels:      labels,
	}, q
}

// quadSums are the Eqs. 29–32 quadratures of one v1 over qp samples: c, its
// per-source split and the per-node sensitivities, plus cHalf, c from every
// other sample, whose distance from c bounds the quadrature's own error.
type quadSums struct {
	c, cHalf  float64
	perSource []float64
	sens      []float64
}

// quadrature runs the uniform trapezoid rule over one period, sampling the
// orbit and v1 at t_k = k·T/qp: the integrand is T-periodic, so the rule
// converges spectrally fast. Both trajectories are on uniform grids, so the
// O(1) locators replace a binary search per sample with identical
// interpolants.
func quadrature(sys dynsys.System, pss *shooting.PSS, v1 *ode.Trajectory, qp int) quadSums {
	n := sys.Dim()
	p := sys.NumNoise()
	x := make([]float64, n)
	v := make([]float64, n)
	b := make([]float64, n*p)
	q := quadSums{perSource: make([]float64, p), sens: make([]float64, n)}
	var even, first, last float64 // the integrand summed over even k, at k = 0 and at k = qp−1
	orbitLoc := ode.NewLocator(pss.Orbit)
	v1Loc := ode.NewLocator(v1)
	h := pss.T / float64(qp)
	for k := 0; k < qp; k++ {
		tk := float64(k) * h
		orbitLoc.At(tk, x)
		v1Loc.At(tk, v)
		sys.Noise(x, b)
		// [v1ᵀ B]_j for each source column j.
		f := 0.0
		for j := 0; j < p; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += v[i] * b[i*p+j]
			}
			q.perSource[j] += s * s
			q.c += s * s
			f += s * s
		}
		if k%2 == 0 {
			even += f
		}
		if k == 0 {
			first = f
		}
		last = f
		for i := 0; i < n; i++ {
			q.sens[i] += v[i] * v[i]
		}
	}
	inv := 1 / float64(qp) // (1/T)·h = 1/qp
	q.c *= inv
	for j := range q.perSource {
		q.perSource[j] *= inv
	}
	for i := range q.sens {
		q.sens[i] *= inv
	}
	// Every other sample at spacing 2h; for odd qp the last gap, from
	// t_{qp−1} back round to T, is h, and its two ends weigh 3h/2.
	q.cHalf = 2 * even
	if qp%2 == 1 {
		q.cHalf -= (first + last) / 2
	}
	q.cHalf *= inv
	return q
}

// OutputSpectrum extracts the Fourier coefficients X_i (i = −nh..nh) of
// state component `component` of the periodic steady state and pairs them
// with c, yielding the Lorentzian output spectrum of that oscillator output.
func (r *Result) OutputSpectrum(component, nh int) *Spectrum {
	ns := 1 << 12
	samples := make([]float64, ns)
	buf := make([]float64, len(r.PSS.X0))
	for k := 0; k < ns; k++ {
		r.PSS.Orbit.At(r.PSS.T*float64(k)/float64(ns), buf)
		samples[k] = buf[component]
	}
	coeffs := fourier.SeriesCoefficients(samples, nh)
	return &Spectrum{F0: r.F0(), C: r.C, Coeffs: coeffs}
}

// PhaseSDE returns the exact nonlinear phase-deviation SDE of Eq. (9),
//
//	dα = v1ᵀ(t+α)·B(xs(t+α))·dW(t),
//
// as an sde.System with a single state (α) and the oscillator's p noise
// sources, suitable for Monte-Carlo simulation of α(t) without simulating
// the full state. (Itô interpretation, zero drift.)
//
// The returned system reuses internal scratch buffers across Diff calls —
// the Monte-Carlo inner loop — so it must not be shared between goroutines.
// For sde.Ensemble runs use PhaseSDEFactory, which hands each worker its
// own system.
func (r *Result) PhaseSDE(sys dynsys.System) sde.System {
	n := sys.Dim()
	p := sys.NumNoise()
	x := make([]float64, n)
	v := make([]float64, n)
	b := make([]float64, n*p)
	orbitLoc := ode.NewLocator(r.PSS.Orbit)
	v1Loc := ode.NewLocator(r.Floquet.V1)
	return sde.System{
		Dim:      1,
		NumNoise: p,
		Drift:    func(t float64, x, dst []float64) { dst[0] = 0 },
		Diff: func(t float64, alpha []float64, dst []float64) {
			ts := t + alpha[0]
			tm := math.Mod(ts, r.PSS.T)
			if tm < 0 {
				tm += r.PSS.T
			}
			orbitLoc.At(tm, x)
			v1Loc.At(tm, v)
			sys.Noise(x, b)
			for j := 0; j < p; j++ {
				s := 0.0
				for i := 0; i < n; i++ {
					s += v[i] * b[i*p+j]
				}
				dst[j] = s
			}
		},
	}
}

// PhaseSDEFactory returns a constructor for per-goroutine phase-deviation
// systems: each call yields an independent PhaseSDE sharing the (read-only)
// orbit and v1 trajectories but owning its own scratch buffers, so the
// factory can feed one system to every sde.Ensemble worker without races.
func (r *Result) PhaseSDEFactory(sys dynsys.System) func() sde.System {
	return func() sde.System { return r.PhaseSDE(sys) }
}

// Report renders a human-readable characterisation summary.
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Oscillation period  T  = %.9e s  (f0 = %.6e Hz)\n", r.T(), r.F0())
	fmt.Fprintf(&sb, "Phase diffusion     c  = %.6e s²·Hz\n", r.C)
	if r.CRelErr > 0 {
		fmt.Fprintf(&sb, "Estimated error of c   = %.1e relative\n", r.CRelErr)
	}
	fmt.Fprintf(&sb, "Lorentzian corner   fc = %.6e Hz (π f0² c)\n", r.CornerFreq())
	fmt.Fprintf(&sb, "Jitter after 1 period  = %.6e s RMS\n", math.Sqrt(r.JitterVariance(1)))
	fmt.Fprintf(&sb, "Floquet multipliers    =")
	for _, m := range r.Floquet.Multipliers {
		if imag(m) == 0 {
			fmt.Fprintf(&sb, " %.6g", real(m))
		} else {
			fmt.Fprintf(&sb, " %.6g%+.6gi", real(m), imag(m))
		}
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "Stability margin       = %.3e\n", r.Floquet.StabilityMargin())
	if len(r.PerSource) > 0 {
		sb.WriteString("Noise-source contributions (Eq. 31):\n")
		for _, s := range r.PerSource {
			fmt.Fprintf(&sb, "  %-24s c_i = %.4e  (%5.1f%%)\n", s.Label, s.C, 100*s.Fraction)
		}
	}
	sb.WriteString("Per-node phase-noise sensitivities (Eq. 32):\n")
	for k, s := range r.Sensitivity {
		fmt.Fprintf(&sb, "  node %-2d  cs = %.4e\n", k, s)
	}
	return sb.String()
}
