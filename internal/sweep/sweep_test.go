package sweep

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/floquet"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/osc"
	"repro/internal/shooting"
)

func hopfGrid(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		h := &osc.Hopf{Lambda: 1, Omega: 2 + 0.5*float64(i), Sigma: 0.02}
		pts[i] = Point{
			Name:   "hopf-" + string(rune('a'+i)),
			System: h,
			X0:     []float64{1, 0.1},
			TGuess: h.Period() * 1.05,
		}
	}
	return pts
}

func TestRunMatchesSerialCharacterise(t *testing.T) {
	pts := hopfGrid(6)
	results := Run(pts, nil)
	if len(results) != len(pts) {
		t.Fatalf("%d results for %d points", len(results), len(pts))
	}
	for i, r := range results {
		if r.Index != i || r.Name != pts[i].Name {
			t.Fatalf("result %d out of order: index=%d name=%q", i, r.Index, r.Name)
		}
		if !r.OK() {
			t.Fatalf("point %d failed: %v", i, r.Err)
		}
		if len(r.Attempts) != 1 || r.Attempts[0].RungName != "base" {
			t.Fatalf("point %d: easy point needed %d attempts", i, len(r.Attempts))
		}
		want, err := core.Characterise(pts[i].System, pts[i].X0, pts[i].TGuess, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Result.C-want.C) > 1e-12*want.C {
			t.Fatalf("point %d: sweep c=%g, serial c=%g", i, r.Result.C, want.C)
		}
		if r.Attempts[0].Trace.Shooting.Iters == 0 || r.Attempts[0].Trace.Wall <= 0 {
			t.Fatalf("point %d: attempt trace empty: %+v", i, r.Attempts[0].Trace)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	pts := hopfGrid(5)
	serial := Run(pts, &Config{Workers: 1})
	parallel := Run(pts, &Config{Workers: 8})
	for i := range serial {
		if serial[i].Result.C != parallel[i].Result.C {
			t.Fatalf("point %d: c differs across worker counts", i)
		}
	}
}

// A stiff Van der Pol cycle under-resolved at StepsPerPeriod=60 walks the
// whole ladder: the base rung loses the unit multiplier, the tight rung
// (2x steps) fails adjoint closure, and the max rung (4x steps) converges.
func hardVdPPoint() Point {
	return Point{
		Name:   "vdp-hard",
		System: &osc.VanDerPol{Mu: 3, Sigma: 0.01},
		X0:     []float64{2, 0},
		TGuess: 9.0,
		Opts:   &core.Options{Shooting: &shooting.Options{StepsPerPeriod: 60}},
	}
}

func TestRunLadderRecoversHardPoint(t *testing.T) {
	pts := append(hopfGrid(2), hardVdPPoint())
	results := Run(pts, nil)
	r := results[2]
	if !r.OK() {
		t.Fatalf("ladder failed to recover hard point: %v", r.Err)
	}
	if len(r.Attempts) != 3 {
		t.Fatalf("expected 3 attempts, got %d", len(r.Attempts))
	}
	if !errors.Is(r.Attempts[0].Err, floquet.ErrNoUnitMultiplier) {
		t.Fatalf("attempt 0: want ErrNoUnitMultiplier, got %v", r.Attempts[0].Err)
	}
	if !errors.Is(r.Attempts[1].Err, floquet.ErrAdjointClosure) {
		t.Fatalf("attempt 1: want ErrAdjointClosure, got %v", r.Attempts[1].Err)
	}
	if r.Attempts[2].Err != nil || r.Attempts[2].RungName != "max" {
		t.Fatalf("attempt 2: %q err=%v", r.Attempts[2].RungName, r.Attempts[2].Err)
	}
	// The recovered characterisation must agree with a well-resolved run.
	ref, err := core.Characterise(pts[2].System, pts[2].X0, pts[2].TGuess,
		&core.Options{Shooting: &shooting.Options{StepsPerPeriod: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(r.Result.C-ref.C) / ref.C; rel > 1e-3 {
		t.Fatalf("recovered c off by %g relative", rel)
	}
	// Failed attempts still carry diagnostics showing how far they got.
	if r.Attempts[0].Trace.Floquet.UnitErr < 1e-3 {
		t.Fatalf("attempt 0 trace should record the large unit error, got %g", r.Attempts[0].Trace.Floquet.UnitErr)
	}
}

func TestRunStructuredFailureDoesNotAbortBatch(t *testing.T) {
	impossible := Point{
		Name:   "impossible",
		System: &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02},
		X0:     []float64{1, 0.1},
		TGuess: 1.05,
		// A closure tolerance below anything the ladder can reach: every
		// rung fails with ErrAdjointClosure, exhausting the ladder.
		Opts: &core.Options{Floquet: &floquet.Options{Steps: 30, MaxPeriodDrift: 1e-13}},
	}
	pts := append(hopfGrid(3), impossible)
	results := Run(pts, nil)
	for i := 0; i < 3; i++ {
		if !results[i].OK() {
			t.Fatalf("good point %d failed: %v", i, results[i].Err)
		}
	}
	bad := results[3]
	if bad.OK() {
		t.Fatal("impossible point reported success")
	}
	if !errors.Is(bad.Err, floquet.ErrAdjointClosure) {
		t.Fatalf("want structured ErrAdjointClosure, got %v", bad.Err)
	}
	if len(bad.Attempts) != 3 {
		t.Fatalf("ladder should be exhausted: %d attempts", len(bad.Attempts))
	}
	for i, a := range bad.Attempts {
		if a.Err == nil {
			t.Fatalf("attempt %d unexpectedly succeeded", i)
		}
		if a.Trace.Floquet.ClosureErr <= 0 {
			t.Fatalf("attempt %d lost its closure diagnostic", i)
		}
	}
}

func TestRunNonRetryableFailsFast(t *testing.T) {
	pts := []Point{{
		Name:   "bad-guess",
		System: &osc.Hopf{Lambda: 1, Omega: 2, Sigma: 0.01},
		X0:     []float64{1, 0},
		TGuess: -1, // structural error: no ladder rung can fix a negative guess
	}}
	results := Run(pts, nil)
	if results[0].OK() {
		t.Fatal("expected failure")
	}
	if len(results[0].Attempts) != 1 {
		t.Fatalf("non-retryable error must not climb the ladder: %d attempts", len(results[0].Attempts))
	}
}

func TestRetryableClassification(t *testing.T) {
	for _, err := range []error{shooting.ErrNoConvergence, floquet.ErrNoUnitMultiplier, floquet.ErrAdjointClosure} {
		if !Retryable(err) {
			t.Fatalf("%v should be retryable", err)
		}
		// Wrapped, as the pipeline returns them.
		if !Retryable(errors.Join(errors.New("core: floquet analysis"), err)) {
			t.Fatalf("wrapped %v should be retryable", err)
		}
	}
	for _, err := range []error{nil, errors.New("boom"), floquet.ErrUnstableCycle} {
		if Retryable(err) {
			t.Fatalf("%v should not be retryable", err)
		}
	}
}

func TestApplyRungScalesAgainstDefaults(t *testing.T) {
	r := Rung{TolDiv: 10, StepsFactor: 2, AdjointFactor: 2, TransientExtra: 20}
	o := applyRung(nil, r)
	if math.Abs(o.Shooting.Tol-1e-11) > 1e-26 {
		t.Fatalf("Tol = %g", o.Shooting.Tol)
	}
	if o.Shooting.StepsPerPeriod != 4000 {
		t.Fatalf("StepsPerPeriod = %d", o.Shooting.StepsPerPeriod)
	}
	if o.Shooting.Transient != 40 {
		t.Fatalf("Transient = %g", o.Shooting.Transient)
	}
	if o.Floquet.Steps != 0 {
		t.Fatal("default adjoint steps must stay auto-scaled")
	}

	base := &core.Options{
		Shooting: &shooting.Options{Tol: 1e-8, StepsPerPeriod: 500, Transient: 5},
		Floquet:  &floquet.Options{Steps: 100},
	}
	o = applyRung(base, r)
	if math.Abs(o.Shooting.Tol-1e-9) > 1e-24 || o.Shooting.StepsPerPeriod != 1000 || o.Shooting.Transient != 25 {
		t.Fatalf("base scaling wrong: %+v", o.Shooting)
	}
	if o.Floquet.Steps != 200 {
		t.Fatalf("adjoint steps = %d", o.Floquet.Steps)
	}
	// The caller's structs must never be mutated.
	if base.Shooting.Tol != 1e-8 || base.Shooting.StepsPerPeriod != 500 || base.Floquet.Steps != 100 {
		t.Fatalf("base options mutated: %+v %+v", base.Shooting, base.Floquet)
	}
}

func TestHooksStreamProgress(t *testing.T) {
	pts := append(hopfGrid(4), hardVdPPoint())
	var attempts, points int
	var names []string
	results := Run(pts, &Config{
		Workers:   4,
		OnAttempt: func(i int, name string, a Attempt) { attempts++ },
		OnPoint: func(r PointResult) {
			points++
			names = append(names, r.Name)
		},
	})
	wantAttempts := 0
	for _, r := range results {
		wantAttempts += len(r.Attempts)
	}
	if attempts != wantAttempts {
		t.Fatalf("OnAttempt fired %d times, want %d", attempts, wantAttempts)
	}
	if points != len(pts) || len(names) != len(pts) {
		t.Fatalf("OnPoint fired %d times, want %d", points, len(pts))
	}
}

func TestRunParallelSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs >= 4 CPUs, have %d", runtime.GOMAXPROCS(0))
	}
	pts := hopfGrid(8)
	t0 := time.Now()
	Run(pts, &Config{Workers: 1})
	serial := time.Since(t0)
	t0 = time.Now()
	Run(pts, &Config{Workers: runtime.GOMAXPROCS(0)})
	parallel := time.Since(t0)
	if speedup := serial.Seconds() / parallel.Seconds(); speedup < 2 {
		t.Fatalf("speedup %.2fx < 2x (serial %v, parallel %v)", speedup, serial, parallel)
	}
}

func TestRetryableIncludesIntegratorFailures(t *testing.T) {
	// Regression: integrator-level refinable failures (step-size underflow,
	// Newton divergence, non-finite states) must escalate through the
	// ladder, not abort the point on the first rung.
	wrapped := fmt.Errorf("core: periodic steady state: shooting: transient integration: %w: %w",
		shooting.ErrIntegration, ode.ErrStepSizeUnderflow)
	if !Retryable(wrapped) {
		t.Fatalf("underflow through shooting not retryable: %v", wrapped)
	}
	for _, err := range []error{shooting.ErrIntegration, ode.ErrStepSizeUnderflow, ode.ErrNewtonDiverged} {
		if !Retryable(err) {
			t.Fatalf("%v should be retryable", err)
		}
	}
	// Budget cut-offs and panics are never retryable: repeating under the
	// same budget cannot help, and a panicking model stays broken.
	for _, err := range []error{
		budget.ErrCanceled,
		budget.ErrBudgetExceeded,
		fmt.Errorf("sweep: point cut off: %w", budget.ErrBudgetExceeded),
		error(&PanicError{Point: "p", Rung: "base", Value: "boom"}),
	} {
		if Retryable(err) {
			t.Fatalf("%v must not be retryable", err)
		}
	}
}

// nanEverywhere is a model whose vector field is never finite: every rung's
// integration fails with a refinable integrator error.
type nanEverywhere struct{ osc.Hopf }

func (m *nanEverywhere) Eval(x, dst []float64) {
	m.Hopf.Eval(x, dst)
	dst[0] = math.NaN()
}

func TestIntegratorFailureEscalatesThroughLadder(t *testing.T) {
	pts := append(hopfGrid(1), Point{
		Name:   "nan-model",
		System: &nanEverywhere{osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}},
		X0:     []float64{1, 0.1},
		TGuess: 1.05,
	})
	results := Run(pts, nil)
	if !results[0].OK() {
		t.Fatalf("good point failed: %v", results[0].Err)
	}
	bad := results[1]
	if bad.OK() {
		t.Fatal("NaN model reported success")
	}
	if !errors.Is(bad.Err, shooting.ErrIntegration) {
		t.Fatalf("failure lost the ErrIntegration tag: %v", bad.Err)
	}
	if !errors.Is(bad.Err, ode.ErrNonFinite) && !errors.Is(bad.Err, ode.ErrStepSizeUnderflow) {
		t.Fatalf("failure lost the integrator sentinel: %v", bad.Err)
	}
	// The refinable classification must have walked the whole ladder.
	if len(bad.Attempts) != len(DefaultLadder()) {
		t.Fatalf("integrator failure aborted after %d attempts, want full ladder of %d", len(bad.Attempts), len(DefaultLadder()))
	}
}

// panicModel panics inside Eval once the state leaves a disc — emulating an
// out-of-range table lookup in a device model.
type panicModel struct{ osc.Hopf }

func (m *panicModel) Eval(x, dst []float64) {
	if x[0]*x[0]+x[1]*x[1] > 4 {
		panic("device model evaluated outside its table range")
	}
	m.Hopf.Eval(x, dst)
}

func TestPanickingModelIsolated(t *testing.T) {
	pts := append(hopfGrid(3), Point{
		Name:   "panicky",
		System: &panicModel{osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}},
		X0:     []float64{3, 0}, // starts outside the disc: first Eval panics
		TGuess: 1,
	})
	results := Run(pts, &Config{Workers: 2})
	for i := 0; i < 3; i++ {
		if !results[i].OK() {
			t.Fatalf("good point %d failed alongside a panicking one: %v", i, results[i].Err)
		}
	}
	bad := results[3]
	if bad.OK() {
		t.Fatal("panicking model reported success")
	}
	if !errors.Is(bad.Err, ErrModelPanic) {
		t.Fatalf("want ErrModelPanic, got %v", bad.Err)
	}
	var pe *PanicError
	if !errors.As(bad.Err, &pe) {
		t.Fatalf("cannot recover *PanicError from %v", bad.Err)
	}
	if pe.Point != "panicky" || pe.Rung != "base" {
		t.Fatalf("panic metadata wrong: %+v", pe)
	}
	if pe.Value == nil || len(pe.Stack) == 0 {
		t.Fatal("panic value or stack lost")
	}
	if len(bad.Attempts) != 1 {
		t.Fatalf("panic must not be retried: %d attempts", len(bad.Attempts))
	}
}

func TestCancelMidBatchPreservesCompletedPoints(t *testing.T) {
	before := runtime.NumGoroutine()
	pts := hopfGrid(12)
	tok, cancel := budget.WithCancel(nil)
	defer cancel()
	var pointsDone int
	start := time.Now()
	results := Run(pts, &Config{
		Workers: 1,
		Budget:  tok,
		OnPoint: func(r PointResult) {
			pointsDone++
			if pointsDone == 1 {
				cancel() // cut the batch after the first completed point
			}
		},
	})
	elapsed := time.Since(start)
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled batch took %v to return", elapsed)
	}
	if len(results) != len(pts) {
		t.Fatalf("%d results for %d points", len(results), len(pts))
	}
	if !results[0].OK() {
		t.Fatalf("completed point lost after cancellation: %v", results[0].Err)
	}
	ok, failed := 0, 0
	for i, r := range results {
		if r.Name != pts[i].Name || r.Index != i {
			t.Fatalf("result %d mislabelled: %+v", i, r)
		}
		if r.OK() {
			ok++
			continue
		}
		failed++
		if !errors.Is(r.Err, budget.ErrCanceled) {
			t.Fatalf("pending point %d: want wrapped ErrCanceled, got %v", i, r.Err)
		}
	}
	if failed == 0 {
		t.Fatal("cancellation raced: every point completed")
	}
	if ok > 2 {
		t.Fatalf("%d points completed after a cancel issued during point 1", ok)
	}
	if pointsDone != len(pts) {
		t.Fatalf("OnPoint fired %d times, want %d (skipped points must be reported)", pointsDone, len(pts))
	}
	// No goroutine leaks: workers and attempt goroutines all wind down.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestPointTimeoutTyped(t *testing.T) {
	pts := hopfGrid(2)
	results := Run(pts, &Config{Workers: 2, PointTimeout: time.Nanosecond})
	for i, r := range results {
		if r.OK() {
			t.Fatalf("point %d beat a 1ns budget", i)
		}
		if !errors.Is(r.Err, budget.ErrBudgetExceeded) {
			t.Fatalf("point %d: want wrapped ErrBudgetExceeded, got %v", i, r.Err)
		}
	}
}

// blockingModel ignores cancellation entirely: one Eval call sleeps far past
// any deadline, emulating a model stuck in an external call. The sleep is a
// poll loop on a release flag so the test can unstick the abandoned attempt
// goroutine at cleanup — from the engine's point of view the model is just as
// unresponsive (it blocks orders of magnitude past AbandonGrace), but the
// goroutine unwinds promptly once the test is over instead of tripping the
// suite's leak check.
type blockingModel struct {
	osc.Hopf
	block    time.Duration
	released atomic.Bool
}

func (m *blockingModel) Eval(x, dst []float64) {
	deadline := time.Now().Add(m.block)
	for time.Now().Before(deadline) && !m.released.Load() {
		time.Sleep(10 * time.Millisecond)
	}
	m.Hopf.Eval(x, dst)
}

// newBlockingModel builds a blockingModel released at test cleanup.
func newBlockingModel(t *testing.T, block time.Duration) *blockingModel {
	m := &blockingModel{Hopf: osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}, block: block}
	t.Cleanup(func() { m.released.Store(true) })
	return m
}

func TestUnresponsiveModelAbandoned(t *testing.T) {
	pts := []Point{{
		Name:   "stuck",
		System: newBlockingModel(t, 3*time.Second),
		X0:     []float64{1, 0.1},
		TGuess: 1.05,
	}}
	start := time.Now()
	results := Run(pts, &Config{
		AttemptTimeout: 50 * time.Millisecond,
		AbandonGrace:   100 * time.Millisecond,
	})
	elapsed := time.Since(start)
	r := results[0]
	if r.OK() {
		t.Fatal("stuck model reported success")
	}
	if !errors.Is(r.Err, budget.ErrBudgetExceeded) {
		t.Fatalf("want wrapped ErrBudgetExceeded, got %v", r.Err)
	}
	if !strings.Contains(r.Err.Error(), "abandoned") {
		t.Fatalf("abandonment not recorded in error: %v", r.Err)
	}
	// Deadline + grace, not the model's 3s block (and nowhere near a full
	// characterisation's worth of blocked Evals).
	if elapsed > 2*time.Second {
		t.Fatalf("abandoning an unresponsive model took %v", elapsed)
	}
}

func TestCancelOnlyBudgetAbandonsBlockedModel(t *testing.T) {
	// Regression: with a cancel-only budget (no AttemptTimeout, PointTimeout,
	// or deadline — the pnsweep SIGINT-without--timeout shape) and a model
	// blocked inside Eval, the attempt supervisor used to select on its own
	// local cancel channel only, never waking on the batch cancel: Run hung
	// in wg.Wait() and AbandonGrace never applied.
	pts := []Point{{
		Name:   "stuck",
		System: newBlockingModel(t, 5*time.Second),
		X0:     []float64{1, 0.1},
		TGuess: 1.05,
	}}
	tok, cancel := budget.WithCancel(nil)
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := Run(pts, &Config{Budget: tok, AbandonGrace: 100 * time.Millisecond})
	elapsed := time.Since(start)
	// Cancel delay + grace + scheduling slack — far below the model's 5s
	// block, and a hang here means the supervisor never saw the cancel.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled batch took %v to return (AbandonGrace=100ms)", elapsed)
	}
	r := results[0]
	if r.OK() {
		t.Fatal("blocked model reported success")
	}
	if !errors.Is(r.Err, budget.ErrCanceled) {
		t.Fatalf("want wrapped ErrCanceled, got %v", r.Err)
	}
	if !strings.Contains(r.Err.Error(), "abandoned") {
		t.Fatalf("abandonment not recorded in error: %v", r.Err)
	}
}

func TestDegradedPointKeepsConvergedPSS(t *testing.T) {
	// Shooting converges on every rung; Floquet always fails the closure
	// tolerance. The point fails overall but must keep the best PSS.
	impossible := Point{
		Name:   "degraded",
		System: &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02},
		X0:     []float64{1, 0.1},
		TGuess: 1.05,
		Opts:   &core.Options{Floquet: &floquet.Options{Steps: 30, MaxPeriodDrift: 1e-13}},
	}
	results := Run([]Point{impossible}, nil)
	r := results[0]
	if r.OK() {
		t.Fatal("impossible point reported success")
	}
	if !r.Degraded() {
		t.Fatalf("converged PSS lost on floquet failure: PSS=%v err=%v", r.PSS, r.Err)
	}
	if math.Abs(r.PSS.T-1) > 1e-6 {
		t.Fatalf("partial PSS period %g, want ≈1", r.PSS.T)
	}
	if r.PSS.Residual > 1e-8 {
		t.Fatalf("partial PSS residual %g not converged", r.PSS.Residual)
	}
}

// TestPSSReuseSkipsShooting is the retry-ladder fast-path regression test:
// when a rung fails downstream of shooting and the next rung changes only
// downstream knobs, the converged periodic steady state is reused instead of
// re-run — pn_shooting_finds_total must count one Find per point, not one
// per attempt.
func TestPSSReuseSkipsShooting(t *testing.T) {
	// Steps=30 leaves an adjoint closure error ≈7e-6 on this Hopf point —
	// far above the 1e-7 drift bound — while the second rung's 10× steps
	// land near 1e-9, far below it. Shooting knobs never change.
	ladder := []Rung{{Name: "base"}, {Name: "adj", AdjointFactor: 10}}
	popts := &core.Options{Floquet: &floquet.Options{Steps: 30, MaxPeriodDrift: 1e-7}}
	mk := func(omega float64) Point {
		h := &osc.Hopf{Lambda: 1, Omega: omega, Sigma: 0.02}
		return Point{Name: "h", System: h, X0: []float64{1, 0.1}, TGuess: h.Period() * 1.05, Opts: popts}
	}

	check := func(t *testing.T, cfg *Config, pts []Point) {
		reg := obs.NewRegistry()
		obs.SetGlobal(reg)
		defer obs.SetGlobal(nil)
		results := Run(pts, cfg)
		for i, r := range results {
			if !r.OK() {
				t.Fatalf("point %d failed: %v", i, r.Err)
			}
			if len(r.Attempts) != 2 {
				t.Fatalf("point %d: %d attempts, want 2", i, len(r.Attempts))
			}
			if !errors.Is(r.Attempts[0].Err, floquet.ErrAdjointClosure) {
				t.Fatalf("point %d base attempt: %v, want ErrAdjointClosure", i, r.Attempts[0].Err)
			}
			// The reused attempt still produced a full result with the same PSS.
			if r.Result.PSS == nil || r.PSS.T != r.Result.PSS.T {
				t.Fatalf("point %d: reused attempt lost the PSS", i)
			}
		}
		s := reg.Snapshot()
		if got, want := s.Counter("pn_shooting_finds_total", ""), int64(len(pts)); got != want {
			t.Fatalf("pn_shooting_finds_total = %d, want %d (shooting must run once per point, not per attempt)", got, want)
		}
		if got, want := s.Counter("pn_sweep_pss_reuse_total", ""), int64(len(pts)); got != want {
			t.Fatalf("pn_sweep_pss_reuse_total = %d, want %d", got, want)
		}
	}

	t.Run("scalar", func(t *testing.T) {
		check(t, &Config{Workers: 1, Ladder: ladder}, []Point{mk(5)})
	})
}
