// Package sweep runs batches of phase-noise characterisations — parameter
// sweeps over bias, supply, or device values — through the full
// shooting → Floquet → c-quadrature pipeline on a bounded worker pool.
//
// The engine mirrors the sde.Ensemble pattern: a fixed number of workers
// drain an index channel and write into a result slice, so the output order
// is deterministic whatever the scheduling. Robustness comes in four layers:
//
//   - a retry ladder: when a point fails with a refinable error (Newton
//     shooting did not converge, integrator step-size underflow or
//     divergence, no unit Floquet multiplier, adjoint closure too large),
//     the engine escalates through rungs of tighter tolerance, more
//     integration steps, and longer transient before recording a structured
//     per-point failure;
//   - deadlines: Config.AttemptTimeout and Config.PointTimeout bound each
//     attempt and each point's whole ladder by wall clock, and Config.Budget
//     cancels or deadline-bounds the whole batch. Cut-off points fail with
//     typed budget.ErrBudgetExceeded / budget.ErrCanceled while every other
//     point completes;
//   - panic isolation: each attempt runs in its own goroutine with panic
//     recovery, so a panicking model Eval/Jacobian becomes a structured
//     ErrModelPanic failure (carrying the recovered value and stack) for
//     that point instead of killing the process or deadlocking the feeder;
//   - partial results: when shooting converged but Floquet failed or the
//     budget expired, the PointResult keeps the best converged PSS, so a
//     batch reports everything it learned.
//
// One hard, hostile, or hanging point never aborts the batch.
//
// With Config.Cache attached, keyed points resolve through the
// content-addressed result store first: repeated batches become cache sweeps,
// and concurrent identical points collapse to a single pipeline run.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/faultinject"
	"repro/internal/floquet"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/shooting"
)

// Point is one characterisation job in a batch.
type Point struct {
	Name   string        // label carried into results and progress hooks
	System dynsys.System // oscillator model
	X0     []float64     // initial state guess
	TGuess float64       // period guess; 0 with EstimateTMax set: estimate it
	// EstimateTMax, for a model whose period has no closed form (TGuess 0),
	// is the transient horizon over which the engine estimates the period
	// and a start on the cycle (shooting.EstimatePeriod) before the first
	// rung. The engine does so once per computed point, and never for a
	// point served from Config.Cache.
	EstimateTMax float64
	Opts         *core.Options // base pipeline options (nil for defaults); rungs scale from these
	// Key, when non-empty and Config.Cache is set, content-addresses this
	// point's result: a hit skips the whole retry ladder, a successful run
	// is stored for future batches. Build keys with
	// cache.CharacterisationKey so every producer (CLI, job server, library
	// callers) shares one store. The key must capture everything that
	// determines the result — model identity, parameters, X0, TGuess and
	// the effective options — or cached answers will be wrong.
	Key string
}

// Rung is one escalation step of the retry ladder. Zero-valued fields leave
// the corresponding option untouched; scaling factors apply to the point's
// base options (or the solver defaults when the base leaves them unset).
type Rung struct {
	Name           string  // label recorded in Attempt
	TolDiv         float64 // divide the shooting tolerance by this (>1 tightens)
	StepsFactor    float64 // multiply shooting StepsPerPeriod (>1 refines)
	AdjointFactor  float64 // multiply an explicit floquet Steps (>1 refines); the default, the orbit's knot count, follows StepsFactor
	TransientExtra float64 // additional transient periods before shooting
}

// Defaults the rungs scale against when the point's base options leave a
// field unset. They mirror shooting.Options.defaults.
const (
	defaultTol            = 1e-10
	defaultStepsPerPeriod = 2000
	defaultTransient      = 20
)

// defaultAbandonGrace is how long the engine waits, after cancelling an
// attempt's token, for a model that ignores cancellation before abandoning
// the attempt goroutine (see Config.AbandonGrace).
const defaultAbandonGrace = time.Second

// DefaultLadder escalates twice after the base attempt: a 10× tighter /
// 2× finer pass, then a 100× tighter / 4× finer pass with a much longer
// transient for points that start far off the attractor.
func DefaultLadder() []Rung {
	return []Rung{
		{Name: "base"},
		{Name: "tight", TolDiv: 10, StepsFactor: 2, AdjointFactor: 2, TransientExtra: 20},
		{Name: "max", TolDiv: 100, StepsFactor: 4, AdjointFactor: 4, TransientExtra: 60},
	}
}

// ErrModelPanic tags a per-point failure caused by a panicking model
// Eval/Jacobian/Noise. Branch with errors.Is(err, ErrModelPanic); recover
// details with errors.As into a *PanicError.
var ErrModelPanic = errors.New("sweep: model panicked")

// PanicError is the structured failure recorded when a model panics during
// an attempt. It satisfies errors.Is(err, ErrModelPanic).
type PanicError struct {
	Point string // Point.Name
	Rung  string // ladder rung during which the panic fired
	Value any    // the recovered panic value
	Stack []byte // goroutine stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: model panicked on point %q (rung %q): %v", e.Point, e.Rung, e.Value)
}

// Is reports target == ErrModelPanic so the sentinel matches through wraps.
func (e *PanicError) Is(target error) bool { return target == ErrModelPanic }

// Attempt records one ladder rung tried on one point.
type Attempt struct {
	Rung     int           // index into the ladder
	RungName string        // Rung.Name
	Err      error         // nil on success
	Trace    core.Trace    // per-stage diagnostics of this attempt
	Wall     time.Duration // wall-clock time of this attempt
	// Flight is the flight-recorder dump: the last Config.FlightRecorder
	// span events of this attempt's subtree, captured when the attempt
	// panicked, was cut off by a budget/timeout, or was abandoned. Empty for
	// successes and ordinary retryable failures.
	Flight []obs.Event
}

// PointResult is the outcome of one point: either a characterisation or a
// structured failure, plus the full retry history.
//
// A point that went through Config.Cache also carries its result encoded
// once — the cache payload, core.Result.MarshalJSON's bytes — and the
// result's scalars (core.Scalars). MarshalJSON splices those bytes in rather
// than encoding Result again, and Scalars serves summaries and compositions
// from the scalars, so a served point's trajectories are encoded once and,
// on a memory-tier hit, never decoded: with Config.DiscardResults set such a
// hit arrives with Result nil.
type PointResult struct {
	Index int    // position in the input slice
	Name  string // Point.Name
	// Result is the decoded characterisation; nil on failure, and on a
	// memory-tier cache hit delivered under Config.DiscardResults.
	Result *core.Result
	Err    error // nil iff the point succeeded; the last attempt's error otherwise
	// PSS is the best converged periodic steady state seen across all
	// attempts (smallest closure residual). On success it equals
	// Result.PSS; on a degraded failure — shooting converged but Floquet
	// failed, or the budget expired mid-pipeline — it preserves what the
	// point did learn.
	PSS      *shooting.PSS
	Attempts []Attempt
	Wall     time.Duration // total wall-clock time across all attempts
	// Cached reports that the result was served from the content-addressed
	// store (or by joining an identical in-flight computation) without
	// running the pipeline; Attempts is empty in that case.
	Cached bool

	payload []byte        // Result's encoding, when the point went through the cache
	scalars *core.Scalars // Result's scalars, checked (core.Result.Check) in this process
	key     string        // the cache key a hit was served under ("" otherwise)
}

// CacheKey returns the content key of a point served from the cache (a
// memory or disk hit, or a join of an identical in-flight computation), with
// a token for the payload it carries: points whose tokens are equal carry
// the very same bytes, because the token is the payload's scalars, which are
// made for one payload and noted beside no other. It returns "" and nil for
// a point that ran the pipeline or did not go through the cache.
func (r *PointResult) CacheKey() (key string, token any) {
	if r.key == "" {
		return "", nil
	}
	return r.key, r.scalars
}

// OK reports whether the point characterised successfully.
func (r *PointResult) OK() bool { return r.Err == nil && (r.Result != nil || r.scalars != nil) }

// Scalars returns the numbers served code reads off a successful point: the
// ones carried beside the cache payload, else Result's own. ok is false for
// a failed point.
func (r *PointResult) Scalars() (sc core.Scalars, ok bool) {
	switch {
	case !r.OK():
		return core.Scalars{}, false
	case r.scalars != nil:
		return *r.scalars, true
	}
	return r.Result.Scalars(), true
}

// Degraded reports whether the point failed overall but still carries a
// converged periodic steady state (partial result).
func (r *PointResult) Degraded() bool { return r.Err != nil && r.PSS != nil }

// Config tunes a batch run.
type Config struct {
	// Workers bounds the worker pool (default GOMAXPROCS, capped at the
	// number of points).
	Workers int
	// Ladder is the escalation sequence (default DefaultLadder()). The
	// first rung is the base attempt; an empty slice gets one plain rung.
	Ladder []Rung
	// Budget, when non-nil, bounds the whole batch: on cancellation or
	// deadline expiry, in-flight attempts are cut off (typed error per
	// point), pending points are marked without running, and Run returns
	// with every completed result intact.
	Budget *budget.Token
	// PointTimeout bounds one point's whole retry ladder by wall clock
	// (0 = unbounded). On expiry the point fails with a wrapped
	// budget.ErrBudgetExceeded.
	PointTimeout time.Duration
	// AttemptTimeout bounds each individual attempt by wall clock
	// (0 = unbounded). Budget cut-offs are not retryable, so an attempt
	// timeout also ends the point's ladder.
	AttemptTimeout time.Duration
	// AbandonGrace is how long to wait, after a deadline or cancellation
	// has tripped the attempt's token, for the model to return before the
	// attempt goroutine is abandoned (default 1s). Cooperative models exit
	// within a few integrator steps; only a model that ignores cancellation
	// entirely (e.g. blocks forever inside Eval) is abandoned, and its
	// late result is discarded.
	AbandonGrace time.Duration
	// OnAttempt, when non-nil, streams progress: it is called after every
	// attempt (success or failure) on any point. Calls are serialised by
	// the engine, so the hook needs no locking of its own.
	OnAttempt func(index int, name string, att Attempt)
	// OnPoint, when non-nil, is called once per point as it completes,
	// serialised like OnAttempt.
	//
	// Ordering guarantee: exactly one call per point, and res.Index is exact
	// (the position in the input slice), but calls arrive in completion
	// order, not input order — and with a Cache attached the interleaving
	// gets extreme, because cached points complete near-instantly while
	// computed ones take seconds. Consumers must key on res.Index, never on
	// arrival order. Points skipped because the batch budget tripped are
	// reported here too.
	//
	// What a cache hit carries: the cache payload and the result's scalars
	// always; the decoded Result unless DiscardResults is set and the hit
	// came from the memory tier, where the payload was checked when it was
	// stored. Read a point's numbers through res.Scalars and encode it with
	// res.MarshalJSON, and the hit costs neither a decode nor an encode.
	OnPoint func(res PointResult)
	// Cache, when non-nil, is the content-addressed result store consulted
	// for every point with a non-empty Key before its retry ladder runs. A
	// hit returns the stored result (PointResult.Cached = true) without
	// invoking the pipeline; concurrent identical points — within this
	// batch, across batches, or across processes sharing a disk store —
	// collapse to one computation via singleflight. Only successful
	// characterisations are stored; a point that joins an in-flight
	// identical computation shares its outcome, including a failure (a
	// budget trip in the computing caller fails its waiters too).
	Cache *cache.Store
	// Span, when non-nil, parents the batch's root span so the whole sweep
	// subtree lands in the caller's trace (e.g. a serve job's span). When nil
	// the root span starts on the process-wide emitter as before.
	Span *obs.Span
	// FlightRecorder, when > 0, runs every attempt under a ring buffer of
	// this many span events. If the attempt panics, trips its budget/timeout,
	// or is abandoned, the ring is dumped into Attempt.Flight so the failure
	// carries its own bounded timeline — even when process-wide tracing is
	// off. 0 disables the recorder.
	FlightRecorder int
	// DiscardResults makes Run release each point's result right after its
	// OnPoint delivery and return nil instead of the accumulated slice — the
	// memory-bounding mode for huge sweeps whose results stream somewhere
	// else (a spill file, a network sink) as they complete. OnPoint is the
	// only way to observe results in this mode, and memory-tier cache hits
	// reach it undecoded (see OnPoint). Without it every successful point
	// Run returns holds a decoded Result.
	DiscardResults bool
}

// Retryable reports whether err is a refinable pipeline failure — one the
// retry ladder may cure with tighter tolerances, more steps, or a longer
// transient. Structural errors (bad dimensions, unstable cycles, degenerate
// monodromy), budget cut-offs, and model panics are not retryable: repeating
// a cut-off under the same budget cannot help, and a panicking model stays
// broken at any tolerance.
func Retryable(err error) bool {
	if err == nil || budget.Is(err) || errors.Is(err, ErrModelPanic) {
		return false
	}
	return errors.Is(err, shooting.ErrNoConvergence) ||
		errors.Is(err, shooting.ErrIntegration) ||
		errors.Is(err, ode.ErrStepSizeUnderflow) ||
		errors.Is(err, ode.ErrNewtonDiverged) ||
		errors.Is(err, floquet.ErrNoUnitMultiplier) ||
		errors.Is(err, floquet.ErrAdjointClosure) ||
		// Injected chaos failures retry so fault plans can drive the ladder
		// (e.g. Count:1 fails the base attempt and recovers on the next rung).
		errors.Is(err, faultinject.ErrInjected)
}

// applyRung builds the options for one attempt: a deep-enough copy of the
// point's base options (caller structs are never mutated) with the rung's
// scalings applied against the base values or the solver defaults.
func applyRung(base *core.Options, r Rung) *core.Options {
	out := core.Options{}
	if base != nil {
		out = *base
	}
	sc := shooting.Options{}
	if out.Shooting != nil {
		sc = *out.Shooting
	}
	fc := floquet.Options{}
	if out.Floquet != nil {
		fc = *out.Floquet
	}
	if r.TolDiv > 1 {
		if sc.Tol <= 0 {
			sc.Tol = defaultTol
		}
		sc.Tol /= r.TolDiv
	}
	if r.StepsFactor > 1 {
		if sc.StepsPerPeriod <= 0 {
			sc.StepsPerPeriod = defaultStepsPerPeriod
		}
		sc.StepsPerPeriod = int(float64(sc.StepsPerPeriod) * r.StepsFactor)
	}
	if r.TransientExtra > 0 {
		if sc.Transient <= 0 {
			sc.Transient = defaultTransient
		}
		sc.Transient += r.TransientExtra
	}
	// Explicit adjoint step counts scale directly; the default (0) is the
	// orbit's knot count, so StepsFactor already raises it.
	if r.AdjointFactor > 1 && fc.Steps > 0 {
		fc.Steps = int(float64(fc.Steps) * r.AdjointFactor)
	}
	out.Shooting = &sc
	out.Floquet = &fc
	return &out
}

// Run characterises every point and returns one PointResult per point, in
// input order. Failures are per-point and structured; Run itself never
// fails. Points must not share mutable state (a dynsys.System may be shared
// only if its methods are safe for concurrent use).
//
// When cfg.Budget trips mid-batch, Run returns promptly: completed results
// are kept, in-flight points fail with a typed budget error, and points that
// never started are marked with a wrapped budget.ErrCanceled /
// ErrBudgetExceeded.
func Run(points []Point, cfg *Config) []PointResult {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if len(c.Ladder) == 0 {
		c.Ladder = DefaultLadder()
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	if workers < 1 {
		workers = 1
	}

	out := make([]PointResult, len(points))
	var hookMu sync.Mutex // serialises user hooks across workers
	attempt := func(i int, name string, att Attempt) {
		if c.OnAttempt == nil {
			return
		}
		hookMu.Lock()
		defer hookMu.Unlock()
		c.OnAttempt(i, name, att)
	}
	done := func(res PointResult) {
		if c.OnPoint == nil {
			return
		}
		hookMu.Lock()
		defer hookMu.Unlock()
		c.OnPoint(res)
	}

	m := sweepMetrics.Get()
	// Add, not Set: concurrent batches (several server jobs, overlapping CLI
	// runs) share this gauge, and each decrements once per finished point —
	// including points short-circuited by the cache or skipped on a budget
	// trip — so the gauge returns to its pre-batch value when Run returns.
	m.queueDepth.Add(float64(len(points)))
	rsp := obs.StartSpan(c.Span, "sweep.Run")
	rsp.SetAttr("points", len(points))
	rsp.SetAttr("workers", workers)

	// finalize does the per-point bookkeeping once out[k] is in its final
	// state, whatever path produced it.
	finalize := func(k int) {
		switch {
		case out[k].Cached && out[k].OK():
			m.pointsCached.Inc()
		case out[k].OK():
			m.pointsOK.Inc()
		case out[k].Degraded():
			m.pointsDegraded.Inc()
		default:
			m.pointsFailed.Inc()
		}
		m.pointSeconds.Observe(out[k].Wall.Seconds())
		m.queueDepth.Add(-1)
		done(out[k])
		if c.DiscardResults {
			// The hook has seen the result; drop the engine's reference so a
			// huge sweep retains O(workers), not O(points), result payloads.
			out[k] = PointResult{}
		}
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				out[k] = runPoint(k, points[k], &c, attempt, rsp)
				finalize(k)
			}
		}()
	}
	// The feeder watches the batch budget so a cancellation with idle-free
	// workers cannot strand it: pending points are marked without running.
	cancelCh := c.Budget.Done() // nil when the budget is not cancelable
feed:
	for k := range points {
		if err := c.Budget.Err(); err != nil { // deadline-only budgets have no Done channel
			markSkipped(points, out, k, err, done)
			break feed
		}
		select {
		case next <- k:
		case <-cancelCh:
			markSkipped(points, out, k, c.Budget.Err(), done)
			break feed
		}
	}
	close(next)
	wg.Wait()
	rsp.End()
	if c.DiscardResults {
		return nil
	}
	return out
}

// markSkipped records budget-typed failures for points[from:], which never
// reached a worker.
func markSkipped(points []Point, out []PointResult, from int, cause error, done func(PointResult)) {
	if cause == nil {
		cause = budget.ErrCanceled
	}
	m := sweepMetrics.Get()
	for j := from; j < len(points); j++ {
		out[j] = PointResult{
			Index: j,
			Name:  points[j].Name,
			Err:   fmt.Errorf("sweep: point %q not started: %w", points[j].Name, cause),
		}
		m.pointsSkipped.Inc()
		m.queueDepth.Add(-1)
		done(out[j])
	}
}

// runPoint resolves one point: through the content-addressed cache when the
// point is keyed (hit, or singleflight-joined computation), otherwise by
// walking the retry ladder directly.
func runPoint(index int, p Point, c *Config, attempt func(int, string, Attempt), rsp *obs.Span) PointResult {
	start := time.Now()
	res := PointResult{Index: index, Name: p.Name}
	if err := c.Budget.Err(); err != nil {
		res.Err = fmt.Errorf("sweep: point %q not started: %w", p.Name, err)
		return res
	}
	psp := obs.StartSpan(rsp, "sweep.point")
	psp.SetAttr("index", index)
	psp.SetAttr("name", p.Name)
	defer func() {
		psp.SetAttr("attempts", len(res.Attempts))
		psp.SetAttr("cached", res.Cached)
		psp.EndErr(res.Err)
	}()

	if c.Cache != nil && p.Key != "" {
		res = runPointCached(index, p, c, attempt, psp)
	} else {
		res = runLadder(index, p, c, attempt, psp)
	}
	res.Wall = time.Since(start)
	return res
}

// runPointCached funnels the point through Config.Cache: one caller per key
// runs the ladder and stores a successful result, encoded once with its
// scalars as the cache note; everyone else is served from the store or by
// joining that computation.
func runPointCached(index int, p Point, c *Config, attempt func(int, string, Attempt), psp *obs.Span) PointResult {
	var computed *PointResult
	payload, note, _, err := c.Cache.Do(p.Key, func() ([]byte, any, error) {
		r := runLadder(index, p, c, attempt, psp)
		computed = &r
		if !r.OK() {
			return nil, nil, r.Err
		}
		if err := encodeResult(&r, psp); err != nil {
			return nil, nil, err
		}
		return r.payload, r.scalars, nil
	})
	if computed != nil {
		// This caller ran the pipeline; its PointResult has the full attempt
		// history (and possibly a degraded partial PSS).
		return *computed
	}
	res := PointResult{Index: index, Name: p.Name, Cached: true}
	if err != nil {
		// Joined an identical in-flight computation that failed.
		res.Err = fmt.Errorf("sweep: point %q shared a failed identical computation: %w", p.Name, err)
		return res
	}
	if hit, ok := fromCache(res, payload, note, c, p.Key, psp); ok {
		return hit
	}
	// A stale or foreign payload under our key: compute rather than fail the
	// point on a cache artefact, and store the fresh result over it.
	r := runLadder(index, p, c, attempt, psp)
	commitCache(c, p, &r, psp)
	return r
}

// commitCache encodes a freshly computed successful result once (see
// encodeResult) and stores it under the point's content key with its
// scalars noted, best effort. runPointCached stores through Cache.Do; this
// is its path over a stale entry, which Do served instead of computing.
func commitCache(c *Config, p Point, r *PointResult, sp *obs.Span) {
	if c.Cache == nil || p.Key == "" || !r.OK() || encodeResult(r, sp) != nil {
		return
	}
	if c.Cache.Put(p.Key, r.payload) == nil {
		c.Cache.Note(p.Key, r.payload, r.scalars)
	}
}

// fromCache completes a cache hit res from the payload and its note. A
// payload noted with scalars passed core.Result.Check in this process: under
// DiscardResults the hit carries the bytes and scalars and is never decoded.
// Any other payload — read from disk, or stored without a note — is decoded
// and checked here, once, and noted for later hits. ok is false for a stale
// payload, which the caller recomputes.
func fromCache(res PointResult, payload []byte, note any, c *Config, key string, psp *obs.Span) (PointResult, bool) {
	res.payload, res.key = payload, key
	res.scalars, _ = note.(*core.Scalars)
	if res.scalars != nil && c.DiscardResults {
		return res, true
	}
	cr, ok := decodeCached(payload, psp)
	if !ok {
		return res, false
	}
	if res.scalars == nil {
		sc := cr.Scalars()
		res.scalars = &sc
		c.Cache.Note(key, payload, res.scalars)
	}
	res.Result, res.PSS = cr, cr.PSS
	return res, true
}

// encodeResult encodes a successful point's result, the one encode a cached
// point gets: the bytes become the cache payload, and every later hop (the
// spill, a results download) copies them. Scalars are kept only for a
// result that passes core.Result.Check, as a hit would demand.
func encodeResult(r *PointResult, psp *obs.Span) error {
	sp := obs.StartSpan(psp, "cache.encode")
	payload, err := r.Result.MarshalJSON()
	sp.SetAttr("bytes", len(payload))
	sp.EndErr(err)
	if err != nil {
		return err
	}
	r.payload = payload
	if r.Result.Check() == nil {
		sc := r.Result.Scalars()
		r.scalars = &sc
	}
	return nil
}

// decodeCached decodes a cache payload into a servable result. A payload
// that fails to decode, or decodes to an incomplete result (see
// core.Result.Check), is stale: the disk tier is shared with other
// processes and versions, so the caller recomputes and stores over it.
func decodeCached(payload []byte, psp *obs.Span) (*core.Result, bool) {
	sp := obs.StartSpan(psp, "cache.decode")
	sp.SetAttr("bytes", len(payload))
	var cr core.Result
	err := cr.UnmarshalJSON(payload)
	if err == nil {
		err = cr.Check()
	}
	sp.EndErr(err)
	if err != nil {
		return nil, false
	}
	return &cr, true
}

// reusablePSS decides whether the previous attempt's converged solution can
// replace the next rung's shooting stage: the shooting knobs must be
// unchanged (the solve would reproduce the same PSS at full cost) and the
// recorded residual must already meet the next rung's tolerance. This is the
// retry-ladder fast path for failures downstream of shooting — an adjoint
// that didn't close, a budget that expired mid-Floquet — retried with only
// downstream resolution raised.
func reusablePSS(prev, next *core.Options, pss *shooting.PSS) bool {
	if prev == nil || next == nil || pss == nil {
		return false
	}
	pe, ne := prev.Shooting.Effective(), next.Shooting.Effective()
	if pe.Tol != ne.Tol || pe.MaxIter != ne.MaxIter || pe.StepsPerPeriod != ne.StepsPerPeriod ||
		pe.Transient != ne.Transient || pe.NoDamping != ne.NoDamping {
		return false
	}
	return pss.Residual < ne.Tol
}

// runLadder walks one point up the ladder until an attempt succeeds or the
// failure is not retryable, under the point's wall-clock budget. prevOpts/
// prevPSS describe the most recent failed attempt, for the shooting-reuse
// decision; prevPSS is non-nil exactly when that attempt converged its
// shooting stage and failed downstream.
func runLadder(index int, p Point, c *Config, attempt func(int, string, Attempt), psp *obs.Span) PointResult {
	start := time.Now()
	m := sweepMetrics.Get()
	ptTok := c.Budget
	if c.PointTimeout > 0 {
		ptTok = budget.WithTimeout(ptTok, c.PointTimeout)
	}
	res := PointResult{Index: index, Name: p.Name}
	if p.TGuess == 0 && p.EstimateTMax > 0 {
		if res.Err = estimatePeriod(&p, ptTok, psp); res.Err != nil {
			res.Wall = time.Since(start)
			return res
		}
	}
	var prevOpts *core.Options
	var prevPSS *shooting.PSS
	for ri, rung := range c.Ladder {
		opts := applyRung(p.Opts, rung)
		if reusablePSS(prevOpts, opts, prevPSS) {
			opts.ReusePSS = prevPSS
			m.pssReuses.Inc()
		}
		att, r, pss := runAttempt(p, ri, rung, opts, ptTok, c, psp)
		res.Attempts = append(res.Attempts, att)
		attempt(index, p.Name, att)
		if pss != nil && (res.PSS == nil || pss.Residual < res.PSS.Residual) {
			res.PSS = pss
		}
		if att.Err == nil {
			res.Result, res.Err = r, nil
			if r.PSS != nil {
				res.PSS = r.PSS
			}
			break
		}
		res.Err = att.Err
		if !Retryable(att.Err) {
			break
		}
		prevOpts, prevPSS = opts, pss
	}
	res.Wall = time.Since(start)
	return res
}

// estimatePeriod sets p's period guess and start from a transient of
// p.EstimateTMax under a sweep.estimate span. Only a computed point needs
// them — cache keys are built from the registry's recommendation, never
// from the estimate — so runLadder calls it, inside the cache's
// singleflight computation, and a hit never estimates. A failure, including a
// panicking model, fails the point before any attempt.
func estimatePeriod(p *Point, tok *budget.Token, psp *obs.Span) (err error) {
	sp := obs.StartSpan(psp, "sweep.estimate")
	sp.SetAttr("tmax", p.EstimateTMax)
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Point: p.Name, Rung: "estimate", Value: rec, Stack: debug.Stack()}
		}
		sp.EndErr(err)
	}()
	tGuess, x0, err := shooting.EstimatePeriodBudget(p.System, p.X0, p.EstimateTMax, tok)
	if err != nil {
		return fmt.Errorf("sweep: point %q: period estimation: %w", p.Name, err)
	}
	p.TGuess, p.X0 = tGuess, x0
	return nil
}

// attemptOutcome is what one attempt goroutine hands back to its supervisor.
type attemptOutcome struct {
	att Attempt
	res *core.Result
	pss *shooting.PSS
}

// runAttempt executes one ladder rung in its own goroutine under the
// combined attempt/point/batch budget, recovering panics and enforcing the
// deadline even against a model that never returns. opts is the rung's
// prepared option set (applyRung output, plus any ReusePSS fast path); its
// Trace/Budget/Partial/Span fields are overwritten here.
func runAttempt(p Point, ri int, rung Rung, opts *core.Options, parent *budget.Token, c *Config, psp *obs.Span) (Attempt, *core.Result, *shooting.PSS) {
	m := sweepMetrics.Get()
	m.attempts.With(rung.Name).Inc()
	// With the flight recorder on, the attempt's whole span subtree (this
	// span plus the pipeline-stage spans under it via opts.Span) is teed into
	// a private ring so a crashing attempt can dump its final moments — even
	// when process-wide tracing is off and psp is nil.
	var ring *obs.RingEmitter
	var asp *obs.Span
	if c.FlightRecorder > 0 {
		ring = obs.NewRingEmitter(c.FlightRecorder)
		asp = obs.StartSpanOn(obs.Tee(psp.Emitter(), ring), psp, "sweep.attempt")
	} else {
		asp = obs.StartSpan(psp, "sweep.attempt")
	}
	asp.SetAttr("rung", rung.Name)
	// dump attaches the ring to crash-class failures — panic, budget/timeout
	// cut-off, abandonment — never to ordinary retryable failures, which
	// would bloat journals. Call after asp has ended so the dump includes the
	// attempt span itself.
	dump := func(att *Attempt) {
		if ring == nil || att.Err == nil {
			return
		}
		if errors.Is(att.Err, ErrModelPanic) || budget.Is(att.Err) {
			att.Flight = ring.Events()
			m.flightDumps.Inc()
		}
	}

	atTok, cancel := budget.WithCancel(parent)
	defer cancel()
	if c.AttemptTimeout > 0 {
		atTok = budget.WithTimeout(atTok, c.AttemptTimeout)
	}

	aStart := time.Now()
	ch := make(chan attemptOutcome, 1) // buffered: an abandoned goroutine can still exit
	go func() {
		out := attemptOutcome{att: Attempt{Rung: ri, RungName: rung.Name}}
		var partial core.Partial
		defer func() {
			if rec := recover(); rec != nil {
				out.att.Err = &PanicError{Point: p.Name, Rung: rung.Name, Value: rec, Stack: debug.Stack()}
				out.res = nil
				out.pss = partial.PSS
			}
			out.att.Wall = time.Since(aStart)
			ch <- out
		}()
		// The attempt-level fault point fires inside the isolated goroutine so
		// ModePanic exercises the same recovery path a hostile model does.
		if err := faultinject.Fire(faultinject.SweepAttempt); err != nil {
			out.att.Err = fmt.Errorf("sweep: attempt %q on point %q: %w", rung.Name, p.Name, err)
			return
		}
		opts.Trace = &out.att.Trace
		opts.Budget = atTok
		opts.Partial = &partial
		opts.Span = asp
		out.res, out.att.Err = core.Characterise(p.System, p.X0, p.TGuess, opts)
		out.pss = partial.PSS
	}()

	// Supervise: wait for the attempt, the earliest deadline in the chain,
	// or a batch cancellation.
	var timer <-chan time.Time
	if dl, ok := atTok.Deadline(); ok {
		tm := time.NewTimer(time.Until(dl))
		defer tm.Stop()
		timer = tm.C
	}
	select {
	case o := <-ch:
		asp.EndErr(o.att.Err)
		dump(&o.att)
		return o.att, o.res, o.pss
	case <-timer:
	case <-atTok.Done():
	}

	// Budget tripped. A cooperative model sees the cancelled token within a
	// few integrator steps and returns with a typed error and a full trace;
	// give it AbandonGrace before declaring it unresponsive.
	cancel()
	grace := c.AbandonGrace
	if grace <= 0 {
		grace = defaultAbandonGrace
	}
	gt := time.NewTimer(grace)
	defer gt.Stop()
	select {
	case o := <-ch:
		asp.EndErr(o.att.Err)
		dump(&o.att)
		return o.att, o.res, o.pss
	case <-gt.C:
		cause := atTok.Err()
		if cause == nil {
			cause = budget.ErrCanceled
		}
		wall := time.Since(aStart)
		m.abandoned.Inc()
		err := fmt.Errorf("sweep: attempt %q on point %q abandoned after %v (model unresponsive to cancellation): %w",
			rung.Name, p.Name, wall.Round(time.Millisecond), cause)
		asp.EndErr(err)
		att := Attempt{
			Rung:     ri,
			RungName: rung.Name,
			Wall:     wall,
			Err:      err,
		}
		dump(&att)
		return att, nil, nil
	}
}
