package sweep

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/faultinject"
	"repro/internal/floquet"
	"repro/internal/obs"
	"repro/internal/osc"
	"repro/internal/shooting"
)

// batchKey is the compatibility class of a point for lockstep batching: the
// state dimension plus every base-rung solver knob that the batch kernels
// must run in lockstep. Points with equal keys produce structurally
// identical integration schedules, which is exactly what the SoA kernels
// require.
type batchKey struct {
	dim  int
	so   shooting.Options
	fo   floquet.Options
	quad int
}

// batchKeyOf classifies one point, reporting ok=false when the point cannot
// join a batch (no system, caller-supplied ReusePSS, or a model so hostile
// that merely asking its dimension panics — those keep the fully isolated
// scalar path).
func batchKeyOf(p Point, c *Config) (key batchKey, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if p.System == nil {
		return batchKey{}, false
	}
	opts := applyRung(p.Opts, c.Ladder[0])
	if opts.ReusePSS != nil {
		return batchKey{}, false
	}
	se := opts.Shooting.Effective()
	se.Trace, se.Budget = nil, nil
	fe := opts.Floquet.Effective()
	fe.Trace, fe.Budget = nil, nil
	return batchKey{dim: p.System.Dim(), so: se, fo: fe, quad: opts.QuadPoints}, true
}

// planUnits partitions the points into worker units: singleton units for the
// scalar path, and groups of up to Config.BatchLanes compatible points for
// the lockstep path. Units are ordered by their first member's input index,
// so scheduling stays deterministic.
func planUnits(points []Point, c *Config) [][]int {
	if c.BatchLanes <= 1 {
		units := make([][]int, len(points))
		for k := range points {
			units[k] = []int{k}
		}
		return units
	}
	groups := make(map[batchKey][]int)
	var units [][]int
	for k, p := range points {
		if key, ok := batchKeyOf(p, c); ok {
			groups[key] = append(groups[key], k)
		} else {
			units = append(units, []int{k})
		}
	}
	for _, idxs := range groups {
		for len(idxs) > c.BatchLanes {
			units = append(units, idxs[:c.BatchLanes])
			idxs = idxs[c.BatchLanes:]
		}
		units = append(units, idxs)
	}
	sort.Slice(units, func(i, j int) bool { return units[i][0] < units[j][0] })
	return units
}

// runBatchUnit resolves one lockstep group: cache pre-check per point, one
// base-rung attempt for the remaining lanes through core.CharacteriseBatch,
// then per-lane continuation — success commits to the cache, a retryable
// failure climbs that point's own scalar ladder from the next rung, and a
// batch-level infrastructure failure (injected fault, panic inside the
// lockstep kernels) falls every lane back to the fully isolated scalar path.
func runBatchUnit(idxs []int, points []Point, c *Config, out []PointResult, attempt func(int, string, Attempt), finalize func(int), rsp *obs.Span) {
	m := sweepMetrics.Get()
	start := time.Now()
	bsp := obs.StartSpan(rsp, "sweep.batch")
	bsp.SetAttr("lanes", len(idxs))
	defer bsp.End()

	scalarFallback := func(live []int) {
		m.batches.With("fallback").Inc()
		bsp.SetAttr("fallback", true)
		for _, k := range live {
			out[k] = runPoint(k, points[k], c, attempt, rsp)
			finalize(k)
		}
	}

	if err := c.Budget.Err(); err != nil {
		for _, k := range idxs {
			out[k] = PointResult{
				Index: k,
				Name:  points[k].Name,
				Err:   fmt.Errorf("sweep: point %q not started: %w", points[k].Name, err),
			}
			finalize(k)
		}
		return
	}

	// The batch-level fault point: an injected failure here exercises the
	// batch→scalar fallback exactly like a real batch infrastructure fault.
	if err := faultinject.Fire(faultinject.SweepBatch); err != nil {
		scalarFallback(idxs)
		return
	}

	// Cache pre-check: points already in the store are served immediately
	// and never join the batch, mirroring the scalar cached path.
	live := make([]int, 0, len(idxs))
	for _, k := range idxs {
		p := points[k]
		if c.Cache != nil && p.Key != "" {
			if payload, hit := c.Cache.Get(p.Key); hit {
				if res, ok := fromCache(PointResult{Index: k, Name: p.Name, Cached: true}, payload, nil, c, p.Key, bsp); ok {
					res.Wall = time.Since(start)
					out[k] = res
					finalize(k)
					continue
				}
				// Stale or foreign payload: recompute rather than fail;
				// commitCache stores the fresh result over it.
			}
		}
		live = append(live, k)
	}
	if len(live) == 0 {
		return
	}
	if len(live) == 1 {
		k := live[0]
		out[k] = runPoint(k, points[k], c, attempt, rsp)
		finalize(k)
		return
	}

	be, berr := buildBatchEvaluator(points, live)
	if berr != nil {
		scalarFallback(live)
		return
	}

	// Per-lane budget chain, identical to the scalar attempt: batch budget →
	// point timeout → attempt cancel/timeout. The lane tokens are polled
	// inside the lockstep kernels, so one exhausted point dies alone.
	rung0 := c.Ladder[0]
	type laneCtx struct {
		att     Attempt
		partial core.Partial
		opts    *core.Options
		atTok   *budget.Token
	}
	lcs := make([]*laneCtx, len(live))
	bpoints := make([]core.BatchPoint, len(live))
	var earliest time.Time
	for i, k := range live {
		p := points[k]
		ptTok := c.Budget
		if c.PointTimeout > 0 {
			ptTok = budget.WithTimeout(ptTok, c.PointTimeout)
		}
		atTok, cancel := budget.WithCancel(ptTok)
		defer cancel()
		if c.AttemptTimeout > 0 {
			atTok = budget.WithTimeout(atTok, c.AttemptTimeout)
		}
		if dl, ok := atTok.Deadline(); ok && (earliest.IsZero() || dl.Before(earliest)) {
			earliest = dl
		}
		lc := &laneCtx{att: Attempt{Rung: 0, RungName: rung0.Name}, atTok: atTok}
		lc.opts = applyRung(p.Opts, rung0)
		lc.opts.Trace = &lc.att.Trace
		lc.opts.Budget = atTok
		lc.opts.Partial = &lc.partial
		lc.opts.Span = bsp
		lcs[i] = lc
		bpoints[i] = core.BatchPoint{Sys: p.System, X0: p.X0, TGuess: p.TGuess, Opts: lc.opts}
		m.attempts.With(rung0.Name).Inc()
	}

	type batchOutcome struct {
		results  []*core.Result
		laneErrs []error
		batchErr error
		panicked bool
	}
	ch := make(chan batchOutcome, 1) // buffered: an abandoned goroutine can still exit
	go func() {
		var bo batchOutcome
		defer func() {
			if rec := recover(); rec != nil {
				bo = batchOutcome{
					batchErr: fmt.Errorf("sweep: batch panicked: %v\n%s", rec, debug.Stack()),
					panicked: true,
				}
			}
			ch <- bo
		}()
		bo.results, bo.laneErrs, bo.batchErr = core.CharacteriseBatch(be, bpoints, c.Budget)
	}()

	grace := c.AbandonGrace
	if grace <= 0 {
		grace = defaultAbandonGrace
	}
	var bo batchOutcome
	var timer <-chan time.Time
	if !earliest.IsZero() {
		// Lane deadlines are enforced inside the kernels; the timer is only a
		// backstop against a model that ignores its token entirely.
		tm := time.NewTimer(time.Until(earliest) + grace)
		defer tm.Stop()
		timer = tm.C
	}
	abandoned := false
	select {
	case bo = <-ch:
	case <-timer:
		abandoned = true
	case <-c.Budget.Done():
		gt := time.NewTimer(grace)
		defer gt.Stop()
		select {
		case bo = <-ch:
		case <-gt.C:
			abandoned = true
		}
	}
	wall := time.Since(start)
	if abandoned {
		m.batches.With("abandoned").Inc()
		for i, k := range live {
			cause := lcs[i].atTok.Err()
			if cause == nil {
				cause = budget.ErrCanceled
			}
			m.abandoned.Inc()
			att := lcs[i].att
			att.Wall = wall
			att.Err = fmt.Errorf("sweep: attempt %q on point %q abandoned after %v (model unresponsive to cancellation): %w",
				rung0.Name, points[k].Name, wall.Round(time.Millisecond), cause)
			attempt(k, points[k].Name, att)
			out[k] = PointResult{Index: k, Name: points[k].Name, Attempts: []Attempt{att}, Err: att.Err, Wall: wall}
			finalize(k)
		}
		return
	}

	if bo.batchErr != nil {
		if bo.panicked || !budget.Is(bo.batchErr) {
			// Batch-level infrastructure failure: nothing point-specific was
			// learned, so every lane restarts on the isolated scalar path
			// (where a panicking model becomes that point's own PanicError).
			scalarFallback(live)
			return
		}
		// The whole-batch budget tripped: a typed per-point failure, exactly
		// like a scalar attempt cut off mid-pipeline. Not retryable.
		for i, k := range live {
			att := lcs[i].att
			att.Wall = wall
			cause := lcs[i].atTok.Err()
			if cause == nil {
				cause = bo.batchErr
			}
			att.Err = cause
			attempt(k, points[k].Name, att)
			out[k] = PointResult{Index: k, Name: points[k].Name, Attempts: []Attempt{att}, Err: att.Err, PSS: lcs[i].partial.PSS, Wall: wall}
			finalize(k)
		}
		return
	}

	m.batches.With("ok").Inc()
	for i, k := range live {
		p := points[k]
		lc := lcs[i]
		att := lc.att
		att.Wall = wall
		att.Err = bo.laneErrs[i]
		attempt(k, p.Name, att)
		res := PointResult{Index: k, Name: p.Name, Attempts: []Attempt{att}, Wall: wall}
		if att.Err == nil {
			res.Result = bo.results[i]
			res.PSS = res.Result.PSS
			commitCache(c, p, &res, bsp)
			out[k] = res
			finalize(k)
			continue
		}
		res.Err = att.Err
		res.PSS = lc.partial.PSS
		if Retryable(att.Err) {
			// Continue this point's own ladder from the next rung; the seed
			// carries the batched attempt's history and partial PSS, so the
			// shooting-reuse fast path applies when only downstream knobs
			// change on the next rung.
			res = continueLadder(k, p, c, attempt, bsp, res, 1, lc.opts, lc.partial.PSS)
			commitCache(c, p, &res, bsp)
		}
		out[k] = res
		finalize(k)
	}
}

// buildBatchEvaluator vectorises the live points' systems, converting a
// panic from a hostile model into an error so the caller can fall back.
func buildBatchEvaluator(points []Point, live []int) (be dynsys.BatchEvaluator, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			be, err = nil, fmt.Errorf("sweep: building batch evaluator panicked: %v", rec)
		}
	}()
	systems := make([]dynsys.System, len(live))
	for i, k := range live {
		systems[i] = points[k].System
	}
	return osc.BatchSystems(systems)
}

// commitCache encodes a freshly computed successful result once (see
// encodeResult) and stores it under the point's content key with its
// scalars noted, best effort — the scalar path stores through Cache.Do (and
// through commitCache only over a stale entry), the batched path through
// Put; both end up under the same pnfp1 key because batching never changes
// the result.
func commitCache(c *Config, p Point, r *PointResult, sp *obs.Span) {
	if c.Cache == nil || p.Key == "" || !r.OK() || encodeResult(r, sp) != nil {
		return
	}
	if c.Cache.Put(p.Key, r.payload) == nil {
		c.Cache.Note(p.Key, r.payload, r.scalars)
	}
}
