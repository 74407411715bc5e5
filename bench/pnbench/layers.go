package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pll"
	"repro/internal/sweep"
)

// measureLayers computes the per-layer metrics of a traced pass, after its
// window, from the four sources listed with perLayer.
func (p *pass) measureLayers(ctx context.Context, o options, srv *server, c *client) error {
	v := map[string]float64{}
	p.samples = map[string]int{}

	// (c) the benchmark's spans around its own calls.
	for _, out := range p.window {
		p.rec.requestTree(out)
	}
	accepted := stageTimes(p.rec.spans, func(r obs.Event) bool { return r.Attrs["accepted"] == true })
	done := stageTimes(p.rec.spans, func(r obs.Event) bool { return r.Attrs["ok"] == true })
	fg := stageTimes(p.rec.spans, func(r obs.Event) bool {
		return r.Attrs["ok"] == true && (r.Attrs["kind"] == "sweep") == (p.workload == sweepBatch)
	})
	v["serve.submit_ms"] = median(accepted["submit"])
	v["serve.queue_wait_p50_ms"] = median(fg["queue"])
	v["serve.queue_wait_p90_ms"] = percentile(fg["queue"], 90)
	v["serve.run_ms"] = median(fg["run"])
	v["serve.status_ms"] = median(done["status"])
	v["serve.results_fetch_s"] = median(done["fetch"]) / 1000
	p.samples["queue"] = len(fg["queue"])
	v["gen.late_p90_ms"] = p.lateP90()

	// (m) /metrics deltas over the window.
	if n := delta(p, "pn_serve_results_spilled_total"); n > 0 {
		v["serve.spill_mb_per_point"] = delta(p, "pn_serve_results_bytes_total") / 1e6 / n
	}
	if n := delta(p, "pn_serve_jobs_total"); n > 0 {
		v["serve.journal_writes_per_job"] = delta(p, "pn_serve_journal_writes_total") / n
	}
	v["serve.rejected"] = delta(p, "pn_serve_rejected_total")
	if hits, lookups := p.cacheLookups(); lookups > 0 {
		v["cache.hit_ratio"] = hits / lookups
	}
	v["cache.evictions"] = delta(p, "pn_cache_evictions_total")
	v["cache.mem_mb"] = p.after["pn_cache_mem_bytes"] / 1e6

	// (r) loss-free results and job traces of the sample.
	if err := p.resultLayers(ctx, c, srv.procs, v); err != nil {
		return err
	}
	// (d) direct calls into the layers.
	if err := p.directLayers(o, v); err != nil {
		return err
	}
	p.layers = v
	return nil
}

// sample is the traced run's result sample: the last 24 interactive jobs
// that finished ok, by request index, and sweep job 0. On open-loop
// workloads every request finishes, so the sample repeats exactly from run
// to run, and with it the exact counts; sweep job 0 always finishes.
func (p *pass) sample() []*outcome {
	var interactive []*outcome
	var sweep0 *outcome
	for _, o := range p.window {
		switch {
		case !o.ok():
		case o.req.Sweep == nil:
			interactive = append(interactive, o)
		case o.req.Index == 0:
			sweep0 = o
		}
	}
	sort.Slice(interactive, func(i, j int) bool { return interactive[i].req.Index < interactive[j].req.Index })
	if len(interactive) > directSpecs {
		interactive = interactive[len(interactive)-directSpecs:]
	}
	if sweep0 != nil {
		return append(interactive, sweep0)
	}
	return interactive
}

// resultLayers fetches, one request at a time, the sample's loss-free
// results and the traces of the sample and of every sweep job, and derives
// the sweep, core, shooting and floquet metrics. The results' wall times and
// the trace's spans time the same code, so their disagreement over the
// sample checks both sources.
func (p *pass) resultLayers(ctx context.Context, c *client, procs int, v map[string]float64) error {
	sample := p.sample()
	traced := append([]*outcome(nil), sample...)
	for _, o := range p.window {
		if o.ok() && o.req.Sweep != nil && o.req.Index != 0 {
			traced = append(traced, o)
		}
	}
	var results []sweep.PointResult
	var busy, capacity, resPoint, resCore, spanPoint, spanCore float64
	var chunks []float64
	for i, o := range traced {
		jt, err := c.interactive.Trace(ctx, o.id)
		if err != nil {
			return fmt.Errorf("fetching trace of %s: %w", o.id, err)
		}
		span := map[string]float64{}
		runs := 0
		for _, ev := range jt.Spans {
			if ev.Type == "span" {
				span[ev.Name] += ms(time.Duration(ev.DurNS))
				if ev.Name == "sweep.Run" {
					runs++
				}
			}
		}
		busy += span["sweep.point"]
		capacity += span["sweep.Run"] * float64(min(len(o.req.specs()), procs))
		if o.req.Sweep != nil {
			chunks = append(chunks, float64(runs))
		}
		if i >= len(sample) {
			continue
		}
		prs, err := fetchResults(ctx, c, o)
		if err != nil {
			return err
		}
		for _, pr := range prs {
			resPoint += ms(pr.Wall)
			for _, a := range pr.Attempts {
				resCore += ms(a.Trace.Wall)
			}
		}
		spanPoint += span["sweep.point"]
		spanCore += span["core.Characterise"]
		results = append(results, prs...)
	}
	p.samples["results"] = len(results)
	p.samples["traces"] = len(traced)
	v["serve.chunks_per_sweep"] = mean(chunks)
	if capacity > 0 {
		v["sweep.worker_busy_frac"] = busy / capacity
	}
	if spanPoint > 0 {
		v["obs.trace_agreement_frac"] = math.Abs(resPoint-spanPoint) / spanPoint
	}
	if spanCore > 0 {
		v["obs.trace_agreement_frac"] = max(v["obs.trace_agreement_frac"], math.Abs(resCore-spanCore)/spanCore)
	}

	var wall, overhead, attempts, coreW, quad, self, shoot, transient, iters, floq, adjoint, steps []float64
	for _, pr := range results {
		var att, cw, qw, sw, tw, fw, aw time.Duration
		var it, st int
		for _, a := range pr.Attempts {
			t := a.Trace
			att += a.Wall
			cw += t.Wall
			qw += t.QuadWall
			sw += t.Shooting.Wall
			tw += t.Shooting.TransientWall
			fw += t.Floquet.Wall
			aw += t.Floquet.AdjointWall
			it += t.Shooting.Iters
			st += t.Floquet.Steps
		}
		wall = append(wall, ms(pr.Wall))
		overhead = append(overhead, ms(pr.Wall-att))
		attempts = append(attempts, float64(len(pr.Attempts)))
		coreW, quad, self = append(coreW, ms(cw)), append(quad, ms(qw)), append(self, ms(cw-sw-fw-qw))
		shoot, transient, iters = append(shoot, ms(sw)), append(transient, ms(tw)), append(iters, float64(it))
		floq, adjoint, steps = append(floq, ms(fw)), append(adjoint, ms(aw)), append(steps, float64(st))
	}
	for name, xs := range map[string][]float64{
		"sweep.point_wall_ms": wall, "sweep.point_overhead_ms": overhead, "sweep.attempts_per_point": attempts,
		"core.wall_ms": coreW, "core.quad_ms": quad, "core.self_ms": self,
		"shooting.wall_ms": shoot, "shooting.transient_ms": transient, "shooting.newton_iters": iters,
		"floquet.wall_ms": floq, "floquet.adjoint_ms": adjoint, "floquet.adjoint_steps": steps,
	} {
		v[name] = mean(xs)
	}
	return nil
}

// fetchResults pages through a job's loss-free results, 16 points a page.
func fetchResults(ctx context.Context, c *client, o *outcome) ([]sweep.PointResult, error) {
	var out []sweep.PointResult
	for offset := 0; offset < len(o.req.specs()); offset += 16 {
		page, err := c.interactive.Results(ctx, o.id, offset, 16)
		if err != nil {
			return nil, fmt.Errorf("fetching results of %s: %w", o.id, err)
		}
		for _, raw := range page.Results {
			var pr sweep.PointResult
			if err := json.Unmarshal(raw, &pr); err != nil {
				return nil, fmt.Errorf("decoding results of %s: %w", o.id, err)
			}
			out = append(out, pr)
		}
	}
	return out, nil
}

// directLayers calls the layers' functions in this process on the first 24
// generated specs of the workload: model resolution, the pipeline itself,
// the cache codec, the spill codec, and for hot-repeat pll.Compose on its
// compose configs. Each call is a span; the ODE step count is exact.
func (p *pass) directLayers(o options, v map[string]float64) error {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	specs := directSet(o.workload, o.seed, o.seconds)
	byKey := map[string]sweep.PointResult{}
	var resolve, encode, decode, spill, payload []float64
	for i, sp := range specs {
		trace := fmt.Sprintf("direct-%d", i)
		t0 := time.Now()
		pt, err := sp.Resolve(nil)
		if err != nil {
			return fmt.Errorf("resolving direct spec %d: %w", i, err)
		}
		t1 := time.Now()
		res := sweep.Run([]sweep.Point{pt}, &sweep.Config{Workers: 1})[0]
		if !res.OK() {
			return fmt.Errorf("direct spec %d (%s) failed: %v", i, sp.Model, res.Err)
		}
		t2 := time.Now()
		data, err := json.Marshal(res.Result)
		if err != nil {
			return err
		}
		t3 := time.Now()
		var cr core.Result
		if err := json.Unmarshal(data, &cr); err != nil {
			return err
		}
		t4 := time.Now()
		if _, err := json.Marshal(res); err != nil {
			return err
		}
		t5 := time.Now()
		root := p.rec.span(trace, "direct", 0, t0, t5, map[string]any{"model": sp.Model})
		p.rec.span(trace, "resolve", root, t0, t1, nil)
		p.rec.span(trace, "characterise", root, t1, t2, nil)
		p.rec.span(trace, "encode", root, t2, t3, map[string]any{"bytes": len(data)})
		p.rec.span(trace, "decode", root, t3, t4, nil)
		p.rec.span(trace, "spill_encode", root, t4, t5, nil)
		resolve, encode = append(resolve, ms(t1.Sub(t0))), append(encode, ms(t3.Sub(t2)))
		decode, spill = append(decode, ms(t4.Sub(t3))), append(spill, ms(t5.Sub(t4)))
		payload = append(payload, float64(len(data))/1e6)
		byKey[sp.RoutingKey()] = res
	}
	v["osc.resolve_ms"] = median(resolve)
	v["cache.encode_ms"] = median(encode)
	v["cache.decode_ms"] = median(decode)
	v["cache.payload_mb"] = mean(payload)
	v["serve.spill_encode_ms"] = median(spill)
	if len(specs) > 0 {
		var steps int64
		for _, cv := range reg.Snapshot().Counters {
			if cv.Name == "pn_ode_steps_total" {
				steps += cv.Value
			}
		}
		v["ode.steps_per_point"] = float64(steps) / float64(len(specs))
	}
	p.samples["direct"] = len(specs)

	if o.workload != hotRepeat {
		return nil
	}
	pl := pool(o.seed)
	var compose []float64
	for i := 0; len(compose) < directSpecs; i++ {
		r := hotRequest(o.seed, pl, i)
		if r.Compose == nil {
			continue
		}
		legs := r.Compose.SpecLegs()
		results := make([]sweep.PointResult, len(legs))
		for j, l := range legs {
			results[j] = byKey[l.RoutingKey()]
		}
		cfg, err := r.Compose.BuildConfig(results)
		if err != nil {
			return fmt.Errorf("building compose config %d: %w", i, err)
		}
		t0 := time.Now()
		if _, err := pll.Compose(cfg); err != nil {
			return fmt.Errorf("composing config %d: %w", i, err)
		}
		t1 := time.Now()
		trace := fmt.Sprintf("direct-compose-%d", i)
		root := p.rec.span(trace, "direct", 0, t0, t1, map[string]any{"stages": len(r.Compose.Stages)})
		p.rec.span(trace, "compose", root, t0, t1, nil)
		compose = append(compose, ms(t1.Sub(t0)))
	}
	v["pll.compose_ms"] = median(compose)
	p.samples["compose"] = len(compose)
	return nil
}
