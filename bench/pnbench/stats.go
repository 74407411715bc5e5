package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one printed metric: its name and unit as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed for every workload.
// A workload's results are its interactive jobs (characterise and compose),
// or the points of its sweeps on sweep-batch.
var endToEnd = []metricDef{
	{"setup_s", "s"},                  // exec until /readyz 200, plus the warm-up; median of the set-ups
	{"latency_p50_ms", "ms"},          // due time → result at the client (job, or sweep point), median
	{"latency_p90_ms", "ms"},          // … and 90th percentile
	{"cpu_ms_per_point", "ms/point"},  // pnserve CPU time over the window per point finished ok
	{"peak_rss_mb", "MB"},             // VmHWM of pnserve at the end of the workload
	{"disk_mb_per_point", "MB/point"}, // journal-dir bytes over the points of the jobs that own them
}

// perLayer are the metrics of a traced run. Sources: (c) the benchmark's own
// spans around its calls, (r) the loss-free results and job traces the
// server returns, (m) /metrics deltas over the window, (d) direct calls into
// the layers' functions on the first 24 generated specs.
var perLayer = []metricDef{
	{"serve.submit_ms", "ms"},                      // (c) POST → 202, median
	{"serve.queue_wait_p50_ms", "ms"},              // (c) 202 → running event
	{"serve.queue_wait_p90_ms", "ms"},              // (c)
	{"serve.run_ms", "ms"},                         // (c) running → terminal event, median
	{"serve.status_ms", "ms"},                      // (c) terminal event → final GET /v1/jobs/{id} answered, median
	{"serve.results_fetch_s", "s"},                 // (c) terminal event → last JSONL line of a sweep, median
	{"serve.spill_mb_per_point", "MB/point"},       // (m) pn_serve_results_bytes_total per spilled frame
	{"serve.spill_encode_ms", "ms"},                // (d) json.Marshal(sweep.PointResult), median
	{"serve.journal_writes_per_job", "writes/job"}, // (m)
	{"serve.rejected", "count"},                    // (m) pn_serve_rejected_total
	{"serve.chunks_per_sweep", "chunks/job"},       // (r) sweep.Run spans per sweep job trace
	{"osc.resolve_ms", "ms"},                       // (d) serve.PointSpec.Resolve, median
	{"cache.hit_ratio", "ratio"},                   // (m) exact
	{"cache.evictions", "count"},                   // (m)
	{"cache.mem_mb", "MB"},                         // (m) pn_cache_mem_bytes at the end
	{"cache.encode_ms", "ms"},                      // (d) json.Marshal(core.Result), median
	{"cache.payload_mb", "MB"},                     // (d) encoded core.Result, mean
	{"cache.decode_ms", "ms"},                      // (d) json.Unmarshal into core.Result, median
	{"sweep.point_wall_ms", "ms"},                  // (r) mean point wall
	{"sweep.point_overhead_ms", "ms"},              // (r) point wall minus its attempts' walls, mean
	{"sweep.attempts_per_point", "attempts/point"}, // (r) exact
	{"sweep.worker_busy_frac", "fraction"},         // (r) Σ sweep.point ÷ (Σ sweep.Run × workers)
	{"core.wall_ms", "ms"},                         // (r) per point, mean
	{"core.quad_ms", "ms"},                         // (r)
	{"core.self_ms", "ms"},                         // (r) core wall minus shooting, floquet and quadrature
	{"shooting.wall_ms", "ms"},                     // (r)
	{"shooting.transient_ms", "ms"},                // (r)
	{"shooting.newton_iters", "iters/point"},       // (r) exact
	{"floquet.wall_ms", "ms"},                      // (r)
	{"floquet.adjoint_ms", "ms"},                   // (r)
	{"floquet.adjoint_steps", "steps/point"},       // (r) exact
	{"ode.steps_per_point", "steps/point"},         // (d) pn_ode_steps_total over the direct calls, exact
	{"pll.compose_ms", "ms"},                       // (d) pll.Compose on the workload's compose configs, median
	{"obs.trace_overhead_frac", "fraction"},        // traced ÷ untraced pass's p50 latency, each at the reference speed, − 1
	{"obs.trace_agreement_frac", "fraction"},       // (r) walls vs the same jobs' trace spans, worst relative gap
	{"gen.late_p90_ms", "ms"},                      // open-loop dispatch lateness; a run above 20 ms is invalid
}

// exactCounts must repeat exactly between runs of the same code and seed.
var exactCounts = map[string]bool{
	"cache.hit_ratio": true, "ode.steps_per_point": true, "shooting.newton_iters": true,
	"floquet.adjoint_steps": true, "sweep.attempts_per_point": true,
}

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(p, len(s)), 1)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples;
// the epsilon keeps 99.9 % of 10000 at 9990 despite 99.9's binary rounding.
func rank(p float64, n int) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// beyond is how many of n samples lie above their nearest-rank p-th
// percentile. A percentile is reported only with at least ten beyond it.
func beyond(p float64, n int) int { return n - rank(p, n) }

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method, which is the rule BENCHMARK.json's spreads use.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	switch n {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
