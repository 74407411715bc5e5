package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/osc"
	"repro/internal/serve"
)

// pass is one measured window on a fresh server.
type pass struct {
	workload   string
	traced     bool
	setups     []float64 // seconds, one per set-up
	warm       []*outcome
	window     []*outcome
	start, end time.Time
	before     map[string]float64 // /metrics at the window start
	after      map[string]float64 // … and end
	rssMB      float64
	cpuSeconds float64 // pnserve's CPU time over the window
	probe      *probe  // times the machine from the first set-up to the window's end
	diskBytes  int64
	diskPoints int
	problems   []string
	rec        *recorder
	layers     map[string]float64
	samples    map[string]int
}

func (p *pass) failed() int {
	n := 0
	for _, o := range p.window {
		if !o.ok() {
			n++
		}
	}
	return n
}

func (p *pass) correct() bool { return len(p.problems) == 0 && p.failed() == 0 }

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// setUp starts a server, warms it up and returns it with its client. The
// set-up time runs from exec to the end of the warm-up.
func setUp(ctx context.Context, o options, warm []request) (*server, *client, []*outcome, float64, error) {
	srv, err := startServer(ctx, o.pnserve, filepath.Join(o.workdir, "run", o.workload))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	c := newClient(srv.base)
	outs := c.runAll(ctx, warm)
	return srv, c, outs, time.Since(srv.started).Seconds(), nil
}

// tearDown drains the server and removes its journal directory, returning
// the directory's size and the IDs of the jobs that still own files in it.
func tearDown(srv *server, c *client) (int64, map[string]bool, error) {
	c.close()
	if err := srv.stop(); err != nil {
		return 0, nil, err
	}
	bytes, ids, err := dirUsage(srv.dir)
	if err != nil {
		return 0, nil, err
	}
	if err := os.RemoveAll(srv.dir); err != nil {
		return 0, nil, err
	}
	_ = os.Remove(srv.dir + ".log")
	return bytes, ids, nil
}

// warmupRequests is the workload's fixed warm-up; hot-repeat's is its pool.
func warmupRequests(o options) []request {
	specs := fixedWarmup
	if o.workload == hotRepeat {
		specs = pool(o.seed)
	}
	reqs := make([]request, len(specs))
	for i, sp := range specs {
		reqs[i] = request{Index: i, Char: &serve.CharacteriseRequest{PointSpec: sp}}
	}
	return reqs
}

// runPass sets the server up n times (all but the last only to time the
// set-up), then measures the window on the last one.
func runPass(ctx context.Context, o options, traced bool, n int) (*pass, error) {
	p := &pass{workload: o.workload, traced: traced, probe: startProbe()}
	defer p.probe.finish()
	warm := warmupRequests(o)
	var srv *server
	var c *client
	for i := 0; i < n; i++ {
		s, cl, outs, secs, err := setUp(ctx, o, warm)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, secs)
		p.warm = outs
		p.checkOutcomes("warm-up", outs)
		if i == n-1 {
			srv, c = s, cl
			break
		}
		if _, _, err := tearDown(s, cl); err != nil {
			return nil, err
		}
	}
	if err := p.measure(ctx, o, srv, c); err != nil {
		c.close()
		srv.kill()
		_ = os.RemoveAll(srv.dir)
		return nil, err
	}
	bytes, ids, err := tearDown(srv, c)
	if err != nil {
		return nil, err
	}
	p.diskBytes = bytes
	for _, out := range append(append([]*outcome(nil), p.warm...), p.window...) {
		if ids[out.id] {
			p.diskPoints += len(out.req.specs())
		}
	}
	return p, nil
}

// measure runs the window on a warmed server and checks what came back.
func (p *pass) measure(ctx context.Context, o options, srv *server, c *client) error {
	var err error
	if p.before, err = scrape(ctx, c.apiHTTP, srv.base); err != nil {
		return err
	}
	if p.traced {
		p.rec = &recorder{}
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	var k collector
	p.start = time.Now()
	deadline := p.start.Add(time.Duration(o.seconds) * time.Second)
	sweeps := func(i int) (request, bool) { return sweepRequest(o.seed, i), true }
	switch o.workload {
	case coldOpen:
		c.openLoop(ctx, coldRequests(o.seed, o.seconds), p.start, &k)
	case hotRepeat:
		pl := pool(o.seed)
		c.closedLoop(ctx, hotClients, deadline, func(i int) (request, bool) { return hotRequest(o.seed, pl, i), true }, &k)
	case sweepBatch:
		c.closedLoop(ctx, 1, deadline, sweeps, &k)
	case mixedTenants:
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.closedLoop(ctx, 1, deadline, sweeps, &k)
		}()
		c.openLoop(ctx, interactiveRequests(o.seed, o.seconds), p.start, &k)
		wg.Wait()
	}
	p.probe.finish()
	p.window = k.all()
	p.end = p.start
	for _, out := range p.window {
		if out.end.After(p.end) {
			p.end = out.end
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("window did not finish: %w", err)
	}
	if p.after, err = scrape(ctx, c.apiHTTP, srv.base); err != nil {
		return err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	p.cpuSeconds = cpu1 - cpu0
	if p.rssMB, err = srv.peakRSSMB(); err != nil {
		return err
	}
	p.checkOutcomes("window", p.window)
	p.checkWindow()
	if p.traced {
		return p.measureLayers(ctx, o, srv, c)
	}
	return nil
}

// foreground are the outcomes whose latency the workload reports: the
// interactive jobs, or the sweeps on sweep-batch.
func (p *pass) foreground() []*outcome {
	var out []*outcome
	for _, o := range p.window {
		if (o.req.Sweep != nil) == (p.workload == sweepBatch) {
			out = append(out, o)
		}
	}
	return out
}

// latencies are the workload's result latencies in ms, from the time a
// request was due to the moment a result reached the client: an interactive
// job's terminal event or, on sweep-batch, each sweep point's event. A
// sweep-batch window holds about ten jobs, too few for a p90, but some 700
// points.
func (p *pass) latencies() []float64 {
	var xs []float64
	for _, o := range p.foreground() {
		switch {
		case !o.ok():
		case o.req.Sweep == nil:
			xs = append(xs, ms(o.latency()))
		default:
			for _, t := range o.pointAt {
				xs = append(xs, ms(t.Sub(o.due)))
			}
		}
	}
	return xs
}

// endToEndValues computes the untraced run's metrics. The timings are scaled
// to the reference machine's speed (probe.go); stderr gives them as measured.
func endToEndValues(p *pass) map[string]float64 {
	lat := p.latencies()
	points := 0
	for _, o := range p.window {
		if o.ok() {
			points += len(o.points)
		}
	}
	scale := p.probe.scale()
	v := map[string]float64{
		"setup_s":        median(p.setups) * scale,
		"latency_p50_ms": median(lat) * scale,
		"latency_p90_ms": percentile(lat, 90) * scale,
		"peak_rss_mb":    p.rssMB,
	}
	if points > 0 {
		v["cpu_ms_per_point"] = p.cpuSeconds * 1000 / float64(points) * scale
	}
	if p.diskPoints > 0 {
		v["disk_mb_per_point"] = float64(p.diskBytes) / 1e6 / float64(p.diskPoints)
	}
	past := beyond(90, len(lat))
	if past < 10 {
		p.problem("latency_p90_ms rests on %d samples, %d beyond it: fewer than 10", len(lat), past)
	}
	fmt.Fprintf(os.Stderr, "pnbench: %s, as measured: latency p50 %.1f ms, p90 %.1f ms over %d results (%d beyond the p90); %d points in %.2f s, %.1f CPU ms each; set-ups %.3f s; probe %.4f ms (reference %.4f)\n",
		p.workload, median(lat), percentile(lat, 90), len(lat), past, points, p.end.Sub(p.start).Seconds(), v["cpu_ms_per_point"]/scale, p.setups, p.probe.ms, refProbeMS)
	return v
}

// checkOutcomes applies the per-answer correctness checks.
func (p *pass) checkOutcomes(phase string, outs []*outcome) {
	for _, o := range outs {
		if !o.ok() {
			p.problem("%s request %d (%s) did not finish ok: state %q, %d/%d points, err %v",
				phase, o.req.Index, o.id, o.state, len(o.points), len(o.req.specs()), o.err)
			continue
		}
		specs := o.req.specs()
		for _, pt := range o.points {
			if pt.Index < 0 || pt.Index >= len(specs) {
				p.problem("%s job %s: point index %d out of range", phase, o.id, pt.Index)
				continue
			}
			if err := checkPoint(specs[pt.Index], pt); err != nil {
				p.problem("%s job %s point %d: %v", phase, o.id, pt.Index, err)
			}
		}
		if c := o.compose; c != nil && !(c.JitterSec > 0 && !math.IsInf(c.JitterSec, 0)) {
			p.problem("%s compose job %s: jitter %v s", phase, o.id, c.JitterSec)
		}
	}
}

// checkPoint holds a point to what theory and the paper pin: c = σ²/ω² for
// the Hopf normal form, c = 7.5602e-08 s²·Hz for the paper's bandpass
// oscillator, f0 = 1.6769e8 Hz for the nominal ECL ring.
func checkPoint(sp serve.PointSpec, s serve.PointSummary) error {
	if !s.OK {
		return fmt.Errorf("not ok")
	}
	p := osc.DefaultParams(sp.Model)
	for k, v := range sp.Params {
		p[k] = v
	}
	rel := func(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }
	switch sp.Model {
	case "hopf":
		if want := p["sigma"] * p["sigma"] / (p["omega"] * p["omega"]); rel(s.C, want) > 1e-6 {
			return fmt.Errorf("hopf c = %g, want σ²/ω² = %g", s.C, want)
		}
	case "bandpass":
		if rel(s.C, 7.5602e-08) > 1e-4 {
			return fmt.Errorf("bandpass c = %g, want 7.5602e-08", s.C)
		}
	case "ring":
		if len(sp.Params) == 0 && rel(s.F0, 1.6769e8) > 1e-3 {
			return fmt.Errorf("nominal ring f0 = %g, want 1.6769e8", s.F0)
		}
	}
	return nil
}

// checkWindow applies the whole-window checks: hot-repeat is served entirely
// from the cache with answers bit-identical to the warm-up's cold
// computations, cold-open never hits it, and the open-loop generator kept to
// its schedule.
func (p *pass) checkWindow() {
	hits, lookups := p.cacheLookups()
	switch p.workload {
	case hotRepeat:
		if lookups == 0 || hits != lookups {
			p.problem("hot-repeat cache hit ratio %v/%v, want exactly 1", hits, lookups)
		}
		cold := map[string][2]uint64{}
		for _, o := range p.warm {
			for _, pt := range o.points {
				if pt.Index == 0 { // warm-up jobs characterise one point
					cold[o.req.specs()[0].RoutingKey()] = [2]uint64{math.Float64bits(pt.C), math.Float64bits(pt.F0)}
				}
			}
		}
		for _, o := range p.window {
			specs := o.req.specs()
			for _, pt := range o.points {
				if pt.Index < 0 || pt.Index >= len(specs) {
					continue
				}
				want, ok := cold[specs[pt.Index].RoutingKey()]
				if !ok || !pt.Cached || want != [2]uint64{math.Float64bits(pt.C), math.Float64bits(pt.F0)} {
					p.problem("hot-repeat job %s point %d: c %v f0 %v cached %v, not the warm-up's bits", o.id, pt.Index, pt.C, pt.F0, pt.Cached)
				}
			}
		}
	case coldOpen:
		if lookups == 0 || hits != 0 {
			p.problem("cold-open cache hit ratio %v/%v, want exactly 0", hits, lookups)
		}
	}
	if late := p.lateP90(); late > 20 {
		p.problem("open-loop generator ran %.1f ms late at p90 (limit 20 ms): the run is invalid", late)
	}
}

// lateP90 is the p90 dispatch lateness of the open-loop requests, in ms.
func (p *pass) lateP90() float64 {
	var xs []float64
	for _, o := range p.window {
		if o.req.Sweep == nil && p.workload != hotRepeat {
			xs = append(xs, ms(o.late))
		}
	}
	return percentile(xs, 90)
}

// cacheLookups is the window's cache hits (including joins of an identical
// in-flight computation) and lookups.
func (p *pass) cacheLookups() (hits, lookups float64) {
	hits = delta(p, "pn_cache_hits_total") + delta(p, "pn_cache_shared_total")
	return hits, hits + delta(p, "pn_cache_misses_total")
}

// delta is a metric family's increase over the window.
func delta(p *pass, family string) float64 {
	return sumFamily(p.after, family) - sumFamily(p.before, family)
}
