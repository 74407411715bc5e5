// Command pnsweep batch-characterises a named oscillator over a parameter
// grid using the internal/sweep engine: every grid point runs the full
// shooting → Floquet → c-quadrature pipeline on a bounded worker pool, hard
// points escalate through the retry ladder, and failures are reported
// per-point instead of aborting the sweep.
//
// Usage:
//
//	pnsweep -osc hopf|vanderpol|ring [-min v] [-max v] [-n points]
//	        [-workers n] [-timeout d] [-point-timeout d] [-json file] [-v]
//	        [-cache-dir dir] [-cache-mem bytes] [-server url]
//	        [-status]
//	        [-debug-addr :6060] [-cpuprofile f] [-memprofile f] [-trace-out f]
//
// The swept parameter depends on the oscillator: hopf sweeps the angular
// frequency ω, vanderpol the nonlinearity μ, ring the tail bias current IEE.
// A summary table goes to stdout; -json writes the full per-point results —
// loss-free, including trajectories, retry history and per-stage diagnostics
// — as JSON.
//
// -server runs the same sweep remotely on a pnserve instance instead of in
// process: the grid is submitted as one job (under an Idempotency-Key, so
// client-side retries never queue duplicates), progress streams back over
// Server-Sent Events with automatic reconnection — a pnserve restart
// mid-sweep is survived transparently when the server journals its jobs —
// and the same summary table and -json output render from the job's
// loss-free results, downloaded as its results.jsonl stream (-stream-out
// copies that stream into a file instead, undecoded). SIGINT cancels the
// remote job through the API. The
// server's own execution slots run the points (-workers is local only), and
// the server's cache (not -cache-dir) serves repeated points. Every remote
// submission mints a distributed trace ID and sends it as a Traceparent
// header, so the job's merged timeline — coordinator and worker spans under
// one trace — is afterwards queryable at GET <server>/v1/jobs/{id}/trace.
//
// -status (with -server) prints the server's live fleet view — worker health,
// circuit-breaker states, flap quarantine, in-flight leases, queue depth —
// from GET /v1/cluster/status, then exits.
//
// -cache-dir reuses prior characterisations from a content-addressed result
// store shared with pnchar and pnserve: identical points are served from the
// cache (status "cached", counted on the progress line) without running the
// pipeline, and fresh results are persisted for the next run.
//
// On a terminal, a live progress line on stderr tracks points done, failures,
// retries and the ETA; it is suppressed when stderr is piped or with -v.
// -debug-addr serves /metrics (Prometheus text format) and /debug/pprof/
// while the sweep runs; -cpuprofile/-memprofile write pprof files and
// -trace-out records the pipeline's span events as JSON lines.
//
// -timeout bounds the whole sweep and -point-timeout each point's retry
// ladder by wall clock. SIGINT (Ctrl-C) cancels in-flight points; the
// summary table and JSON are still emitted for everything that completed
// (a second SIGINT aborts immediately). Cut-off points appear in the table
// as TIMEOUT or CANCELED, panicking models as PANIC, and points where
// shooting converged but the rest of the pipeline did not as FAILED* — the
// star marks a preserved partial periodic steady state, whose period is
// reported in the JSON output.
package main

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/cliobs"
	"repro/internal/obs"
	"repro/internal/pnclient"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// pointJSON is the JSON shape of one sweep point result: the swept parameter
// and a human-readable status next to the loss-free engine result. Point
// round-trips through sweep.PointResult's JSON codec, so trajectories, the
// Floquet decomposition, per-source budgets, retry history and typed
// budget/panic error classification all survive re-reading the file.
type pointJSON struct {
	Name   string             `json:"name"`
	Param  float64            `json:"param"`
	Status string             `json:"status"` // ok | cached | recovered | failed | timeout | canceled | panic
	Point  *sweep.PointResult `json:"point"`
}

// status classifies a point result for the table and JSON.
func status(r *sweep.PointResult) string {
	switch {
	case r.OK() && r.Cached:
		return "cached"
	case r.OK() && len(r.Attempts) > 1:
		return "recovered"
	case r.OK():
		return "ok"
	case errors.Is(r.Err, sweep.ErrModelPanic):
		return "panic"
	case errors.Is(r.Err, budget.ErrBudgetExceeded):
		return "timeout"
	case errors.Is(r.Err, budget.ErrCanceled):
		return "canceled"
	default:
		return "failed"
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pnsweep: ")
	// All work happens in run so its defers — profile writers, the trace
	// file, the debug server — run before the process exits.
	os.Exit(run())
}

func run() int {
	oscName := flag.String("osc", "hopf", "oscillator: hopf (sweeps ω), vanderpol (sweeps μ), ring (sweeps IEE)")
	pmin := flag.Float64("min", 0, "sweep parameter lower bound (0 = oscillator default)")
	pmax := flag.Float64("max", 0, "sweep parameter upper bound (0 = oscillator default)")
	n := flag.Int("n", 8, "number of grid points")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole sweep (0 = unbounded)")
	ptTimeout := flag.Duration("point-timeout", 0, "wall-clock budget per point, all retries included (0 = unbounded)")
	jsonPath := flag.String("json", "", "write full JSON results to this file")
	verbose := flag.Bool("v", false, "stream per-attempt progress to stderr")
	cacheDir := flag.String("cache-dir", "", "reuse characterisation results from this directory (shared with pnchar and pnserve; empty = no cache)")
	cacheMem := flag.Int64("cache-mem", cache.DefaultMaxBytes, "in-memory result cache bound in bytes (only with -cache-dir)")
	server := flag.String("server", "", "run the sweep remotely on this pnserve base URL (e.g. http://127.0.0.1:8080) instead of in process")
	statusOnly := flag.Bool("status", false, "with -server: print the server's live cluster status (workers, breakers, leases) and exit")
	tenant := flag.String("tenant", "", "with -server: tenant identity sent as the "+serve.TenantHeader+" header; 429s are retried after the server's Retry-After (empty = the server's default tenant)")
	streamOut := flag.String("stream-out", "", "with -server: copy the job's loss-free results.jsonl into this file as it arrives, undecoded (the table then shows the point summaries and -json is not written)")
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()

	stopObs, err := obsFlags.Start()
	if err != nil {
		log.Print(err)
		return 1
	}
	defer stopObs()

	if *statusOnly {
		if *server == "" {
			log.Print("-status requires -server")
			return 1
		}
		return runStatus(*server)
	}

	specs, param, err := buildSpecs(*oscName, *pmin, *pmax, *n)
	if err != nil {
		log.Print(err)
		return 1
	}

	if *server != "" {
		return runRemote(*server, specs, param, *timeout, *jsonPath, *verbose, *tenant, *streamOut)
	}
	if *tenant != "" || *streamOut != "" {
		fmt.Fprintln(os.Stderr, "pnsweep: -tenant and -stream-out apply to -server runs only")
	}

	var store *cache.Store
	if *cacheDir != "" {
		if store, err = cache.New(cache.Options{MaxBytes: *cacheMem, Dir: *cacheDir}); err != nil {
			log.Print(err)
			return 1
		}
	}

	points, err := resolveSpecs(specs)
	if err != nil {
		log.Print(err)
		return 1
	}

	// Batch budget: optional deadline plus SIGINT cancellation. The first
	// interrupt cancels in-flight points but still prints the summary for
	// completed ones; a second interrupt aborts the process.
	tok, cancel := budget.WithCancel(nil)
	defer cancel()
	if *timeout > 0 {
		tok = budget.WithTimeout(tok, *timeout)
	}
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "pnsweep: interrupt — cancelling in-flight points (interrupt again to abort)")
		cancel()
		<-sigc
		os.Exit(130)
	}()

	cfg := &sweep.Config{
		Workers:      *workers,
		Budget:       tok,
		PointTimeout: *ptTimeout,
		Cache:        store,
	}
	var prog *progress
	if *verbose {
		cfg.OnAttempt = func(i int, name string, a sweep.Attempt) {
			status := "ok"
			if a.Err != nil {
				status = a.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%s] rung %q (%v): %s\n", name, a.RungName, a.Wall.Round(time.Millisecond), status)
		}
	} else if prog = newProgress(len(points), os.Stderr); prog != nil {
		// Live in-place progress line on a terminal; -v's per-attempt stream
		// takes precedence, and piped stderr suppresses it (newProgress
		// returns nil off-terminal).
		cfg.OnAttempt = func(i int, name string, a sweep.Attempt) { prog.attempt(a) }
		cfg.OnPoint = func(r sweep.PointResult) { prog.point(r) }
	}

	start := time.Now()
	results := sweep.Run(points, cfg)
	wall := time.Since(start)

	prog.finish() // clear the progress line before the summary table renders
	printSummary(results, param, wall, fmt.Sprintf("on %d workers", *workers))
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, results, param); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Printf("full results written to %s\n", *jsonPath)
	}
	for _, r := range results {
		if !r.OK() {
			return 1 // partial failure: table printed, exit non-zero
		}
	}
	return 0
}

// buildSpecs materialises the parameter grid for one oscillator family as
// pure data (model name + parameter map) plus the per-point parameter values.
// Local runs resolve the specs through the same serve.PointSpec path the job
// server uses, so the stamped content-addressed cache keys are identical — a
// sweep run with -cache-dir warms the cache for pnserve and pnchar runs over
// the same directory, and vice versa; remote runs (-server) submit the specs
// verbatim as the job body.
func buildSpecs(name string, pmin, pmax float64, n int) ([]serve.PointSpec, []float64, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("need at least one grid point, got %d", n)
	}
	grid := func(lo, hi float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			if n == 1 {
				out[i] = lo
				continue
			}
			out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		return out
	}
	defaults := func(lo, hi float64) (float64, float64) {
		if pmin != 0 {
			lo = pmin
		}
		if pmax != 0 {
			hi = pmax
		}
		return lo, hi
	}
	var vals []float64
	specs := make([]serve.PointSpec, 0, n)
	switch name {
	case "hopf":
		lo, hi := defaults(2, 12)
		vals = grid(lo, hi)
		for _, w := range vals {
			specs = append(specs, serve.PointSpec{
				Name:   fmt.Sprintf("hopf-omega=%.4g", w),
				Model:  "hopf",
				Params: map[string]float64{"lambda": 1, "omega": w, "sigma": 0.02},
			})
		}
	case "vanderpol":
		lo, hi := defaults(0.5, 3.5)
		vals = grid(lo, hi)
		for _, mu := range vals {
			specs = append(specs, serve.PointSpec{
				Name:   fmt.Sprintf("vdp-mu=%.4g", mu),
				Model:  "vanderpol",
				Params: map[string]float64{"mu": mu, "sigma": 0.01},
			})
		}
	case "ring":
		lo, hi := defaults(331e-6, 715e-6)
		vals = grid(lo, hi)
		for _, iee := range vals {
			specs = append(specs, serve.PointSpec{
				Name:   fmt.Sprintf("ring-iee=%.3gu", iee*1e6),
				Model:  "ring",
				Params: map[string]float64{"iee": iee},
			})
		}
	default:
		return nil, nil, fmt.Errorf("unknown oscillator %q (want hopf, vanderpol, ring)", name)
	}
	return specs, vals, nil
}

// resolveSpecs turns the pure-data specs into runnable sweep points for the
// in-process engine.
func resolveSpecs(specs []serve.PointSpec) ([]sweep.Point, error) {
	pts := make([]sweep.Point, len(specs))
	for i, sp := range specs {
		pt, err := sp.Resolve(nil)
		if err != nil {
			return nil, fmt.Errorf("point %q: %w", sp.Name, err)
		}
		pts[i] = pt
	}
	return pts, nil
}

// runRemote submits the grid as one job to a pnserve instance and follows it
// to completion: idempotent submission, a reconnecting event stream feeding
// the same progress line, cancellation over the API on SIGINT, and the
// standard summary table + -json output rendered from the job's loss-free
// results.
func runRemote(base string, specs []serve.PointSpec, param []float64, timeout time.Duration, jsonPath string, verbose bool, tenant, streamOut string) int {
	c := pnclient.New(base, nil, pnclient.Retry{})
	if tenant != "" {
		// Every request from here on identifies as this tenant; the client's
		// retry loop honours the server's Retry-After when the tenant's quota
		// answers 429, so a throttled submission waits instead of failing.
		c.SetTenant(tenant)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Mint this run's distributed trace: the client injects it as a
	// Traceparent header, the server binds the job (and, in coordinator mode,
	// every worker job) into the same trace.
	tctx := obs.SpanContext{Trace: obs.NewTraceID()}
	ctx = obs.ContextWithSpanContext(ctx, tctx)

	// A fresh random key per invocation: retries inside this run deduplicate
	// (lost 202s, server restarts), distinct runs submit distinct jobs.
	var kb [16]byte
	if _, err := rand.Read(kb[:]); err != nil {
		log.Print(err)
		return 1
	}
	idemKey := "pnsweep-" + hex.EncodeToString(kb[:])

	start := time.Now()
	st, err := c.Sweep(ctx, serve.SweepRequest{
		Points:    specs,
		TimeoutMS: int64(timeout / time.Millisecond),
	}, idemKey)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "pnsweep: job %s submitted to %s (%d points, trace %s)\n", st.ID, base, len(specs), tctx.Trace)
	fmt.Fprintf(os.Stderr, "pnsweep: timeline at %s/v1/jobs/%s/trace\n", base, st.ID)

	// First SIGINT cancels the remote job (the stream then delivers the
	// canceled terminal state and the summary still renders); a second
	// aborts the process.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintf(os.Stderr, "pnsweep: interrupt — cancelling job %s (interrupt again to abort)\n", st.ID)
		cctx, cdone := context.WithTimeout(context.Background(), 10*time.Second)
		defer cdone()
		if _, err := c.Cancel(cctx, st.ID); err != nil {
			log.Printf("cancel: %v", err)
		}
		<-sigc
		os.Exit(130)
	}()

	prog := newProgress(len(specs), os.Stderr)
	onEvent := func(ev serve.Event) {
		switch ev.Type {
		case "point":
			p := ev.Point
			if verbose {
				status := "ok"
				if !p.OK {
					status = "failed"
				} else if p.Cached {
					status = "cached"
				}
				fmt.Fprintf(os.Stderr, "[%s] %s (%.0fms)\n", p.Name, status, p.WallMS)
			}
			// Feed the progress line a synthesized result carrying just the
			// fields it reads. Recovered jobs re-report pre-crash points, so
			// clamp instead of overflowing the count.
			r := sweep.PointResult{Index: p.Index, Name: p.Name, Cached: p.Cached}
			if !p.OK {
				r.Err = errors.New("failed")
			}
			if prog != nil && prog.done < len(specs) {
				prog.point(r)
			}
		case "state":
			if verbose && ev.State != "" {
				fmt.Fprintf(os.Stderr, "job %s: %s\n", st.ID, ev.State)
			}
		}
	}

	final, err := c.Wait(ctx, st.ID, false, onEvent)
	prog.finish()
	if err != nil {
		log.Print(err)
		return 1
	}
	wall := time.Since(start)

	if streamOut != "" {
		n, err := streamResultsToFile(ctx, c, st.ID, streamOut)
		if err != nil {
			log.Printf("streaming results: %v", err)
			return 1
		}
		printRemoteSummary(final, wall)
		fmt.Printf("streamed %d loss-free results to %s\n", n, streamOut)
	} else if results := fetchResults(ctx, c, st.ID, len(specs)); results != nil {
		printSummary(results, param, wall, "— job "+final.ID+" on "+base)
		if jsonPath != "" {
			if err := writeJSON(jsonPath, results, param); err != nil {
				log.Print(err)
				return 1
			}
			fmt.Printf("full results written to %s\n", jsonPath)
		}
	} else {
		// Not every point has a loss-free result (a degraded spill, a job
		// cut short, a recovered job whose spill did not survive): render
		// the compact summaries.
		printRemoteSummary(final, wall)
	}
	if final.State != serve.StateDone || final.FailedPoints > 0 {
		if final.Error != nil {
			log.Printf("job %s %s: %s", final.ID, final.State, final.Error.Msg)
		}
		return 1
	}
	return 0
}

// download streams the terminal job's results.jsonl to fn, once per point:
// the stream is at-least-once across the client's reconnects, so lines are
// deduplicated by their index (sweep.SplitIndex, which also rejects a line
// that is not a record). It returns how many points fn took.
func download(ctx context.Context, c *pnclient.Client, id string, fn func(i int, line []byte) error) (int, error) {
	seen := map[int]bool{}
	err := c.StreamResults(ctx, id, func(line []byte) error {
		i, _, err := sweep.SplitIndex(line)
		if err == nil && !seen[i] {
			if err = fn(i, line); err == nil {
				seen[i] = true
			}
		}
		return err
	})
	return len(seen), err
}

// fetchResults decodes the terminal job's results; nil unless each of its
// n points has one.
func fetchResults(ctx context.Context, c *pnclient.Client, id string, n int) []sweep.PointResult {
	out := make([]sweep.PointResult, n)
	got, err := download(ctx, c, id, func(i int, line []byte) error {
		if i < 0 || i >= n {
			return fmt.Errorf("result for point %d of %d", i, n)
		}
		return out[i].UnmarshalJSON(line)
	})
	if err != nil {
		log.Printf("downloading results: %v", err)
	}
	if err != nil || got != n {
		return nil
	}
	return out
}

// streamResultsToFile copies the terminal job's results.jsonl into path as
// it arrives, neither decoded nor encoded; memory stays bounded by one line
// at a time, which is the reason to prefer it for large sweeps.
func streamResultsToFile(ctx context.Context, c *pnclient.Client, id, path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n, err := download(ctx, c, id, func(_ int, line []byte) error {
		if _, err := bw.Write(line); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	})
	return n, errors.Join(err, bw.Flush(), f.Close())
}

// runStatus renders a server's live fleet view from GET /v1/cluster/status:
// the coordinator's workers (probe health, quarantine, breaker phase, live
// lease counts), the in-flight leases, and the job queue.
func runStatus(base string) int {
	c := pnclient.New(base, nil, pnclient.Retry{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cs, err := c.ClusterStatus(ctx)
	if err != nil {
		log.Print(err)
		return 1
	}
	role := "single node"
	if cs.Coordinator {
		role = fmt.Sprintf("coordinator (%d workers)", len(cs.Workers))
	}
	state := "serving"
	if cs.Draining {
		state = "draining"
	}
	fmt.Printf("%s: %s, %s — %d queued, %d running\n", base, role, state, cs.QueueDepth, cs.RunningJobs)
	if len(cs.Workers) > 0 {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "worker\thealthy\tquarantined\tbreaker\tleases")
		for _, w := range cs.Workers {
			fmt.Fprintf(tw, "%s\t%v\t%v\t%s\t%d\n", w.URL, w.Healthy, w.Quarantined, w.Breaker, w.ActiveLeases)
		}
		tw.Flush()
	}
	if len(cs.Leases) > 0 {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "job\tlease\tattempt\tworker\tpoints\tage")
		for _, l := range cs.Leases {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%v\n",
				l.JobID, l.Lease, l.Attempt, l.Worker, l.Points, (time.Duration(l.AgeMS) * time.Millisecond).Round(time.Millisecond))
		}
		tw.Flush()
	} else if cs.Coordinator {
		fmt.Println("no leases in flight")
	}
	return 0
}

// printRemoteSummary renders a job's compact per-point summaries when the
// loss-free payload is unavailable.
func printRemoteSummary(st serve.JobStatus, wall time.Duration) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "point\tstatus\tf0 (Hz)\tc (s²·Hz)\twall")
	okCount, cached := 0, 0
	for _, r := range st.Results {
		status := "FAILED"
		f0s, cs := "-", "-"
		if r.OK {
			okCount++
			status = "ok"
			if r.Cached {
				cached++
				status = "cached"
			}
			f0s = fmt.Sprintf("%.6e", r.F0)
			cs = fmt.Sprintf("%.4e", r.C)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.0fms\n", r.Name, status, f0s, cs, r.WallMS)
	}
	tw.Flush()
	fmt.Printf("%d/%d points characterised (cached: %d) in %v — job %s %s\n",
		okCount, st.Points, cached, wall.Round(time.Millisecond), st.ID, st.State)
}

// printSummary renders the per-point table and a totals line ending in
// where, which says what ran the points.
func printSummary(results []sweep.PointResult, param []float64, wall time.Duration, where string) {
	okCount, partial, cached := 0, 0, 0
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "point\tparam\tstatus\tf0 (Hz)\tc (s²·Hz)\tcorner (Hz)\tattempts\twall")
	for i, r := range results {
		st := status(&r)
		f0s, cs, cor := "-", "-", "-"
		if r.Cached {
			cached++
		}
		if r.OK() {
			okCount++
			f0s = fmt.Sprintf("%.6e", r.Result.F0())
			cs = fmt.Sprintf("%.4e", r.Result.C)
			cor = fmt.Sprintf("%.3e", r.Result.CornerFreq())
			if st == "recovered" {
				st = fmt.Sprintf("recovered@%s", r.Attempts[len(r.Attempts)-1].RungName)
			}
		} else {
			switch st {
			case "timeout":
				st = "TIMEOUT"
			case "canceled":
				st = "CANCELED"
			case "panic":
				st = "PANIC"
			default:
				st = "FAILED"
			}
			if r.Degraded() {
				// Shooting converged: the PSS frequency is still known.
				st += "*"
				partial++
				f0s = fmt.Sprintf("%.6e", 1/r.PSS.T)
			}
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%s\t%d\t%v\n",
			r.Name, param[i], st, f0s, cs, cor, len(r.Attempts), r.Wall.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Printf("%d/%d points characterised (cached: %d) in %v %s\n",
		okCount, len(results), cached, wall.Round(time.Millisecond), where)
	if partial > 0 {
		fmt.Printf("* %d failed point(s) kept a converged periodic steady state (see JSON for details)\n", partial)
	}
}

func writeJSON(path string, results []sweep.PointResult, param []float64) error {
	out := make([]pointJSON, len(results))
	for i := range results {
		out[i] = pointJSON{
			Name:   results[i].Name,
			Param:  param[i],
			Status: status(&results[i]),
			Point:  &results[i],
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
