// Package cluster is the multi-node sweep fabric: a coordinator that splits
// a sweep job into point-range leases and hands them to plain pnserve worker
// nodes, surviving every way a worker can die mid-lease.
//
// The design leans on three existing mechanisms instead of inventing new
// ones:
//
//   - Exactly-once effect comes from the content-addressed result cache, not
//     from delivery guarantees. Leases are reassigned at-least-once; points a
//     dead worker already finished come back as cache hits on the shared
//     fingerprint keys, so re-execution costs a disk read, and
//     pn_core_characterisations_total counts each point once fleet-wide.
//   - Lease liveness is symmetric. The coordinator heartbeats every leased
//     worker job (POST /v1/jobs/{id}/renew); a worker whose coordinator dies
//     self-cancels the orphaned job when the TTL lapses, and a coordinator
//     whose worker dies notices the dropped event stream and reassigns.
//   - Idempotency keys make retries and coordinator restarts safe. A lease's
//     key is derived from (job ID, lease ID, attempt), all stable across
//     restarts, so a replayed coordinator re-submits into the worker's
//     journal-backed idempotency map and deduplicates onto the job it
//     already created.
//
// Routing is a consistent-hash ring over point fingerprints with rendezvous
// fallback (see Ring); per-worker circuit breakers and a flap-quarantining
// health prober keep leases away from dead or unstable workers; and when no
// worker is usable at all the coordinator degrades to running leases
// in-process through internal/sweep, so a cluster of zero healthy workers
// still answers — slowly, with a logged warning — rather than failing.
package cluster

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pnclient"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// Config configures a Coordinator.
type Config struct {
	// Workers are the worker base URLs (e.g. "http://10.0.0.7:8080"). Empty
	// means every job degrades to the in-process fallback.
	Workers []string
	// LeasePoints is the maximum points per lease (default 8). Smaller
	// leases reassign less work on worker death; larger ones amortise
	// dispatch overhead.
	LeasePoints int
	// LeaseTTL is the worker-side self-cancel window; the coordinator must
	// renew within every TTL (default 10s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the renewal period (default LeaseTTL/3).
	HeartbeatEvery time.Duration
	// MaxAttempts bounds dispatch attempts per lease before it falls back
	// to the in-process path (default 2*len(Workers)+2).
	MaxAttempts int
	// VNodes is the ring's virtual nodes per worker (default 64).
	VNodes int
	// Retry is the per-request client retry policy (zero value = pnclient
	// defaults).
	Retry pnclient.Retry
	// Breaker and Probe tune the per-worker circuit breakers and the
	// background health prober.
	Breaker BreakerConfig
	Probe   ProbeConfig
	// WALDir, when non-empty, holds per-job lease journals so a restarted
	// coordinator re-dispatches to the workers already holding its leases.
	WALDir string
	// Cache is the shared result store used by the in-process fallback
	// path (nil = no cache).
	Cache *cache.Store
	// HTTP is the client used for worker requests and probes (nil =
	// http.DefaultClient).
	HTTP *http.Client
	// Logf receives warnings (worker quarantined, degraded fallback);
	// default log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.LeasePoints <= 0 {
		c.LeasePoints = 8
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.LeaseTTL / 3
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2*len(c.Workers) + 2
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Coordinator fans a sweep job out to worker nodes as leases. It implements
// serve.SweepRunner, so a pnserve started in coordinator mode keeps its
// entire front-door lifecycle — journal, SSE progress, idempotency, budget
// — and only the execution is remote.
type Coordinator struct {
	cfg      Config
	ring     *Ring
	clients  map[string]*pnclient.Client
	breakers map[string]*Breaker
	prober   *prober
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	// fallbackMu serialises in-process fallback leases so a fully degraded
	// job runs its leases one after another instead of oversubscribing the
	// local CPU len(leases)-fold.
	fallbackMu sync.Mutex

	// leaseMu guards active, the live-lease registry backing Status.
	leaseMu sync.Mutex
	active  map[string]*activeLease
}

// activeLease is one in-flight lease as shown by the status surface.
type activeLease struct {
	jobID   string
	lease   int
	attempt int
	worker  string // a worker URL, or "local" for an in-process fallback
	points  int
	since   time.Time
}

// trackLease registers (or refreshes, on re-dispatch) a live lease.
func (c *Coordinator) trackLease(jobID string, leaseID, attempt int, worker string, points int) {
	key := fmt.Sprintf("%s|%d", jobID, leaseID)
	c.leaseMu.Lock()
	if c.active == nil {
		c.active = make(map[string]*activeLease)
	}
	if al, ok := c.active[key]; ok {
		al.attempt, al.worker = attempt, worker
	} else {
		c.active[key] = &activeLease{jobID: jobID, lease: leaseID, attempt: attempt, worker: worker, points: points, since: time.Now()}
	}
	c.leaseMu.Unlock()
}

// untrackLease drops a settled lease from the registry.
func (c *Coordinator) untrackLease(jobID string, leaseID int) {
	c.leaseMu.Lock()
	delete(c.active, fmt.Sprintf("%s|%d", jobID, leaseID))
	c.leaseMu.Unlock()
}

// Status snapshots the fleet for the live status surface: every configured
// worker's probe health, flap quarantine, breaker phase and live lease count,
// plus the in-flight leases themselves. Wire it into serve.Config.ClusterStatus
// to expose it as GET /v1/cluster/status.
func (c *Coordinator) Status() ([]serve.WorkerStatus, []serve.LeaseStatus) {
	now := time.Now()
	c.leaseMu.Lock()
	leases := make([]serve.LeaseStatus, 0, len(c.active))
	perWorker := make(map[string]int, len(c.cfg.Workers))
	for _, al := range c.active {
		perWorker[al.worker]++
		leases = append(leases, serve.LeaseStatus{
			JobID:   al.jobID,
			Lease:   al.lease,
			Attempt: al.attempt,
			Worker:  al.worker,
			Points:  al.points,
			AgeMS:   float64(now.Sub(al.since)) / 1e6,
		})
	}
	c.leaseMu.Unlock()
	sort.Slice(leases, func(i, j int) bool {
		if leases[i].JobID != leases[j].JobID {
			return leases[i].JobID < leases[j].JobID
		}
		return leases[i].Lease < leases[j].Lease
	})
	health := c.prober.status()
	workers := make([]serve.WorkerStatus, 0, len(c.cfg.Workers))
	for _, w := range c.cfg.Workers {
		ws := serve.WorkerStatus{URL: w, ActiveLeases: perWorker[w]}
		if h, ok := health[w]; ok {
			ws.Healthy = h.healthy
			ws.Quarantined = h.quarantined
		}
		if b := c.breakers[w]; b != nil {
			ws.Breaker = b.State()
		}
		workers = append(workers, ws)
	}
	return workers, leases
}

// New builds a coordinator and starts its health prober. Call Close when
// done.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		ring:     NewRing(cfg.Workers, cfg.VNodes),
		clients:  make(map[string]*pnclient.Client, len(cfg.Workers)),
		breakers: make(map[string]*Breaker, len(cfg.Workers)),
	}
	for _, w := range cfg.Workers {
		c.clients[w] = pnclient.New(w, cfg.HTTP, cfg.Retry)
		c.breakers[w] = NewBreaker(cfg.Breaker)
	}
	c.prober = newProber(cfg.Workers, cfg.Probe, cfg.HTTP, cfg.Logf)
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	if len(cfg.Workers) > 0 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.prober.run(ctx)
		}()
	}
	return c
}

// Close stops the health prober. In-flight RunSweep calls are unaffected —
// they stop through their own budget tokens.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
}

// fail records a failed worker call on its breaker.
func (c *Coordinator) fail(worker string) {
	if b := c.breakers[worker]; b != nil && b.Fail() {
		clusterMetrics.Get().breakerTrips.Inc()
		c.cfg.Logf("cluster: circuit breaker tripped for worker %s", worker)
	}
}

// ok records a successful worker call on its breaker.
func (c *Coordinator) ok(worker string) {
	if b := c.breakers[worker]; b != nil {
		b.Success()
	}
}

// pickWorker chooses a worker for the lease: its journalled previous holder
// first, then the ring preference order, skipping unhealthy (prober) and
// tripped (breaker) workers. The chosen breaker slot is claimed via Allow.
func (c *Coordinator) pickWorker(l *lease) (string, bool) {
	prefs := c.ring.Preference(l.key)
	if l.worker != "" {
		ordered := make([]string, 0, len(prefs)+1)
		ordered = append(ordered, l.worker)
		for _, w := range prefs {
			if w != l.worker {
				ordered = append(ordered, w)
			}
		}
		prefs = ordered
	}
	for _, w := range prefs {
		if !c.prober.Healthy(w) {
			continue
		}
		if b := c.breakers[w]; b != nil && b.Allow() {
			return w, true
		}
	}
	return "", false
}

// jobRun is the per-job state of one RunSweep call.
type jobRun struct {
	coord *Coordinator
	req   serve.RunnerRequest
	wal   *leaseWAL

	mu       sync.Mutex
	stored   []bool // final record delivered to OnResult for this global index
	reported []bool // summary forwarded to OnSummary for this global index
}

// RunSweep implements serve.SweepRunner: lease out the points, supervise the
// leases, merge the worker streams, and stream each point's final record
// through req.OnResult/OnSummary as its lease settles. The coordinator holds
// per-point booleans, never the records — the serving layer spills them.
func (c *Coordinator) RunSweep(req serve.RunnerRequest) error {
	n := len(req.Specs)
	run := &jobRun{
		coord:    c,
		req:      req,
		stored:   make([]bool, n),
		reported: make([]bool, n),
	}
	if n == 0 {
		return nil
	}

	// The lease machinery runs on a context that trips with the job's
	// budget token, so cancellation/timeout propagates into every worker
	// call and event stream.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-req.Tok.Done():
			cancel()
		case <-ctx.Done():
		}
	}()

	leases := run.buildLeases()

	wal, recs, err := openLeaseWAL(c.cfg.WALDir, req.JobID)
	if err != nil {
		c.cfg.Logf("cluster: lease journal unavailable for job %s (%v); running without resume state", req.JobID, err)
	}
	run.wal = wal
	// Resume: the latest dispatch record per lease pins the attempt counter
	// (so the idempotency key matches the worker job already created) and
	// the preferred worker. Leases that were dispatched but never settled
	// before the crash get a "flight" marker in the job's timeline — the
	// trace's record of why the lease restarts mid-attempt.
	inflight := make(map[int]walRecord)
	for _, r := range recs {
		if r.Lease < 0 || r.Lease >= len(leases) {
			continue
		}
		switch r.Type {
		case walDispatch:
			leases[r.Lease].attempt = r.Attempt
			leases[r.Lease].worker = r.Worker
			inflight[r.Lease] = r
		case walComplete, walFallback:
			delete(inflight, r.Lease)
		}
	}
	if req.IngestTrace != nil && len(inflight) > 0 {
		evs := make([]obs.Event, 0, len(inflight))
		for _, rec := range inflight {
			evs = append(evs, obs.Event{
				Type:    "flight",
				Name:    "cluster.lease.resumed",
				StartNS: time.Now().UnixNano(),
				Attrs: map[string]any{
					"lease":      rec.Lease,
					"attempt":    rec.Attempt,
					"worker":     rec.Worker,
					"worker_job": rec.WorkerJob,
				},
			})
		}
		req.IngestTrace(evs)
	}

	var wg sync.WaitGroup
	for _, l := range leases {
		wg.Add(1)
		go func(l *lease) {
			defer wg.Done()
			run.runLease(ctx, l)
		}(l)
	}
	wg.Wait()

	if err := req.Tok.Err(); err != nil {
		wal.Close()
		return err
	}
	wal.remove() // terminal: the leases can never be resumed again
	return nil
}

// buildLeases groups the job's points by ring primary and chunks each group
// into LeasePoints-sized leases. The construction is deterministic in the
// job's specs and the worker list, so a restarted coordinator derives the
// identical lease IDs — which the idempotency keys depend on. With no
// workers, everything lands in one fallback lease.
func (r *jobRun) buildLeases() []*lease {
	c := r.coord
	type group struct {
		indices []int
		keys    []string
	}
	order := append([]string(nil), c.ring.Workers()...)
	groups := make(map[string]*group, len(order)+1)
	for i, sp := range r.req.Specs {
		key := sp.RoutingKey()
		home := c.ring.Primary(key)
		g := groups[home]
		if g == nil {
			g = &group{}
			groups[home] = g
			if home == "" {
				order = append(order, "")
			}
		}
		g.indices = append(g.indices, i)
		g.keys = append(g.keys, key)
	}
	var leases []*lease
	for _, w := range order {
		g := groups[w]
		if g == nil {
			continue
		}
		for start := 0; start < len(g.indices); start += c.cfg.LeasePoints {
			end := min(start+c.cfg.LeasePoints, len(g.indices))
			l := &lease{id: len(leases), key: g.keys[start]}
			for _, gi := range g.indices[start:end] {
				l.indices = append(l.indices, gi)
				l.specs = append(l.specs, r.req.Specs[gi])
			}
			leases = append(leases, l)
		}
	}
	return leases
}

// clusterFlightCap bounds the per-attempt flight-recorder ring on the
// coordinator side.
const clusterFlightCap = 64

// runLease drives one lease to completion: dispatch to a worker, supervise
// it, and on any failure requeue with the next attempt's idempotency key —
// falling back to the in-process path when no worker will take it.
//
// Each dispatch attempt runs under its own span whose context rides the
// Traceparent header into the worker submission, so the worker job's spans
// join the coordinator job's trace with the attempt span as remote parent. A
// per-attempt flight-recorder ring captures the attempt's local subtree;
// when the attempt is requeued or abandoned, the ring plus a "flight" marker
// is folded into the job's timeline — the post-mortem of the crashed attempt.
func (r *jobRun) runLease(ctx context.Context, l *lease) {
	c := r.coord
	m := clusterMetrics.Get()
	lsp := obs.StartSpan(r.req.Span, "cluster.lease")
	lsp.SetAttr("lease", l.id)
	lsp.SetAttr("points", len(l.indices))
	defer lsp.End()
	defer c.untrackLease(r.req.JobID, l.id)
	for ; ; l.attempt++ {
		if ctx.Err() != nil {
			r.abandonLease(l)
			return
		}
		if l.attempt >= c.cfg.MaxAttempts {
			c.cfg.Logf("cluster: lease %d of job %s exhausted %d dispatch attempts", l.id, r.req.JobID, l.attempt)
			r.fallbackLease(l, lsp)
			return
		}
		w, ok := c.pickWorker(l)
		if !ok {
			r.fallbackLease(l, lsp)
			return
		}
		l.worker = w
		var ring *obs.RingEmitter
		var asp *obs.Span
		if r.req.IngestTrace != nil {
			ring = obs.NewRingEmitter(clusterFlightCap)
			asp = obs.StartSpanOn(obs.Tee(lsp.Emitter(), ring), lsp, "cluster.attempt")
		} else {
			asp = obs.StartSpan(lsp, "cluster.attempt")
		}
		asp.SetAttr("attempt", l.attempt)
		asp.SetAttr("worker", w)
		if err := faultinject.Fire(faultinject.ClusterLeaseDispatch); err != nil {
			c.fail(w)
			m.leases.With("requeued").Inc()
			asp.EndErr(err)
			r.dumpFlight(ring, l, w, "", "dispatch failed")
			continue
		}
		// The attempt span's context rides the submission so the worker job
		// joins this trace (nil span / tracing off: ctx passes unchanged).
		cctx := ctx
		if sc := asp.Context(); sc.Trace != "" {
			cctx = obs.ContextWithSpanContext(ctx, sc)
		}
		st, err := c.clients[w].Sweep(cctx, serve.SweepRequest{
			Points:     l.specs,
			NoCache:    r.req.NoCache,
			LeaseTTLMS: int64(c.cfg.LeaseTTL / time.Millisecond),
		}, l.idemKey(r.req.JobID))
		if err != nil {
			c.fail(w)
			m.leases.With("requeued").Inc()
			asp.EndErr(err)
			r.dumpFlight(ring, l, w, "", "submit failed")
			continue
		}
		c.ok(w)
		c.trackLease(r.req.JobID, l.id, l.attempt, w, len(l.indices))
		r.wal.append(walRecord{Type: walDispatch, Lease: l.id, Attempt: l.attempt, Worker: w, WorkerJob: st.ID})
		m.leases.With("dispatched").Inc()

		if r.superviseLease(ctx, l, w, st.ID) {
			m.leases.With("completed").Inc()
			r.wal.append(walRecord{Type: walComplete, Lease: l.id, Attempt: l.attempt, Worker: w, WorkerJob: st.ID})
			asp.End()
			r.pullWorkerTrace(ctx, w, st.ID)
			return
		}
		if ctx.Err() != nil {
			asp.EndErr(ctx.Err())
			r.dumpFlight(ring, l, w, st.ID, "abandoned")
			r.abandonLease(l)
			return
		}
		// Requeue. Drain the old attempt first — cancel it and wait (bounded)
		// for it to settle — so the replacement never runs the same point
		// concurrently with a dying job: concurrent identical points on one
		// worker would join the dying job's in-flight computations and
		// inherit their budget errors. If the worker is unreachable the
		// lease TTL performs the same cleanup on its own clock.
		m.leases.With("requeued").Inc()
		asp.EndErr(fmt.Errorf("attempt %d on %s requeued", l.attempt, w))
		r.dumpFlight(ring, l, w, st.ID, "requeued")
		c.drainAttempt(ctx, w, st.ID)
		// Best-effort: whatever spans the dying worker job managed to record
		// are still worth having in the timeline.
		r.pullWorkerTrace(ctx, w, st.ID)
	}
}

// dumpFlight folds a crashed attempt's flight-recorder ring into the job's
// timeline, capped with a "flight" marker naming the lease, attempt, worker
// and cause. Live-emitted spans in the ring dedup away on ingest; the marker
// (and anything the timeline had dropped) survives as the crash record.
func (r *jobRun) dumpFlight(ring *obs.RingEmitter, l *lease, worker, workerJob, cause string) {
	if ring == nil || r.req.IngestTrace == nil {
		return
	}
	evs := append(ring.Events(), obs.Event{
		Type:    "flight",
		Name:    "cluster.lease.flight",
		StartNS: time.Now().UnixNano(),
		Attrs: map[string]any{
			"lease":      l.id,
			"attempt":    l.attempt,
			"worker":     worker,
			"worker_job": workerJob,
			"cause":      cause,
		},
	})
	r.req.IngestTrace(evs)
	clusterMetrics.Get().flightDumps.Inc()
}

// pullWorkerTrace ships a worker job's recorded spans into the coordinator
// job's merged timeline. Strictly best-effort observability: the
// cluster.trace.ingest fault point and any transport failure lose the batch
// (counted), never the lease.
func (r *jobRun) pullWorkerTrace(ctx context.Context, w, workerJob string) {
	if r.req.IngestTrace == nil || workerJob == "" {
		return
	}
	c := r.coord
	m := clusterMetrics.Get()
	if err := faultinject.Fire(faultinject.ClusterTraceIngest); err != nil {
		m.tracePulls.With("failed").Inc()
		return
	}
	pctx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTTL)
	jt, err := c.clients[w].Trace(pctx, workerJob)
	cancel()
	if err != nil {
		m.tracePulls.With("failed").Inc()
		return
	}
	r.req.IngestTrace(jt.Spans)
	m.tracePulls.With("ok").Inc()
}

// drainAttempt best-effort cancels a worker job being abandoned by a requeue
// and waits, bounded by the lease TTL, until it is terminal. Every exit path
// is safe — an unreachable worker just costs the bound — but a reachable one
// hands back a worker with no in-flight flights for the lease's points, so
// the re-dispatch starts from clean cache state.
func (c *Coordinator) drainAttempt(ctx context.Context, w, workerJob string) {
	dctx, cancel := context.WithTimeout(context.Background(), c.cfg.LeaseTTL+c.cfg.HeartbeatEvery)
	defer cancel()
	go func() { // release the bound early if the whole job is being torn down
		select {
		case <-ctx.Done():
			cancel()
		case <-dctx.Done():
		}
	}()
	if st, err := c.clients[w].Cancel(dctx, workerJob); err != nil || terminalState(st.State) {
		return
	}
	for dctx.Err() == nil {
		if st, err := c.clients[w].Job(dctx, workerJob, false); err != nil || terminalState(st.State) {
			return
		}
		select {
		case <-dctx.Done():
		case <-time.After(c.cfg.HeartbeatEvery / 4):
		}
	}
}

func terminalState(s string) bool {
	return s == serve.StateDone || s == serve.StateFailed || s == serve.StateCanceled
}

// superviseLease heartbeats the worker job and merges its event stream,
// returning true when the lease finished (results folded in) and false when
// it must be requeued.
func (r *jobRun) superviseLease(ctx context.Context, l *lease, w, workerJob string) bool {
	c := r.coord

	hbCtx, hbCancel := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		c.heartbeat(hbCtx, w, workerJob)
	}()
	defer func() {
		hbCancel()
		hbWG.Wait()
	}()

	// Stream the worker's SSE progress into the coordinator job's own
	// stream. Watch dedups by sequence number within the connection; the
	// reported[] set dedups across reconnects and reassignments, so the
	// merged stream delivers each point at most once.
	watchCtx, watchCancel := context.WithCancel(ctx)
	defer watchCancel()
	var killed atomic.Bool
	werr := c.clients[w].Watch(watchCtx, workerJob, 0, func(ev serve.Event) {
		if err := faultinject.Fire(faultinject.ClusterWorkerKill); err != nil {
			killed.Store(true)
			watchCancel()
			return
		}
		if ev.Type == "point" && ev.Point != nil {
			// Only successful completions are forwarded live. A failure in
			// the stream is provisional — a lease dying of TTL expiry
			// reports its unstarted points as canceled, and those will be
			// re-run by the reassigned lease. Genuine failures surface when
			// the lease settles done: their summaries come from the worker's
			// final status as their records are stored.
			if !ev.Point.OK {
				return
			}
			li := ev.Point.Index
			if li < 0 || li >= len(l.indices) {
				return
			}
			r.forwardSummary(l.indices[li], *ev.Point)
		}
	})
	if killed.Load() {
		c.fail(w)
		return false
	}
	if werr != nil && ctx.Err() == nil {
		c.fail(w)
		return false
	}

	st, err := c.clients[w].Job(ctx, workerJob, false)
	if err != nil {
		if ctx.Err() == nil {
			c.fail(w)
		}
		return false
	}
	switch st.State {
	case serve.StateDone:
		// Stream the worker's records (results.jsonl) into the spill, each
		// line re-indexed but never decoded or encoded, with summaries from
		// the final status, which has the failures the event stream skips.
		// A line that is not a record fails the stream: the lease requeues.
		sums := make(map[int]serve.PointSummary, len(st.Results))
		for _, s := range st.Results {
			sums[s.Index] = s
		}
		serr := c.clients[w].StreamResults(ctx, workerJob, func(line []byte) error {
			li, rest, err := sweep.SplitIndex(line)
			sum, ok := sums[li]
			if err == nil && ok && li >= 0 && li < len(l.indices) {
				r.store(l.indices[li], sum, sweep.AppendIndex(nil, l.indices[li]), rest)
			} else if err == nil {
				err = fmt.Errorf("cluster: worker %s job %s has no point %d", w, workerJob, li)
			}
			return err
		})
		if serr != nil {
			if ctx.Err() == nil {
				c.fail(w)
			}
			return false
		}
		// A done worker whose spill degraded (disk full) can stream fewer
		// points than the lease holds; account for the gaps rather than
		// re-running a job the worker considers finished.
		for li, g := range l.indices {
			r.mu.Lock()
			done := g >= 0 && g < len(r.stored) && r.stored[g]
			r.mu.Unlock()
			if done {
				continue
			}
			r.completePoint(g, sweep.PointResult{
				Name: specName(l.specs[li]),
				Err:  fmt.Errorf("cluster: lease %d: worker %s finished but its result for this point was unavailable", l.id, w),
			})
		}
		return true
	default:
		// Still running (stream trouble), canceled (the worker's lease TTL
		// expired — our heartbeats were not landing) or failed: requeue.
		return false
	}
}

// heartbeat renews the leased worker job every HeartbeatEvery until ctx
// ends. The cluster.heartbeat.drop fault point models a coordinator that
// stays alive but whose renewals stop landing — the worker must then
// self-cancel the lease.
func (c *Coordinator) heartbeat(ctx context.Context, w, workerJob string) {
	m := clusterMetrics.Get()
	t := time.NewTicker(c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if err := faultinject.Fire(faultinject.ClusterHeartbeatDrop); err != nil {
			m.heartbeats.With("dropped").Inc()
			continue
		}
		hctx, cancel := context.WithTimeout(ctx, c.cfg.HeartbeatEvery)
		_, err := c.clients[w].Renew(hctx, workerJob)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			m.heartbeats.With("failed").Inc()
			continue
		}
		m.heartbeats.With("sent").Inc()
	}
}

// fallbackLease runs the lease's points in-process through internal/sweep's
// own worker pool — the degraded mode when no worker is usable. Fallback
// leases serialise on the coordinator so a dead cluster behaves like one
// local sweep, not len(leases) competing ones.
func (r *jobRun) fallbackLease(l *lease, lsp *obs.Span) {
	c := r.coord
	c.cfg.Logf("cluster: WARNING: no usable worker for lease %d of job %s; running %d points in-process", l.id, r.req.JobID, len(l.specs))
	clusterMetrics.Get().fallbackRuns.Inc()
	clusterMetrics.Get().leases.With("fallback").Inc()
	c.trackLease(r.req.JobID, l.id, l.attempt, "local", len(l.indices))
	r.wal.append(walRecord{Type: walFallback, Lease: l.id, Attempt: l.attempt})
	fsp := obs.StartSpan(lsp, "cluster.fallback")
	defer fsp.End()

	c.fallbackMu.Lock()
	defer c.fallbackMu.Unlock()
	if r.req.Tok.Err() != nil {
		r.abandonLease(l)
		return
	}
	pts := make([]sweep.Point, 0, len(l.specs))
	local := make([]int, 0, len(l.specs)) // pts index -> lease-local index
	for li, sp := range l.specs {
		p, err := sp.Resolve(nil)
		if err != nil {
			r.completePoint(l.indices[li], sweep.PointResult{Name: specName(sp), Err: err})
			continue
		}
		pts = append(pts, p)
		local = append(local, li)
	}
	if len(pts) == 0 {
		return
	}
	store := c.cfg.Cache
	if r.req.NoCache {
		store = nil
	}
	sweep.Run(pts, &sweep.Config{
		Budget:         r.req.Tok,
		Cache:          store,
		Span:           fsp,
		DiscardResults: true, // completePoint streams each result out; nobody reads the slice
		OnPoint: func(res sweep.PointResult) {
			if res.Index < 0 || res.Index >= len(local) {
				return
			}
			r.completePoint(l.indices[local[res.Index]], res)
		},
	})
}

// abandonLease marks the lease's unfinished points with the job's budget
// error: the job is over, nothing will run them.
func (r *jobRun) abandonLease(l *lease) {
	cause := r.req.Tok.Err()
	if cause == nil {
		cause = context.Canceled
	}
	for li, g := range l.indices {
		r.completePoint(g, sweep.PointResult{
			Name: specName(l.specs[li]),
			Err:  fmt.Errorf("cluster: lease %d abandoned: %w", l.id, cause),
		})
	}
}

// store streams the final record for a global point index through OnResult
// (first writer wins — a reassigned lease's duplicate completions are
// discarded) and forwards its summary if the event stream did not already.
// The coordinator keeps only the stored[] boolean. A nil head (parts[0])
// sends the summary without a record.
func (r *jobRun) store(global int, sum serve.PointSummary, parts ...[]byte) {
	if global < 0 || global >= len(r.stored) {
		return
	}
	r.mu.Lock()
	dup := r.stored[global]
	r.stored[global] = true
	r.mu.Unlock()
	if dup {
		clusterMetrics.Get().dupPoints.Inc()
		return
	}
	if r.req.OnResult != nil && parts[0] != nil {
		r.req.OnResult(global, parts...)
	}
	r.forwardSummary(global, sum)
}

// completePoint stores a result the coordinator made itself (fallback,
// abandoned or gap-filled): the only records it encodes. One that fails to
// encode is lost, as a failed spill append loses it; its summary still goes.
func (r *jobRun) completePoint(global int, res sweep.PointResult) {
	res.Index = global
	head, result, tail, err := res.MarshalParts() // head is nil on error
	if err != nil {
		r.coord.cfg.Logf("cluster: encoding point %d of job %s: %v", global, r.req.JobID, err)
	}
	r.store(global, serve.Summarize(&res), head, result, tail)
}

// forwardSummary delivers one per-point summary to the job's OnSummary hook
// at most once, re-indexed to the global point index.
func (r *jobRun) forwardSummary(global int, s serve.PointSummary) {
	if global < 0 || global >= len(r.reported) {
		return
	}
	r.mu.Lock()
	dup := r.reported[global]
	r.reported[global] = true
	r.mu.Unlock()
	if dup {
		clusterMetrics.Get().dupPoints.Inc()
		return
	}
	s.Index = global
	if r.req.OnSummary != nil {
		r.req.OnSummary(s)
	}
}

func specName(sp serve.PointSpec) string {
	if sp.Name != "" {
		return sp.Name
	}
	return sp.Model
}
