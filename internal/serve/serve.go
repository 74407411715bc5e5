// Package serve is the characterisation-as-a-service layer: an HTTP JSON API
// that runs phase-noise characterisation jobs — single points or whole
// parameter sweeps — on a bounded worker pool, in front of the
// content-addressed result cache (internal/cache) and the batch engine
// (internal/sweep).
//
// Jobs are pure data: a registered model name plus a parameter map (see
// internal/osc's registry), so requests are reproducible, cacheable by
// content, and never execute caller code. The API:
//
//	POST /v1/characterise   — submit a one-point job        → JobStatus (202)
//	POST /v1/sweep          — submit a multi-point job      → JobStatus (202)
//	GET  /v1/jobs/{id}      — job status (+?full=1 payload) → JobStatus
//	GET  /v1/jobs/{id}/events — progress stream (SSE, replayable by Last-Event-ID)
//	GET  /v1/jobs/{id}/trace  — merged distributed timeline (+ ?format=jsonl raw)
//	POST /v1/jobs/{id}/cancel — trip the job's budget token → JobStatus
//	GET  /v1/cluster/status — live fleet view (workers/leases on a coordinator)
//	GET  /v1/models         — registered models + defaults
//	GET  /healthz           — liveness (always 200 while the process serves)
//	GET  /readyz            — readiness (503 while draining or during journal replay)
//
// Back-pressure is explicit: a bounded queue (429 + Retry-After when full), a
// request-size limit (413), and a draining state (503) entered by Shutdown,
// which stops intake, drains the queue, and — if the grace context expires —
// cancels in-flight jobs through their budget tokens.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/osc"
	"repro/internal/pll"
	"repro/internal/sweep"
)

// Config tunes a Server. The zero value is usable: 2 workers, a queue of 16,
// no cache, a 1 MiB body limit.
type Config struct {
	// Workers is the job worker pool size (default 2). Each worker runs one
	// job at a time; a sweep job parallelises internally up to MaxSweepWorkers.
	Workers int
	// Queue bounds accepted-but-not-started jobs (default 16); submissions
	// beyond it are rejected with 429.
	Queue int
	// Cache, when non-nil, is the content-addressed result store consulted
	// for every point (shared with CLI runs pointed at the same directory).
	Cache *cache.Store
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxPoints caps the points of one sweep request (default 4096).
	MaxPoints int
	// MaxSweepWorkers caps a job's internal sweep parallelism (default
	// GOMAXPROCS).
	MaxSweepWorkers int
	// Retain bounds how many terminal jobs stay queryable (default 256);
	// beyond it the oldest terminal jobs are evicted.
	Retain int
	// MaxJobWall, when > 0, is a server-side ceiling on any job's wall clock
	// from worker pickup, applied on top of the request's own timeout_ms.
	MaxJobWall time.Duration
	// JournalDir, when non-empty, makes jobs durable: every accepted job gets
	// an append-only journal under this directory (header synced before the
	// 202 goes out, terminal event synced), and on restart the server
	// replays the directory — terminal jobs come back queryable,
	// non-terminal jobs are re-enqueued and resumed through the result
	// cache, so already-computed points are cache hits. Empty: jobs live
	// only in process memory.
	JournalDir string
	// Runner, when non-nil, executes jobs instead of the in-process sweep
	// engine — the hook a cluster coordinator uses to lease points out to
	// worker nodes. Everything around execution (queueing, journalling,
	// SSE, cancellation, idempotency) is unchanged. See SweepRunner.
	Runner SweepRunner
	// FlightRecorder is the per-attempt flight-recorder ring capacity passed
	// to the sweep engine: a crashing attempt (panic, timeout, abandonment)
	// dumps its last spans into the journalled failure. Default 64; negative
	// disables.
	FlightRecorder int
	// ClusterStatus, when non-nil, supplies the coordinator's live fleet view
	// (workers, breaker states, in-flight leases) for GET /v1/cluster/status.
	// Nil on plain nodes: the endpoint then reports only this node's numbers.
	ClusterStatus func() ([]WorkerStatus, []LeaseStatus)
	// TenantDefaults is the admission policy applied to every tenant without
	// an explicit entry in Tenants — including DefaultTenant. The zero value
	// means no quotas and weight 1. See TenantConfig.
	TenantDefaults TenantConfig
	// Tenants overrides the admission policy per tenant name.
	Tenants map[string]TenantConfig
	// LaneGrant is how many points of a local batch sweep one scheduler
	// grant executes before the job yields its worker back to the fair
	// queue (default 32). Larger grants amortise scheduling overhead;
	// smaller ones tighten the bound on how long a queued interactive job
	// waits behind a batch sweep.
	LaneGrant int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 4096
	}
	if c.MaxSweepWorkers <= 0 {
		c.MaxSweepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Retain <= 0 {
		c.Retain = 256
	}
	if c.FlightRecorder == 0 {
		c.FlightRecorder = 64
	} else if c.FlightRecorder < 0 {
		c.FlightRecorder = 0
	}
	if c.LaneGrant <= 0 {
		c.LaneGrant = 32
	}
	return c
}

// job is one queued/running/terminal characterisation job.
type job struct {
	id           string
	kind         string // "characterise", "sweep" or "compose"
	tenant       string // admission identity (DefaultTenant when none was sent)
	specs        []PointSpec
	compose      *ComposeRequest // non-nil for compose jobs: the composition to run over the legs
	jobTimeout   time.Duration
	sweepWorkers int
	noCache      bool
	leaseTTL     time.Duration // > 0: job self-cancels unless renewed within each TTL window

	tok      *budget.Token // child of the server root; tripped by cancel/shutdown
	cancel   func()
	events   *eventLog
	jl       *jobJournal     // nil when journalling is off
	rf       *resultFile     // spill file for loss-free results (nil = summary-only)
	idem     string          // Idempotency-Key this job was submitted under ("" = none)
	trace    *jobTrace       // distributed timeline (always non-nil for runnable jobs)
	traceCtx obs.SpanContext // trace ID + remote parent from the submit's traceparent

	granted bool     // owned by sched.mu: the job has had its first worker grant
	exec    *jobExec // owned by the granted worker: cross-chunk execution state

	leaseMu sync.Mutex
	leaseT  *time.Timer // armed while the lease is live; Reset on renew

	mu                      sync.Mutex
	state                   string
	legs                    []sweep.PointResult // compose jobs only: leg results for the composition step
	summaries               []PointSummary      // completed points so far, input order (sparse until terminal)
	composite               *pll.Result         // compose jobs, terminal only (dies with the process; the summary survives)
	composeSum              *ComposeSummary     // compose jobs: journaled headline numbers
	doneN, cachedN, failedN int
	err                     error
	wall                    time.Duration
}

// jobExec is the execution state a job carries between scheduler grants: a
// chunked batch sweep runs several grants, everything else exactly one. It
// is created on the first grant and only ever touched by the worker holding
// the job, so it needs no locking of its own.
type jobExec struct {
	start  time.Time
	span   *obs.Span
	jtok   *budget.Token
	points []sweep.Point // resolved specs (local execution only)
	store  *cache.Store
	next   int // first point index the next chunk runs
	onPt   func(res sweep.PointResult)
	state  string // terminal state once decided ("" = still running)
	err    error
}

// emit appends ev to the job's event stream and journals exactly what was
// stored (same sequence number). terminal events reach stable storage before
// emit returns.
func (j *job) emit(ev Event, terminal bool) {
	stamped, ok := j.events.append(ev)
	if ok {
		j.jl.event(stamped, terminal)
	}
}

// armLease starts (or, on renewal, rewinds) the job's lease timer. On expiry
// the job cancels itself through its budget token — a leased job whose
// coordinator died or partitioned away stops consuming the worker; its
// finished points are already in the shared result cache for whoever picks
// the lease up next. No-op for jobs submitted without a lease TTL.
func (j *job) armLease() {
	if j.leaseTTL <= 0 {
		return
	}
	j.leaseMu.Lock()
	defer j.leaseMu.Unlock()
	if j.leaseT == nil {
		j.leaseT = time.AfterFunc(j.leaseTTL, func() {
			serveMetrics.Get().leaseExpired.Inc()
			j.cancel()
		})
		return
	}
	j.leaseT.Reset(j.leaseTTL)
}

// stopLease disarms the lease timer once the job is terminal (a late expiry
// against a finished job would be harmless but noisy).
func (j *job) stopLease() {
	j.leaseMu.Lock()
	if j.leaseT != nil {
		j.leaseT.Stop()
	}
	j.leaseMu.Unlock()
}

// setState transitions the job and emits a state event.
func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
	j.emit(Event{Type: "state", State: state}, false)
}

// status snapshots the job for the API. The ?full=1 payload decodes off the
// spill file — the server no longer retains a per-job result slice — so it
// is present whenever the job is terminal and every point was spilled,
// including after a journal recovery.
func (j *job) status(full bool) JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:           j.id,
		Kind:         j.kind,
		State:        j.state,
		Points:       len(j.specs),
		DonePoints:   j.doneN,
		CachedPoints: j.cachedN,
		FailedPoints: j.failedN,
		Error:        sweep.EncodeError(j.err),
		WallMS:       float64(j.wall) / float64(time.Millisecond),
	}
	for _, s := range j.summaries {
		if s.Name != "" || s.OK { // skip never-filled slots of a cut-short job
			st.Results = append(st.Results, s)
		}
	}
	st.Compose = j.composeSum
	if full {
		st.ComposeResult = j.composite
	}
	terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
	j.mu.Unlock()
	if full && terminal {
		if res := j.rf.decodeAll(); res != nil {
			serveMetrics.Get().resultReads.With("full").Inc()
			st.Full = res
		}
	}
	return st
}

// idemEntry maps one Idempotency-Key to the job it created, plus the
// fingerprint of the request body it arrived with (reuse with a different
// body is a client error, not a replay).
type idemEntry struct {
	id string
	fp string
}

// Server is the job server. It implements http.Handler; mount it directly or
// behind a mux. Create with New, stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	root    *budget.Token
	stop    func()
	sched   *sched
	tenants *tenants
	results *resultStore // nil: spill unavailable, jobs serve summaries only
	wg      sync.WaitGroup
	journal *journal      // nil when journalling is off
	drainCh chan struct{} // closed when draining starts; stops the replayer
	closeQ  sync.Once
	replay  sync.WaitGroup // tracks the startup replay goroutine

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // insertion order, for terminal-job eviction
	idem     map[string]idemEntry
	seq      int64
	draining bool
	ready    bool // journal replay finished (immediately true without a journal)
}

// New builds a Server and starts its worker pool. With Config.JournalDir set
// it also begins journal replay: the job-ID space is restored synchronously
// (so new submissions never collide with recovered jobs), then recovery runs
// in the background while the server already accepts traffic — /readyz
// reports 503 until every journaled job is restored and re-enqueued.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	root, stop := budget.WithCancel(nil)
	s := &Server{
		cfg:     cfg,
		root:    root,
		stop:    stop,
		sched:   newSched(cfg.Queue),
		tenants: newTenants(cfg.TenantDefaults, cfg.Tenants),
		results: newResultStore(cfg.JournalDir),
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*job),
		idem:    make(map[string]idemEntry),
	}
	if cfg.JournalDir != "" {
		jl, maxSeq, err := openJournal(cfg.JournalDir)
		if err == nil {
			s.journal = jl
			s.seq = maxSeq
		} else {
			// An unusable journal dir degrades durability, not service.
			serveMetrics.Get().journalErrors.Inc()
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/characterise", s.handleCharacterise)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/compose", s.handleCompose)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/results.jsonl", s.handleResultsJSONL)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/jobs/{id}/renew", s.handleRenew)
	mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux = mux
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.journal != nil {
		s.replay.Add(1)
		go s.recoverJobs()
	} else {
		s.ready = true
	}
	return s
}

// ServeHTTP implements http.Handler. The handler-latency fault point sits in
// front of every route: ModeDelay simulates a slow server, ModeError answers
// 500 before any work happens.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Fire(faultinject.ServeHandlerLatency); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// BeginDrain flips the server to draining without stopping job execution:
// /readyz answers 503 (load balancers and cluster routers stop sending work
// here) and new submissions are rejected, while queued and running jobs keep
// making progress and status/SSE reads still work. Call it before tearing
// down the HTTP listener so the fleet routes around this node during the
// drain window instead of discovering it by connection refusal. Idempotent;
// Shutdown calls it implicitly.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
}

// Shutdown drains the server: it stops accepting submissions (503), lets
// queued and running jobs finish, and — if ctx expires first — trips every
// job's budget token so in-flight work is cut off cooperatively, then waits
// for the workers to exit. Safe to call once.
//
// A shutdown during journal replay stops the replayer: recovered jobs not yet
// enqueued keep their journals and resume on the next start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	// The replayer must stop before the scheduler closes (a resumed job must
	// not land on a closed queue); drainCh has already told it to bail.
	s.replay.Wait()
	s.closeQ.Do(func() { s.sched.close() })

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.stop() // cancel root token: every job token trips
		<-done
		err = ctx.Err()
	}
	// A journal-less store lives in a temp dir; release it with the workers
	// gone (terminal jobs lose their ?full payloads, as they always did
	// without a journal — the process is exiting anyway).
	s.results.close()
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before touching the ResponseWriter: an encode failure after
	// WriteHeader would truncate the body mid-response and surface at the
	// client as an inexplicable EOF, with the status already committed as a
	// success. Pre-marshaling turns it into an honest 500.
	data, err := json.Marshal(v)
	if err != nil {
		body, _ := json.Marshal(errorBody{Error: fmt.Sprintf("encoding response: %v", err)})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write(append(body, '\n'))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes the size-limited JSON request body, classifying the
// failure for the rejection metric.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			serveMetrics.Get().rejected.With("too_large").Inc()
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		} else {
			serveMetrics.Get().rejected.With("bad_request").Inc()
			writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return false
	}
	return true
}

func (s *Server) handleCharacterise(w http.ResponseWriter, r *http.Request) {
	var req CharacteriseRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.submit(w, r, "characterise", []PointSpec{req.PointSpec}, req.TimeoutMS, 1, req.NoCache, 0, nil)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		serveMetrics.Get().rejected.With("bad_request").Inc()
		writeErr(w, http.StatusBadRequest, "sweep needs at least one point")
		return
	}
	if len(req.Points) > s.cfg.MaxPoints {
		serveMetrics.Get().rejected.With("bad_request").Inc()
		writeErr(w, http.StatusBadRequest, "sweep of %d points exceeds the limit of %d", len(req.Points), s.cfg.MaxPoints)
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.MaxSweepWorkers {
		workers = s.cfg.MaxSweepWorkers
	}
	s.submit(w, r, "sweep", req.Points, req.TimeoutMS, workers, req.NoCache, req.LeaseTTLMS, nil)
}

// idemFingerprint condenses a submission's identity — kind, every point spec,
// and the job-wide knobs — to a content address, so an Idempotency-Key reused
// with a different body is detectable as a client error rather than silently
// replaying the wrong job.
func idemFingerprint(kind string, specs []PointSpec, timeoutMS int64, workers int, noCache bool, leaseTTLMS int64, compose *ComposeRequest) string {
	f := cache.NewFingerprint()
	f.Set("kind", kind)
	if compose != nil {
		f.Set("compose", compose.fingerprint())
	}
	f.SetInt("points", len(specs))
	for i, sp := range specs {
		pfx := "p" + strconv.Itoa(i) + "."
		f.Set(pfx+"name", sp.Name)
		f.Set(pfx+"model", sp.Model)
		for k, v := range sp.Params {
			f.SetFloat(pfx+"param."+k, v)
		}
	}
	f.SetInt("timeout_ms", int(timeoutMS))
	f.SetInt("workers", workers)
	if noCache {
		f.SetInt("no_cache", 1)
	}
	if leaseTTLMS > 0 {
		f.SetInt("lease_ttl_ms", int(leaseTTLMS))
	}
	return f.Key()
}

// submit validates the specs, registers the job and enqueues it, answering
// 202 with the queued status — or the appropriate rejection. A request
// carrying an Idempotency-Key header is deduplicated: resubmitting the same
// body under the same key answers 200 with the existing job's status (however
// far along it is) instead of queueing a duplicate, so clients can blindly
// retry a submission whose response was lost. The key→job mapping survives
// restarts through the journal header.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, specs []PointSpec, timeoutMS int64, workers int, noCache bool, leaseTTLMS int64, compose *ComposeRequest) {
	m := serveMetrics.Get()
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = DefaultTenant
	} else if !validTenant(tenant) {
		m.rejected.With("bad_request").Inc()
		writeErr(w, http.StatusBadRequest, "invalid %s header (want [A-Za-z0-9._-]{1,64})", TenantHeader)
		return
	}
	// The quota-check fault point sits in front of admission: ModeError
	// rejects as if the tenant were over quota, ModeDelay slows the path.
	if err := faultinject.Fire(faultinject.ServeQuotaCheck); err != nil {
		m.rejected.With("tenant_rate").Inc()
		m.tenantRejected.With(tenant).Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "tenant %q over submit quota: %v", tenant, err)
		return
	}
	for i, sp := range specs {
		if err := sp.validate(); err != nil {
			m.rejected.With("bad_request").Inc()
			writeErr(w, http.StatusBadRequest, "point %d: %v", i, err)
			return
		}
	}

	idemKey := r.Header.Get("Idempotency-Key")
	var idemFP string
	if idemKey != "" {
		idemFP = idemFingerprint(kind, specs, timeoutMS, workers, noCache, leaseTTLMS, compose)
		s.mu.Lock()
		if ent, ok := s.idem[idemKey]; ok {
			prior := s.jobs[ent.id]
			s.mu.Unlock()
			if ent.fp != idemFP {
				m.rejected.With("idem_mismatch").Inc()
				writeErr(w, http.StatusConflict, "Idempotency-Key %q was used with a different request body", idemKey)
				return
			}
			if prior == nil {
				// The job aged out of retention; treat the key as spent.
				m.rejected.With("idem_mismatch").Inc()
				writeErr(w, http.StatusConflict, "Idempotency-Key %q refers to an evicted job", idemKey)
				return
			}
			m.idemHits.Inc()
			w.Header().Set("Idempotent-Replay", "true")
			writeJSON(w, http.StatusOK, prior.status(false))
			return
		}
		s.mu.Unlock()
	}

	// Tenant admission: charge the token bucket and claim an in-flight slot
	// before the job touches the journal or the queue. Downstream rejections
	// (queue full, draining, idempotency race) roll the charge back.
	if reason, retryAfter := s.tenants.admit(tenant); reason != "" {
		m.rejected.With(reason).Inc()
		m.tenantRejected.With(tenant).Inc()
		secs := int64(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		what := "submit-rate"
		if reason == "tenant_inflight" {
			what = "in-flight"
		}
		writeErr(w, http.StatusTooManyRequests, "tenant %q over its %s quota", tenant, what)
		return
	}

	// The submit's traceparent header roots the job in the caller's
	// distributed trace (pnclient injects it; the coordinator's lease
	// dispatches carry the attempt span). Absent or malformed, the job
	// starts a fresh trace of its own.
	traceCtx, hasTP := obs.ParseTraceparent(r.Header.Get("Traceparent"))
	if !hasTP {
		traceCtx = obs.SpanContext{Trace: obs.NewTraceID()}
	}

	tok, cancel := budget.WithCancel(s.root)
	j := &job{
		kind:         kind,
		tenant:       tenant,
		specs:        specs,
		compose:      compose,
		jobTimeout:   time.Duration(timeoutMS) * time.Millisecond,
		sweepWorkers: workers,
		noCache:      noCache,
		leaseTTL:     time.Duration(leaseTTLMS) * time.Millisecond,
		tok:          tok,
		cancel:       cancel,
		events:       newEventLog(),
		idem:         idemKey,
		traceCtx:     traceCtx,
		state:        StateQueued,
		summaries:    make([]PointSummary, len(specs)),
	}
	if compose != nil {
		// Compose legs feed buildConfig positionally; keep them index-ordered
		// whatever order they complete in.
		j.legs = make([]sweep.PointResult, len(specs))
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.tenants.unadmit(tenant)
		m.rejected.With("draining").Inc()
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if idemKey != "" {
		// Racing submissions under the same key: first past this check wins;
		// re-check under the lock we dropped above.
		if ent, ok := s.idem[idemKey]; ok {
			prior := s.jobs[ent.id]
			s.mu.Unlock()
			cancel()
			s.tenants.unadmit(tenant)
			if ent.fp != idemFP || prior == nil {
				m.rejected.With("idem_mismatch").Inc()
				writeErr(w, http.StatusConflict, "Idempotency-Key %q was used with a different request body", idemKey)
				return
			}
			m.idemHits.Inc()
			w.Header().Set("Idempotent-Replay", "true")
			writeJSON(w, http.StatusOK, prior.status(false))
			return
		}
	}
	s.seq++
	j.id = "j" + strconv.FormatInt(s.seq, 10)
	// The header is fsync'd before the 202 goes out: once the client hears
	// "accepted", the job survives a crash. The queued event rides the same
	// handle. Both land before the queue send, so everything a worker reads
	// (id, the queued event) is in place before the job becomes visible.
	j.jl = s.journal.create(jrecord{
		ID: j.id, Kind: kind, Tenant: tenant, Specs: specs, TimeoutMS: timeoutMS,
		Workers: workers, NoCache: noCache, Idem: idemKey, IdemFP: idemFP,
		LeaseTTLMS: leaseTTLMS, Trace: traceCtx.Traceparent(), Compose: compose,
	})
	j.trace = openJobTrace(traceCtx.Trace, s.journal.tracePath(j.id))
	// The spill file is opened (and synced) while the job is still
	// invisible: every reader that can find the job sees the same rf pointer
	// for its whole life. A nil rf (store unavailable, disk trouble)
	// degrades this job to summary-only service.
	j.rf = s.results.open(j.id, len(specs))
	j.emit(Event{Type: "state", State: StateQueued}, false)
	// The gauge rises before the enqueue so the worker's decrement (not under
	// s.mu) can never be observed ahead of it leaving the depth negative
	// forever; a momentary scrape race is the worst case.
	m.queueDepth.Add(1)
	if err := s.sched.submit(j, s.tenants.weight(tenant)); err != nil {
		s.mu.Unlock()
		cancel()
		s.tenants.unadmit(tenant)
		j.jl.discard() // an unqueued job must not be resurrected on restart
		j.trace.discard()
		j.rf.closeFile()
		s.results.remove(j.id)
		m.queueDepth.Add(-1)
		m.rejected.With("queue_full").Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "job queue is full (%d)", s.cfg.Queue)
		return
	}
	if idemKey != "" {
		s.idem[idemKey] = idemEntry{id: j.id, fp: idemFP}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()

	// The lease clock starts at acceptance: a leased job stuck in the queue
	// of a wedged worker expires like any other, freeing the coordinator to
	// reassign instead of waiting on a pickup that never comes.
	j.armLease()
	m.submitted.With(kind).Inc()
	m.tenantJobs.With(tenant).Inc()
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
// Callers hold s.mu.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.Retain {
		evicted := false
		for i, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			j.mu.Lock()
			terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				if j.idem != "" {
					delete(s.idem, j.idem)
				}
				s.journal.remove(id)
				j.trace.discard()
				j.rf.closeFile()
				s.results.remove(id)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live: keep, even over the bound
		}
	}
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status(r.URL.Query().Get("full") == "1"))
}

// handleResults serves a page of loss-free point results straight off the
// job's spill file: ?offset= is the first point index, ?limit= the page
// width (default 256, capped at 4096). Pages work on running jobs (frames
// appear as points complete; never-spilled indices are skipped) and on
// journal-recovered ones — each returned element is the point's exact codec
// bytes, so a paginating client reassembles the same payload ?full=1 used
// to ship in one body.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	q := r.URL.Query()
	offset, limit := 0, 256
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad offset %q", v)
			return
		}
		offset = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	if limit > 4096 {
		limit = 4096
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	spilled, _, degraded := j.rf.snapshot()
	page := ResultsPage{
		JobID:    j.id,
		State:    state,
		Total:    len(j.specs),
		Spilled:  spilled,
		Offset:   offset,
		Degraded: degraded,
		Results:  []json.RawMessage{},
	}
	frames, err := j.rf.page(offset, limit)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "reading results: %v", err)
		return
	}
	if frames != nil {
		page.Results = frames
	}
	if end := offset + limit; end < len(j.specs) {
		page.NextOffset = &end
	}
	serveMetrics.Get().resultReads.With("page").Inc()
	writeJSON(w, http.StatusOK, page)
}

// handleResultsJSONL streams every spilled result as one codec line per
// point, in index order — the loss-free bulk download that replaces pulling
// a giant ?full=1 body, and the first loss-free retrieval path that works on
// journal-recovered jobs. The stream is a snapshot: a running job yields the
// points spilled so far.
func (s *Server) handleResultsJSONL(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if j.rf == nil {
		writeErr(w, http.StatusNotFound, "no loss-free results for this job (result store unavailable)")
		return
	}
	serveMetrics.Get().resultReads.With("jsonl").Inc()
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	_ = j.rf.writeJSONL(w) // mid-stream errors can only truncate; the client sees a short read
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status(false))
}

// handleRenew rewinds a leased job's TTL timer (see SweepRequest.LeaseTTLMS)
// and answers with the current status — the progress counters double as the
// heartbeat payload. Renewing an unleased or terminal job is a harmless
// no-op, so coordinators can renew blindly on a timer.
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	j.armLease()
	serveMetrics.Get().leaseRenewals.Inc()
	writeJSON(w, http.StatusOK, j.status(false))
}

// handleTrace serves the job's merged distributed timeline: this node's own
// spans plus whatever has been ingested from workers, with per-stage and
// per-process latency rollups. ?format=jsonl streams the raw events one JSON
// line each, pipe-friendly.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	evs, dropped := j.trace.snapshot()
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		for _, ev := range evs {
			if enc.Encode(ev) != nil {
				return
			}
		}
		return
	}
	writeJSON(w, http.StatusOK, renderTrace(j.id, j.traceCtx.Trace, evs, dropped))
}

// handleClusterStatus serves the live fleet view. Plain nodes report their
// own queue/job numbers; a coordinator (Config.ClusterStatus installed) adds
// per-worker health/breaker state and the in-flight lease table.
func (s *Server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	running := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	st := ClusterStatus{Draining: draining, QueueDepth: s.sched.depth(), RunningJobs: running}
	if s.cfg.ClusterStatus != nil {
		st.Coordinator = true
		st.Workers, st.Leases = s.cfg.ClusterStatus()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	names := osc.Models()
	out := make([]ModelInfo, 0, len(names))
	for _, n := range names {
		mi := ModelInfo{Name: n, Defaults: osc.DefaultParams(n)}
		// Noise-source labels under default parameters — what a compose
		// leg's "sources" selector accepts against this model.
		if m, err := osc.Build(n, nil); err == nil {
			mi.NoiseSources = m.Sys.NoiseLabels()
			mi.NumNoise = m.Sys.NumNoise()
		}
		out = append(out, mi)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealth is liveness: 200 as long as the process answers HTTP at all,
// draining or not. Orchestrators restart on liveness failure, so this must
// never report unhealthy for conditions a restart would not fix.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	running := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Health{OK: true, Draining: draining, Queued: s.sched.depth(), Running: running})
}

// handleReady is readiness: 503 while draining (stop sending traffic here)
// and before journal replay completes (recovered jobs are still being
// restored, so status lookups could 404 for jobs that do exist). Load
// balancers route on this; liveness stays green the whole time.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready, draining := s.ready, s.draining
	s.mu.Unlock()
	if !ready || draining {
		writeJSON(w, http.StatusServiceUnavailable, Health{OK: false, Draining: draining, Queued: s.sched.depth()})
		return
	}
	writeJSON(w, http.StatusOK, Health{OK: true, Queued: s.sched.depth()})
}

// handleEvents streams the job's event log as Server-Sent Events: full
// history replay (resumable from the Last-Event-ID header), then live tail
// until the job reaches a terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = n
		}
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		evs, wait, done := j.events.since(after)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			after = ev.Seq
		}
		flusher.Flush()
		if done && len(evs) == 0 {
			return
		}
		if done {
			continue // drain whatever arrived with the close
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// worker pulls jobs off the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.sched.next()
		if j == nil {
			return // scheduler closed and drained
		}
		s.runUnit(j)
	}
}

// runUnit executes one scheduler grant: the whole body for interactive and
// runner-delegated jobs, one LaneGrant chunk for a local batch sweep. A
// chunked job that is not yet terminal re-enters its lane — that requeue is
// the preemption point where a waiting interactive job (or another tenant)
// can take the worker.
func (s *Server) runUnit(j *job) {
	if j.exec == nil {
		s.beginJob(j)
	}
	s.stepJob(j)
	if j.exec.state == "" {
		s.sched.requeue(j)
		return
	}
	s.finishJob(j)
}

// beginJob runs once per job, on its first grant: state transition, root
// span, the composed budget token, and the per-point completion hook that
// spills every loss-free result to the job's file the moment it lands.
func (s *Server) beginJob(j *job) {
	m := serveMetrics.Get()
	m.queueDepth.Add(-1)
	m.inflight.Add(1)
	// The root span joins the submit's trace (remote parent = the client's or
	// coordinator's span) and emits both into the job's own trace buffer and,
	// when process-wide tracing is on, the global emitter.
	span := obs.StartSpanIn(obs.Tee(j.trace, obs.CurrentEmitter()), j.traceCtx, "serve.job")
	span.SetAttr("id", j.id)
	span.SetAttr("kind", j.kind)
	span.SetAttr("points", len(j.specs))
	j.setState(StateRunning)

	jtok := j.tok
	if j.jobTimeout > 0 {
		jtok = budget.WithTimeout(jtok, j.jobTimeout)
	}
	if s.cfg.MaxJobWall > 0 {
		jtok = budget.WithTimeout(jtok, s.cfg.MaxJobWall)
	}
	ex := &jobExec{start: time.Now(), span: span, jtok: jtok}
	ex.onPt = func(r sweep.PointResult) {
		// Spill before summarising: once the summary is visible the loss-free
		// payload must already be durable-ish (same ordering as emit-then-ack
		// in the journal). Append failures degrade the file, never the job.
		_ = j.rf.appendResult(&r)
		sum := summarize(&r)
		j.mu.Lock()
		if j.legs != nil && r.Index >= 0 && r.Index < len(j.legs) {
			j.legs[r.Index] = r // compose legs feed the composition step
		}
		j.summaries[r.Index] = sum
		j.doneN++
		if r.Cached {
			j.cachedN++
		}
		if !r.OK() {
			j.failedN++
		}
		j.mu.Unlock()
		j.emit(Event{Type: "point", Point: &sum}, false)
	}
	j.exec = ex
}

// stepJob advances the job by one grant. It records the terminal outcome on
// j.exec when the job is finished (or failed) and leaves exec.state empty
// when a local batch sweep still has chunks to run.
func (s *Server) stepJob(j *job) {
	ex := j.exec
	if len(j.specs) > 0 && s.cfg.Runner != nil && ex.next == 0 {
		ex.next = len(j.specs)
		if state, err := s.runViaRunner(j); err != nil {
			ex.state, ex.err = state, err
			return
		}
	}
	if len(j.specs) > 0 && s.cfg.Runner == nil {
		if ex.points == nil {
			pts := make([]sweep.Point, len(j.specs))
			for i, sp := range j.specs {
				pt, err := sp.Resolve(ex.jtok)
				if err != nil {
					ex.state, ex.err = classify(err), fmt.Errorf("point %d: %w", i, err)
					return
				}
				pts[i] = pt
			}
			ex.points = pts
			ex.store = s.cfg.Cache
			if j.noCache {
				ex.store = nil
			}
		}
		for ex.next < len(ex.points) {
			a, b := ex.next, ex.next+s.cfg.LaneGrant
			if j.kind != "sweep" || ex.jtok.Err() != nil || b > len(ex.points) {
				// Interactive jobs run whole (their point counts are small);
				// a dead budget drains the remainder in one pass — the engine
				// delivers every never-started point as skipped, so the
				// terminal job still accounts for all of them.
				b = len(ex.points)
			}
			s.runChunk(j, a, b)
			ex.next = b
			if ex.next < len(ex.points) && ex.jtok.Err() == nil {
				return // yield the worker; the scheduler picks who runs next
			}
		}
	}
	// A tripped job token is a job-level outcome (cancel endpoint, shutdown,
	// or the job's own deadline); per-point failures under a live token are
	// data, not a job failure.
	if err := ex.jtok.Err(); err != nil {
		ex.state, ex.err = classify(err), err
		return
	}
	if j.compose != nil {
		if state, err := s.composeJob(j, ex.jtok, ex.span); err != nil {
			ex.state, ex.err = state, err
			return
		}
	}
	ex.state = StateDone
}

// runChunk runs points [a, b) through the in-process sweep engine. The engine
// sees a zero-based sub-slice; results are re-indexed to job coordinates
// before the completion hook. DiscardResults keeps the engine from returning
// an O(chunk) slice nobody reads — the spill file is the system of record.
func (s *Server) runChunk(j *job, a, b int) {
	ex := j.exec
	sweep.Run(ex.points[a:b], &sweep.Config{
		Workers:        j.sweepWorkers,
		Budget:         ex.jtok,
		Cache:          ex.store,
		Span:           ex.span,
		FlightRecorder: s.cfg.FlightRecorder,
		DiscardResults: true,
		OnPoint: func(r sweep.PointResult) {
			r.Index += a
			ex.onPt(r)
		},
	})
}

// runViaRunner executes the job through the configured SweepRunner (a
// cluster coordinator, in practice) and returns ("", nil) on success.
// Per-point progress arrives through OnSummary — possibly concurrently from
// several worker streams — and is folded into the job's counters and SSE
// stream exactly like the in-process path's hook; the loss-free payloads
// arrive through OnResult and go straight to the spill file. Both are
// trusted to arrive at most once per index, but an out-of-range index is
// dropped rather than corrupting state.
func (s *Server) runViaRunner(j *job) (string, error) {
	ex := j.exec
	runErr := s.cfg.Runner.RunSweep(RunnerRequest{
		JobID:       j.id,
		Kind:        j.kind,
		Specs:       j.specs,
		Tok:         ex.jtok,
		Workers:     j.sweepWorkers,
		NoCache:     j.noCache,
		Span:        ex.span,
		IngestTrace: j.trace.ingest,
		OnResult: func(r sweep.PointResult) {
			if r.Index < 0 || r.Index >= len(j.specs) {
				return
			}
			_ = j.rf.appendResult(&r)
			if j.legs != nil {
				j.mu.Lock()
				j.legs[r.Index] = r
				j.mu.Unlock()
			}
		},
		OnSummary: func(sum PointSummary) {
			if sum.Index < 0 || sum.Index >= len(j.specs) {
				return
			}
			j.mu.Lock()
			j.summaries[sum.Index] = sum
			j.doneN++
			if sum.Cached {
				j.cachedN++
			}
			if !sum.OK {
				j.failedN++
			}
			j.mu.Unlock()
			j.emit(Event{Type: "point", Point: &sum}, false)
		},
	})

	if runErr != nil {
		return classify(runErr), runErr
	}
	if err := ex.jtok.Err(); err != nil {
		return classify(err), err
	}
	return "", nil
}

// finishJob settles the terminal state recorded by stepJob: the synced
// terminal event, sealed spill file, released tenant slot, metrics and the
// closed trace.
func (s *Server) finishJob(j *job) {
	m := serveMetrics.Get()
	ex := j.exec
	state, jobErr := ex.state, ex.err
	j.stopLease()
	// Free the tenant's in-flight slot before the terminal state becomes
	// visible: a client that polls its job to completion and immediately
	// resubmits must never bounce off its own finishing job's slot.
	s.tenants.release(j.tenant)

	j.mu.Lock()
	j.state = state
	j.err = jobErr
	j.wall = time.Since(ex.start)
	j.mu.Unlock()
	// The terminal event carries the job-level error and is synced before
	// subscribers see the stream close: a crash after this line replays as a
	// finished job, never as a re-run.
	j.emit(Event{Type: "state", State: state, Error: sweep.EncodeError(jobErr)}, true)
	j.events.close()
	j.cancel() // release the token's forwarding goroutine
	j.rf.seal()

	m.inflight.Add(-1)
	m.jobs.With(state).Inc()
	m.jobSeconds.Observe(time.Since(ex.start).Seconds())
	ex.span.SetAttr("state", state)
	ex.span.EndErr(jobErr)
	// The timeline stays queryable from memory; the file handle is released
	// now that the last span has landed (eviction deletes the file later).
	j.trace.close()
}

// classify maps a job-level error to its terminal state.
func classify(err error) string {
	if errors.Is(err, budget.ErrCanceled) {
		return StateCanceled
	}
	return StateFailed
}

// recoverJobs replays the journal directory on startup. Terminal jobs come
// back queryable exactly as they finished (state, counters, summaries, event
// history for SSE replay); non-terminal jobs are re-enqueued and re-run —
// their pre-crash points are cache hits, so no completed work recomputes.
// Runs in the background: the server accepts new traffic meanwhile, and
// /readyz flips to 200 only when the whole directory is restored. A shutdown
// mid-replay aborts cleanly: unprocessed journals wait for the next start.
func (s *Server) recoverJobs() {
	defer s.replay.Done()
	m := serveMetrics.Get()
	// ModeDelay here widens the not-ready window deterministically; ModeError
	// is meaningless for replay and ignored.
	_ = faultinject.Fire(faultinject.ServeReplayDelay)
	for _, rj := range s.journal.replay() {
		if rj.terminal {
			s.restoreTerminal(rj, m)
			continue
		}
		if !s.resumeJob(rj, m) {
			return // draining: remaining journals recover on the next start
		}
	}
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
}

// restoreTerminal registers a finished job from its journal: queryable status
// and replayable (closed) event stream. When the job's spill file survived
// alongside the journal, the loss-free results come back with it — ?full=1,
// /results pages and /results.jsonl all work across the restart; only a job
// with no spill (pre-store journals, degraded runs) is summary-only.
func (s *Server) restoreTerminal(rj recoveredJob, m *serveInstruments) {
	tok, cancel := budget.WithCancel(nil)
	cancel() // nothing will run; release the token immediately
	traceCtx := recoveredTraceCtx(rj.hdr.Trace)
	j := &job{
		id:           rj.hdr.ID,
		kind:         rj.hdr.Kind,
		tenant:       recoveredTenant(rj.hdr),
		specs:        rj.hdr.Specs,
		compose:      rj.hdr.Compose,
		jobTimeout:   time.Duration(rj.hdr.TimeoutMS) * time.Millisecond,
		sweepWorkers: rj.hdr.Workers,
		noCache:      rj.hdr.NoCache,
		tok:          tok,
		cancel:       cancel,
		events:       newEventLog(),
		idem:         rj.hdr.Idem,
		traceCtx:     traceCtx,
		state:        rj.state,
		summaries:    make([]PointSummary, len(rj.hdr.Specs)),
	}
	j.rf = s.results.openExisting(j.id, len(j.specs))
	j.rf.seal() // terminal: frozen read-only, late appends no-op
	j.trace = openJobTrace(traceCtx.Trace, s.journal.tracePath(j.id))
	j.trace.close() // terminal: the timeline is read-only from here
	if rj.err != nil {
		j.err = rj.err
	}
	restoreProgress(j, rj.events)
	j.events.restore(rj.events)
	j.events.close()
	s.register(j)
	m.recovered.With("terminal").Inc()
}

// resumeJob re-enqueues a non-terminal recovered job. The restored event
// history keeps its pre-crash sequence numbers (so Last-Event-ID replay spans
// the restart), then a fresh queued event marks the resumption; the re-run
// re-reports every point, completed ones as cache hits. Progress counters
// restart from zero — the re-run recounts. Returns false when the server is
// draining and the job could not be enqueued.
func (s *Server) resumeJob(rj recoveredJob, m *serveInstruments) bool {
	tok, cancel := budget.WithCancel(s.root)
	traceCtx := recoveredTraceCtx(rj.hdr.Trace)
	j := &job{
		id:           rj.hdr.ID,
		kind:         rj.hdr.Kind,
		tenant:       recoveredTenant(rj.hdr),
		specs:        rj.hdr.Specs,
		compose:      rj.hdr.Compose,
		jobTimeout:   time.Duration(rj.hdr.TimeoutMS) * time.Millisecond,
		sweepWorkers: rj.hdr.Workers,
		noCache:      rj.hdr.NoCache,
		leaseTTL:     time.Duration(rj.hdr.LeaseTTLMS) * time.Millisecond,
		tok:          tok,
		cancel:       cancel,
		events:       newEventLog(),
		jl:           s.journal.open(rj.hdr.ID),
		idem:         rj.hdr.Idem,
		traceCtx:     traceCtx,
		state:        StateQueued,
		summaries:    make([]PointSummary, len(rj.hdr.Specs)),
	}
	if j.compose != nil {
		j.legs = make([]sweep.PointResult, len(j.specs))
	}
	// The re-run re-reports every point (pre-crash ones as cache hits); the
	// reopened spill dedups by index, so frames that landed before the crash
	// stay exactly as first written.
	j.rf = s.results.open(j.id, len(j.specs))
	// The pre-crash timeline is reloaded and the same trace ID continues; a
	// resume marker records the restart itself — in-flight span trees died
	// unemitted with the old process, and this marker is what explains the
	// gap when reading the merged timeline.
	j.trace = openJobTrace(traceCtx.Trace, s.journal.tracePath(j.id))
	j.trace.Emit(obs.Event{Type: "resume", Name: "serve.job.resumed", StartNS: time.Now().UnixNano()})
	j.events.restore(rj.events)
	j.emit(Event{Type: "state", State: StateQueued}, false)
	s.register(j)
	// The lease resumes with a full TTL window: the coordinator's renew loop
	// (or its own journal replay) has one whole period to find the restarted
	// worker before the job self-cancels.
	j.armLease()
	m.queueDepth.Add(1)
	if s.sched.resume(j, s.tenants.weight(j.tenant)) == nil {
		// The previous process admitted this job; re-claim its in-flight slot
		// (without charging the submit bucket) so quota accounting survives
		// the restart.
		s.tenants.restore(j.tenant)
		m.recovered.With("resumed").Inc()
		return true
	}
	// Shutting down before this job could re-enter the queue: unregister
	// and keep its journal on disk so the next start resumes it.
	cancel()
	j.rf.closeFile()
	m.queueDepth.Add(-1)
	s.mu.Lock()
	delete(s.jobs, j.id)
	for i, id := range s.order {
		if id == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if j.idem != "" {
		delete(s.idem, j.idem)
	}
	s.mu.Unlock()
	return false
}

// recoveredTenant maps a journal header to its admission identity; journals
// written before tenancy existed carry no tenant and fold into the default.
func recoveredTenant(hdr jrecord) string {
	if validTenant(hdr.Tenant) {
		return hdr.Tenant
	}
	return DefaultTenant
}

// register adds a recovered job to the server's tables (including the
// idempotency map, so a client retrying its submission after the crash gets
// the recovered job back, not a duplicate).
func (s *Server) register(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if j.idem != "" {
		s.idem[j.idem] = idemEntry{id: j.id, fp: j.idemFP()}
	}
	s.evictLocked()
	s.mu.Unlock()
}

// idemFP recomputes the job's idempotency fingerprint from its own fields
// (recovered headers carry the key; the fingerprint is derivable).
func (j *job) idemFP() string {
	return idemFingerprint(j.kind, j.specs, int64(j.jobTimeout/time.Millisecond), j.sweepWorkers, j.noCache, int64(j.leaseTTL/time.Millisecond), j.compose)
}

// restoreProgress rebuilds a terminal job's counters and summaries from its
// journaled point events. Point delivery is at-least-once across a crash (a
// resumed job re-reports everything), so counting dedups by Point.Index with
// the last occurrence winning — it is the final incarnation's result.
func restoreProgress(j *job, evs []Event) {
	filled := make([]bool, len(j.summaries))
	for _, ev := range evs {
		if ev.Type == "compose" && ev.Compose != nil {
			j.composeSum = ev.Compose // last wins: the final incarnation's composite
			continue
		}
		if ev.Type != "point" || ev.Point == nil {
			continue
		}
		p := *ev.Point
		if p.Index < 0 || p.Index >= len(j.summaries) {
			continue
		}
		j.summaries[p.Index] = p
		filled[p.Index] = true
	}
	for i, ok := range filled {
		if !ok {
			continue
		}
		j.doneN++
		if j.summaries[i].Cached {
			j.cachedN++
		}
		if !j.summaries[i].OK {
			j.failedN++
		}
	}
}
