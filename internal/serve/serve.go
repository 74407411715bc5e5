// Package serve is the characterisation-as-a-service layer: an HTTP JSON API
// that runs phase-noise characterisation jobs — single points or whole
// parameter sweeps — on one process-wide pool of execution slots, in front of
// the content-addressed result cache (internal/cache) and the batch engine
// (internal/sweep). Each slot runs one point at a time, granted by the
// two-lane weighted-fair scheduler (sched.go), so a sweep's points spread
// across the pool and an interactive request waits for at most one point per
// slot, never for a whole sweep.
//
// Jobs are pure data: a registered model name plus a parameter map (see
// internal/osc's registry), so requests are reproducible, cacheable by
// content, and never execute caller code. The API:
//
//	POST /v1/characterise   — submit a one-point job        → JobStatus (202)
//	POST /v1/sweep          — submit a multi-point job      → JobStatus (202)
//	GET  /v1/jobs/{id}      — job status (+?full=1 compose_result) → JobStatus
//	GET  /v1/jobs/{id}/results[.jsonl] — loss-free results: a page, or a line each
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/osc"
	"repro/internal/pll"
	"repro/internal/sweep"
)

// Config tunes a Server. The zero value is usable: GOMAXPROCS slots, a
// queue of 16, no cache, a 1 MiB body limit.
type Config struct {
	// Workers is the number of execution slots (default GOMAXPROCS), the
	// server's only execution pool. Each slot runs one grant at a time: one
	// point of an in-process job, or a whole job delegated to Runner.
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
	// Retain bounds how many terminal jobs stay queryable (default 256);
	// beyond it the oldest terminal jobs are evicted.
	Retain int
	// MaxJobWall, when > 0, is a server-side ceiling on any job's wall clock
	// from its first slot grant, applied on top of the request's own
	// timeout_ms.
	MaxJobWall time.Duration
	// JournalDir, when non-empty, makes jobs durable: every accepted job's
	// log, <id>.wal, lives under this directory (header synced before the
	// 202 goes out, terminal event synced), and on restart the server
	// replays the directory — terminal jobs come back queryable,
	// non-terminal jobs are re-enqueued and resumed through the result
	// cache, so already-computed points are cache hits. Empty: the logs live
	// in a private temp directory and jobs die with the process.
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
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
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
	if c.Retain <= 0 {
		c.Retain = 256
	}
	if c.FlightRecorder == 0 {
		c.FlightRecorder = 64
	} else if c.FlightRecorder < 0 {
		c.FlightRecorder = 0
	}
	return c
}

// job is one queued/running/terminal characterisation job.
type job struct {
	id         string
	kind       string // "characterise", "sweep" or "compose"
	tenant     string // admission identity (DefaultTenant when none was sent)
	specs      []PointSpec
	compose    *ComposeRequest // non-nil for compose jobs: the composition to run over the legs
	jobTimeout time.Duration
	noCache    bool
	leaseTTL   time.Duration // > 0: job self-cancels unless renewed within each TTL window

	tok      *budget.Token // child of the server root; tripped by cancel/shutdown
	cancel   func()
	events   *eventLog
	log      *jobLog         // the job's one file (nil: none could be written)
	rf       *resultFile     // index of the log's loss-free results (nil = summary-only)
	idem     string          // Idempotency-Key this job was submitted under ("" = none)
	trace    *jobTrace       // distributed timeline (always non-nil for runnable jobs)
	traceCtx obs.SpanContext // trace ID + remote parent from the submit's traceparent

	units   int          // scheduler grants the job takes: len(specs) when run point by point, else 1
	granted int          // owned by sched.mu: units granted (or withdrawn) so far
	left    atomic.Int64 // points not yet reported; the report that zeroes it settles the job

	// Execution state, set once by beginJob on the job's first grant; every
	// later grant reads it after begin.Do returns.
	begin sync.Once
	start time.Time
	span  *obs.Span
	jtok  *budget.Token // tok plus the job's deadlines

	leaseMu  sync.Mutex
	leaseT   *time.Timer // armed while the lease is live; Reset on renew
	leaseEnd bool        // set by stopLease: a terminal job's lease never re-arms

	emitMu sync.Mutex // held across stamping and journalling one event (see emit)

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

// emit appends ev to the job's event stream and journals exactly what was
// stored (same sequence number). terminal events reach stable storage before
// emit returns. Stamping and journalling are one step under emitMu: slots
// report a job's points concurrently, and replay stops a job's history at
// the first sequence number that arrives out of order.
func (j *job) emit(ev Event, terminal bool) {
	j.emitMu.Lock()
	defer j.emitMu.Unlock()
	stamped, ok := j.events.append(ev)
	if ok {
		j.log.event(stamped, terminal)
	}
}

// armLease starts (or, on renewal, rewinds) the job's lease timer. On expiry
// the job cancels itself through its budget token — a leased job whose
// coordinator died or partitioned away stops consuming the worker; its
// finished points are already in the shared result cache for whoever picks
// the lease up next. No-op for jobs submitted without a lease TTL, and
// once the job is terminal (a renewal may arrive after it finished).
func (j *job) armLease() {
	if j.leaseTTL <= 0 {
		return
	}
	j.leaseMu.Lock()
	defer j.leaseMu.Unlock()
	if j.leaseEnd {
		return
	}
	if j.leaseT == nil {
		j.leaseT = time.AfterFunc(j.leaseTTL, func() {
			serveMetrics.Get().leaseExpired.Inc()
			j.cancel()
		})
		return
	}
	j.leaseT.Reset(j.leaseTTL)
}

// stopLease disarms the lease timer for good once the job is terminal: an
// expiry against a finished job would count a spurious lease expiration.
func (j *job) stopLease() {
	j.leaseMu.Lock()
	j.leaseEnd = true
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

// status snapshots the job for the API; full (?full=1) adds a compose job's
// composition result. Loss-free point results are read as bytes off the
// spill file, from /results and /results.jsonl.
func (j *job) status(full bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
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
	return st
}

// idemEntry maps one Idempotency-Key to the job it created, plus the
// fingerprint of the request body it arrived with (reuse with a different
// body is a client error, not a replay). id is empty while the submission
// that reserved the key writes its log.
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
	wg      sync.WaitGroup
	journal *journal      // the job logs' directory (nil: none could be made; jobs serve summaries only)
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

// New builds a Server and starts its execution slots. With Config.JournalDir set
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
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*job),
		idem:    make(map[string]idemEntry),
	}
	if jl, maxSeq, err := openJournal(cfg.JournalDir); err == nil {
		s.journal = jl
		s.seq = maxSeq
	} else {
		// An unusable journal dir degrades durability, not service.
		serveMetrics.Get().journalErrors.Inc()
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
		go s.slot()
	}
	if s.journal != nil && s.journal.durable {
		s.journal.blobs.beginReplay()
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
// for the slots to exit. Safe to call once.
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
	// Without a journal directory the logs live in a temp dir; release it
	// with the slots gone (terminal jobs lose their loss-free results, as
	// they always did without a journal — the process is exiting anyway).
	s.journal.close()
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
	s.submit(w, r, jrecord{Kind: "characterise", Specs: []PointSpec{req.PointSpec}, TimeoutMS: req.TimeoutMS, NoCache: req.NoCache})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.validate(s.cfg.MaxPoints); err != nil {
		serveMetrics.Get().rejected.With("bad_request").Inc()
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submit(w, r, jrecord{Kind: "sweep", Specs: req.Points, TimeoutMS: req.TimeoutMS, NoCache: req.NoCache, LeaseTTLMS: req.LeaseTTLMS})
}

// idemFingerprint condenses a submission's identity — kind, every point spec,
// and the job-wide knobs of its header — to a content address, so an
// Idempotency-Key reused with a different body is detectable as a client
// error rather than silently replaying the wrong job.
func idemFingerprint(h jrecord) string {
	f := cache.NewFingerprint()
	f.Set("kind", h.Kind)
	if h.Compose != nil {
		f.Set("compose", h.Compose.fingerprint())
	}
	f.SetInt("points", len(h.Specs))
	for i, sp := range h.Specs {
		pfx := "p" + strconv.Itoa(i) + "."
		f.Set(pfx+"name", sp.Name)
		f.Set(pfx+"model", sp.Model)
		for k, v := range sp.Params {
			f.SetFloat(pfx+"param."+k, v)
		}
	}
	f.SetInt("timeout_ms", int(h.TimeoutMS))
	if h.NoCache {
		f.SetInt("no_cache", 1)
	}
	if h.LeaseTTLMS > 0 {
		f.SetInt("lease_ttl_ms", int(h.LeaseTTLMS))
	}
	return f.Key()
}

// submit validates the specs, registers the job and enqueues it, answering
// 202 with the queued status — or the appropriate rejection. hdr carries the
// request as the job's journal header; submit fills in the identity fields
// (ID, tenant, idempotency, trace). A request carrying an Idempotency-Key
// header is deduplicated: resubmitting the same body under the same key
// answers 200 with the existing job's status (however far along it is)
// instead of queueing a duplicate, so clients can blindly retry a submission
// whose response was lost. The key→job mapping survives restarts through the
// journal header.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, hdr jrecord) {
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
	if err := validateSpecs(hdr.Specs); err != nil {
		m.rejected.With("bad_request").Inc()
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	idemKey := r.Header.Get("Idempotency-Key")
	var idemFP string
	if idemKey != "" {
		idemFP = idemFingerprint(hdr)
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
				// The job aged out of retention (the key is spent), or its
				// submission is still writing its log.
				m.rejected.With("idem_mismatch").Inc()
				writeErr(w, http.StatusConflict, "Idempotency-Key %q refers to an evicted job or one not yet accepted", idemKey)
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
	// starts a fresh trace of its own, and the header journals that one.
	hdr.Tenant, hdr.Idem, hdr.IdemFP = tenant, idemKey, idemFP
	hdr.Trace = r.Header.Get("Traceparent")
	j := s.newJob(hdr, s.root)
	hdr.Trace = j.traceCtx.Traceparent()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		j.cancel()
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
			j.cancel()
			s.tenants.unadmit(tenant)
			if ent.fp != idemFP || prior == nil {
				m.rejected.With("idem_mismatch").Inc()
				writeErr(w, http.StatusConflict, "Idempotency-Key %q was used with a different request body, or by a submission not yet accepted", idemKey)
				return
			}
			m.idemHits.Inc()
			w.Header().Set("Idempotent-Replay", "true")
			writeJSON(w, http.StatusOK, prior.status(false))
			return
		}
		// Reserve the key for this submission while its log is written: a
		// racer under the same key now gets a 409 (or, once the job is
		// registered, the job), never a second job.
		s.idem[idemKey] = idemEntry{fp: idemFP}
	}
	s.seq++
	j.id = "j" + strconv.FormatInt(s.seq, 10)
	s.mu.Unlock()
	// rollback undoes an accepted-looking submission that cannot be queued:
	// its key, its admission and its log.
	rollback := func() {
		if idemKey != "" {
			delete(s.idem, idemKey)
		}
		s.mu.Unlock()
		j.cancel()
		s.tenants.unadmit(tenant)
		j.drop() // an unqueued job must not be resurrected on restart
	}

	// The header is fsync'd before the 202 goes out: once the client hears
	// "accepted", the job survives a crash. The queued event rides the same
	// log. Both are written outside s.mu (every lookup waits on it) but
	// before the queue send, and the log is attached while the job is still
	// invisible, so every reader that can find the job sees the same log,
	// trace and rf for its whole life. A job without a log (disk trouble)
	// runs summary-only.
	hdr.ID = j.id
	j.log = s.journal.create(hdr)
	j.trace = newJobTrace(j.traceCtx.Trace, j.log, nil)
	j.rf = newResultFile(j.log, len(j.specs))
	j.emit(Event{Type: "state", State: StateQueued}, false)

	s.mu.Lock()
	if s.draining {
		rollback()
		m.rejected.With("draining").Inc()
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// The gauge rises before the enqueue so the slot's decrement (not under
	// s.mu) can never be observed ahead of it leaving the depth negative
	// forever; a momentary scrape race is the worst case.
	m.queueDepth.Add(1)
	if err := s.sched.submit(j, s.tenants.weight(tenant)); err != nil {
		rollback()
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
	evicted := s.evictLocked()
	s.mu.Unlock()
	dropFiles(evicted)

	// The lease clock starts at acceptance: a leased job stuck in the queue
	// of a wedged worker expires like any other, freeing the coordinator to
	// reassign instead of waiting on a pickup that never comes.
	j.armLease()
	m.submitted.With(j.kind).Inc()
	m.tenantJobs.With(tenant).Inc()
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// evictLocked drops the oldest terminal jobs beyond the retention bound
// from the server's tables and returns them; the caller deletes their files
// with dropFiles once it has released s.mu. Callers hold s.mu.
func (s *Server) evictLocked() (evicted []*job) {
	for len(s.jobs) > s.cfg.Retain {
		found := false
		for i, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				found = true
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
				evicted = append(evicted, j)
				found = true
				break
			}
		}
		if !found {
			break // everything live: keep, even over the bound
		}
	}
	return evicted
}

// dropFiles deletes evicted jobs' logs. It runs outside s.mu: unlinking a
// large file takes long enough to stall every request behind the
// server-wide lock.
func dropFiles(evicted []*job) {
	for _, j := range evicted {
		j.drop()
	}
}

// drop deletes the job's log, then releases the blob counts of its
// reference records.
func (j *job) drop() {
	j.log.remove()
	j.rf.release()
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
// bytes, so a paginating client reassembles the results.jsonl download.
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
	}
	// Every frame is read before the status line goes out, so a read
	// failure still answers 500.
	frames, err := j.rf.page(offset, limit)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "reading results: %v", err)
		return
	}
	if end := offset + limit; end < len(j.specs) {
		page.NextOffset = &end
	}
	serveMetrics.Get().resultReads.With("page").Inc()
	writePage(w, page, frames)
}

// writePage answers 200 with page and frames as its results. encoding/json
// would compact each frame again, as it does every Marshaler's output, and
// a hopf frame is over a megabyte. The frames are the codec's compact
// bytes, so the page is marshalled with no results and the frames are
// written between its "results":[ and ]}: the same body, unscanned.
func writePage(w http.ResponseWriter, page ResultsPage, frames []json.RawMessage) {
	page.Results = []json.RawMessage{}
	head, err := json.Marshal(page)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(head[:len(head)-len("]}")])
	for i, f := range frames {
		if i > 0 {
			w.Write(comma)
		}
		w.Write(f)
	}
	w.Write([]byte("]}\n"))
}

var comma = []byte{','}

// handleResultsJSONL streams every spilled result as one codec line per
// point, in index order — the loss-free bulk download, for live and
// journal-recovered jobs alike. The stream is a snapshot: a running job
// yields the points spilled so far.
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

// slot runs scheduler grants until Shutdown closes the scheduler. The
// Config.Workers slots are the server's only execution pool.
func (s *Server) slot() {
	defer s.wg.Done()
	for {
		j, unit := s.sched.next()
		if j == nil {
			return // scheduler closed and drained
		}
		s.runUnit(j, unit)
	}
}

// perPoint reports whether a job with n specs is granted point by point (in
// process) rather than as one whole-job unit (Config.Runner executes it, or
// a compose has no spec legs).
func (s *Server) perPoint(n int) bool { return s.cfg.Runner == nil && n > 0 }

// runUnit executes one grant: one point of an in-process job, or the whole
// of any other job. The first grant begins the job; concurrent grants of
// the same job wait in begin.Do until it has.
func (s *Server) runUnit(j *job, unit int) {
	j.begin.Do(func() { s.beginJob(j) })
	if !s.perPoint(len(j.specs)) {
		var err error
		if len(j.specs) > 0 {
			err = s.runViaRunner(j)
		}
		s.settle(j, err)
		return
	}
	if j.jtok.Err() != nil {
		// A tripped token (cancel, deadline, lease expiry, shutdown) ends the
		// job: its ungranted points leave the scheduler and go to the engine
		// with this one, which reports each as not started under the spent
		// budget. The job settles as soon as its in-flight points return.
		idx := []int{unit}
		for i := s.sched.withdraw(j); i < len(j.specs); i++ {
			idx = append(idx, i)
		}
		pts := make([]sweep.Point, len(idx))
		for k, i := range idx {
			pts[k].Name = j.specs[i].label()
		}
		s.runPoints(j, idx, pts)
		return
	}
	pt, err := j.specs[unit].Resolve(nil)
	if err != nil {
		// Only this point's spec is resolved, so its error fails the point,
		// not the job.
		s.report(j, sweep.PointResult{Index: unit, Name: j.specs[unit].label(), Err: fmt.Errorf("point %d: %w", unit, err)})
		return
	}
	s.runPoints(j, []int{unit}, []sweep.Point{pt})
}

// beginJob runs once per job, on its first grant: state transition, root
// span and the composed budget token.
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
	j.start, j.span, j.jtok = time.Now(), span, jtok
}

// runPoints runs points of job j through the engine's own per-point path,
// sweep.Run, so the cache, retry ladder, panic isolation, skip accounting
// and per-point metrics are the engine's; idx maps each point back to its
// job index. A slot passes one resolved point, or the withdrawn points of a
// job whose budget is spent. DiscardResults keeps the engine from holding
// results nobody reads — the job's log is the system of record.
func (s *Server) runPoints(j *job, idx []int, pts []sweep.Point) {
	store := s.cfg.Cache
	if j.noCache {
		store = nil
	}
	sweep.Run(pts, &sweep.Config{
		Budget:         j.jtok,
		Cache:          store,
		Span:           j.span,
		FlightRecorder: s.cfg.FlightRecorder,
		DiscardResults: true,
		OnPoint: func(r sweep.PointResult) {
			r.Index = idx[r.Index]
			s.report(j, r)
		},
	})
}

// report records one finished point of an in-process job: the loss-free
// payload, then the summary and its point event. Every point is reported
// exactly once; the report that completes the set settles the job. The
// count is taken after the point event is emitted, so the terminal event is
// always the last in the stream.
func (s *Server) report(j *job, r sweep.PointResult) {
	j.keep(r.Index, &r, nil)
	j.progress(Summarize(&r))
	if j.left.Add(-1) == 0 {
		s.settle(j, nil)
	}
}

// keep spills point idx's loss-free result — r from the in-process engine,
// or a runner's record as bytes (parts), which go to the spill as they are —
// and, for a compose job, holds it as a leg for the composition step. A
// runner's leg is the one record decoded: its per-source c_i are stored
// nowhere else. Append failures degrade the file, never the job. The
// serve.spill_append span lands in the job trace.
func (j *job) keep(idx int, r *sweep.PointResult, parts [][]byte) {
	sp := obs.StartSpan(j.span, "serve.spill_append")
	sp.SetAttr("index", idx)
	if r != nil {
		sp.EndErr(j.rf.appendResult(r))
	} else {
		sp.EndErr(j.rf.append(idx, parts...))
	}
	if j.legs == nil {
		return
	}
	if r == nil {
		r = new(sweep.PointResult)
		if err := r.UnmarshalJSON(bytes.Join(parts, nil)); err != nil {
			*r = sweep.PointResult{Index: idx, Err: fmt.Errorf("decoding compose leg %d: %w", idx, err)}
		}
	}
	j.mu.Lock()
	j.legs[idx] = *r
	j.mu.Unlock()
}

// progress folds one point summary into the job's counters and emits its
// point event. Callers keep the result first: once the summary is visible
// the loss-free payload must already be spilled.
func (j *job) progress(sum PointSummary) {
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
}

// runViaRunner executes the job through the configured SweepRunner (a
// cluster coordinator, in practice). Per-point progress arrives through
// OnSummary — possibly concurrently from several worker streams — and is
// folded into the job's counters and SSE stream exactly like the in-process
// path; the loss-free records arrive through OnResult as bytes and go
// straight to the job's log. Both are trusted to arrive at most once per
// index, but an out-of-range index is dropped rather than corrupting state.
func (s *Server) runViaRunner(j *job) error {
	return s.cfg.Runner.RunSweep(RunnerRequest{
		JobID:       j.id,
		Kind:        j.kind,
		Specs:       j.specs,
		Tok:         j.jtok,
		NoCache:     j.noCache,
		Span:        j.span,
		IngestTrace: j.trace.ingest,
		OnResult: func(idx int, parts ...[]byte) {
			if idx >= 0 && idx < len(j.specs) {
				j.keep(idx, nil, parts)
			}
		},
		OnSummary: func(sum PointSummary) {
			if sum.Index >= 0 && sum.Index < len(j.specs) {
				j.progress(sum)
			}
		},
	})
}

// settle finishes a job once every point is reported (or its runner
// returned err): the sealed results, the terminal state and its synced
// event, released tenant slot and metrics. A tripped job token is a
// job-level outcome (cancel endpoint, shutdown, lease expiry or the job's
// own deadline); per-point failures under a live token are data, not a job
// failure.
func (s *Server) settle(j *job, err error) {
	if err == nil {
		err = j.jtok.Err()
	}
	if err == nil && j.compose != nil {
		err = s.composeJob(j)
	}
	state := StateDone
	if err != nil {
		state = classify(err)
	}
	m := serveMetrics.Get()
	j.stopLease()
	// Free the tenant's in-flight slot before the terminal state becomes
	// visible: a client that polls its job to completion and immediately
	// resubmits must never bounce off its own finishing job's slot.
	s.tenants.release(j.tenant)
	// Sealed before the job can be evicted, and before the terminal event,
	// whose sync then makes every result record durable.
	j.rf.seal()

	j.mu.Lock()
	j.state = state
	j.err = err
	j.wall = time.Since(j.start)
	j.mu.Unlock()
	// The terminal event carries the job-level error and is synced before
	// subscribers see the stream close: a crash after this line replays as a
	// finished job, never as a re-run.
	j.emit(Event{Type: "state", State: state, Error: sweep.EncodeError(err)}, true)
	j.events.close()
	j.cancel() // release the token's forwarding goroutine

	m.inflight.Add(-1)
	m.jobs.With(state).Inc()
	m.jobSeconds.Observe(time.Since(j.start).Seconds())
	j.span.SetAttr("state", state)
	j.span.EndErr(err)
}

// classify maps a job-level error to its terminal state.
func classify(err error) string {
	if errors.Is(err, budget.ErrCanceled) {
		return StateCanceled
	}
	return StateFailed
}

// recoverJobs replays the journal directory on startup, reading each job's
// log once, in submission order. Terminal jobs come back queryable exactly
// as they finished (state, counters, summaries, event history for SSE
// replay, timeline and results); non-terminal jobs are re-enqueued and
// re-run — their pre-crash points are cache hits, so no completed work
// recomputes. Runs in the background: the server accepts new traffic
// meanwhile, and /readyz flips to 200 only when the whole directory is
// restored. A shutdown mid-replay aborts cleanly: unprocessed logs wait for
// the next start.
func (s *Server) recoverJobs() {
	defer s.replay.Done()
	m := serveMetrics.Get()
	// ModeDelay here widens the not-ready window deterministically; ModeError
	// is meaningless for replay and ignored.
	_ = faultinject.Fire(faultinject.ServeReplayDelay)
	for _, id := range s.journal.logIDs() {
		rj, ok := s.journal.recover(id)
		switch {
		case !ok:
		case rj.terminal:
			s.restoreTerminal(rj, m)
		case !s.resumeJob(rj, m):
			// Draining: remaining logs recover on the next start, and the
			// blobs their result records name stay until then.
			return
		}
	}
	// Every log is read: blobs no reference holds can go now.
	s.journal.blobs.endReplay()
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
}

// restoreTerminal registers a finished job from its log: queryable status,
// replayable (closed) event stream and timeline, and the loss-free results —
// /results pages and /results.jsonl both work across the restart; only a
// job whose log holds no result record (logs written before results joined
// them, degraded runs) is summary-only.
func (s *Server) restoreTerminal(rj recoveredJob, m *serveInstruments) {
	j := s.newJob(rj.hdr, nil)
	j.cancel()    // nothing will run; release the token immediately
	j.stopLease() // a coordinator's renewal must not re-arm a finished job
	j.state = rj.state
	j.log, j.rf = rj.log, rj.rf
	j.rf.seal() // terminal: frozen read-only, late appends no-op
	j.trace = newJobTrace(j.traceCtx.Trace, j.log, rj.spans)
	if rj.err != nil {
		j.err = rj.err
	}
	restoreProgress(j, rj.events)
	j.events.restore(rj.events)
	j.events.close()
	s.register(j, rj.hdr)
	m.recovered.With("terminal").Inc()
}

// resumeJob re-enqueues a non-terminal recovered job. The restored event
// history keeps its pre-crash sequence numbers (so Last-Event-ID replay spans
// the restart), then a fresh queued event marks the resumption; the re-run
// re-reports every point, completed ones as cache hits. Progress counters
// restart from zero — the re-run recounts. Returns false when the server is
// draining and the job could not be enqueued.
func (s *Server) resumeJob(rj recoveredJob, m *serveInstruments) bool {
	j := s.newJob(rj.hdr, s.root)
	// The log continues after its last intact record. The re-run re-reports
	// every point (pre-crash ones as cache hits); the result index dedups by
	// point, so records that landed before the crash stay exactly as first
	// written.
	j.log, j.rf = rj.log, rj.rf
	// The pre-crash timeline is reloaded and the same trace ID continues; a
	// resume marker records the restart itself — in-flight span trees died
	// unemitted with the old process, and this marker is what explains the
	// gap when reading the merged timeline.
	j.trace = newJobTrace(j.traceCtx.Trace, j.log, rj.spans)
	j.trace.Emit(obs.Event{Type: "resume", Name: "serve.job.resumed", StartNS: time.Now().UnixNano()})
	j.events.restore(rj.events)
	j.emit(Event{Type: "state", State: StateQueued}, false)
	s.register(j, rj.hdr)
	// The lease resumes with a full TTL window: the coordinator's renew loop
	// (or its own journal replay) has one whole period to find the restarted
	// worker before the job self-cancels.
	j.armLease()
	m.queueDepth.Add(1)
	select {
	case <-s.drainCh:
	default:
		if s.sched.resume(j, s.tenants.weight(j.tenant)) == nil {
			// The previous process admitted this job; re-claim its in-flight
			// slot (without charging the submit bucket) so quota accounting
			// survives the restart.
			s.tenants.restore(j.tenant)
			m.recovered.With("resumed").Inc()
			return true
		}
	}
	// Shutting down before this job could re-enter the queue: unregister
	// and keep its log on disk so the next start resumes it.
	j.cancel()
	j.log.close()
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

// newJob is the one job constructor: it builds a queued job from its journal
// header — the submit's own, or one read back by replay — under a cancel
// token derived from parent. A header's missing or invalid tenant (journals
// from before tenancy) folds into the default tenant, and a missing or
// malformed traceparent starts a fresh trace. The caller attaches the log,
// the result index and the trace.
func (s *Server) newJob(hdr jrecord, parent *budget.Token) *job {
	tok, cancel := budget.WithCancel(parent)
	j := &job{
		id:         hdr.ID,
		kind:       hdr.Kind,
		tenant:     hdr.Tenant,
		specs:      hdr.Specs,
		compose:    hdr.Compose,
		jobTimeout: time.Duration(hdr.TimeoutMS) * time.Millisecond,
		noCache:    hdr.NoCache,
		leaseTTL:   time.Duration(hdr.LeaseTTLMS) * time.Millisecond,
		tok:        tok,
		cancel:     cancel,
		events:     newEventLog(),
		idem:       hdr.Idem,
		traceCtx:   parseTraceCtx(hdr.Trace),
		state:      StateQueued,
		summaries:  make([]PointSummary, len(hdr.Specs)),
		units:      1,
	}
	if !validTenant(j.tenant) {
		j.tenant = DefaultTenant
	}
	if s.perPoint(len(j.specs)) {
		j.units = len(j.specs)
	}
	j.left.Store(int64(len(j.specs)))
	if j.compose != nil {
		// Compose legs feed buildConfig positionally; keep them index-ordered
		// whatever order they complete in.
		j.legs = make([]sweep.PointResult, len(j.specs))
	}
	return j
}

// register adds a recovered job to the server's tables (including the
// idempotency map, so a client retrying its submission after the crash gets
// the recovered job back, not a duplicate). The fingerprint is recomputed
// from the header rather than read from it, so a job journaled before a
// fingerprint change still matches its retried body.
func (s *Server) register(j *job, hdr jrecord) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if j.idem != "" {
		s.idem[j.idem] = idemEntry{id: j.id, fp: idemFingerprint(hdr)}
	}
	evicted := s.evictLocked()
	s.mu.Unlock()
	dropFiles(evicted)
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
