// Package faultinject is the chaos-testing harness of the phase-noise
// pipeline: a process-wide registry of named fault points that call sites in
// cache, serve, sweep and osc evaluate at well-chosen failure surfaces (disk
// I/O, model evaluation, request handling, journal writes). With no plan
// installed every evaluation is a nil-pointer fast path — one atomic load,
// zero allocations — so fault points are safe to leave on hot loops
// permanently, mirroring the internal/obs no-op pattern.
//
// A test (or an operator chasing a production bug) installs a Plan mapping
// point names to Specs:
//
//	defer faultinject.Enable(faultinject.Plan{
//	    faultinject.CacheDiskWrite: {Mode: faultinject.ModeError, After: 2},
//	    faultinject.OscEvalDelay:   {Mode: faultinject.ModeDelay, Delay: 5 * time.Millisecond, Prob: 0.25, Seed: 42},
//	})()
//
// Firing is deterministic: each point draws from its own PRNG seeded by
// Spec.Seed, and After/Count window the hits exactly, so a chaos test that
// fails replays identically. There are no build tags — the harness is always
// compiled in and costs nothing until enabled.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The fault-point inventory. Call sites reference these constants; chaos
// suites iterate Points() to prove every registered point is exercised.
const (
	// CacheDiskRead fires in the disk tier's get: a hit is treated as a read
	// error (miss + pn_cache_disk_errors_total).
	CacheDiskRead = "cache.disk.read"
	// CacheDiskWrite fires in the disk tier's put: the write is dropped as if
	// the filesystem failed it.
	CacheDiskWrite = "cache.disk.write"
	// OscEvalDelay delays registry-built models' Eval (ModeDelay) — the knob
	// for simulating slow models against deadlines and abandon grace.
	OscEvalDelay = "osc.eval.delay"
	// OscEvalNaN poisons one component of registry-built models' Eval output
	// with NaN, exercising the integrators' non-finite bail-out.
	OscEvalNaN = "osc.eval.nan"
	// OscEvalPanic panics inside registry-built models' Eval, exercising the
	// sweep engine's panic isolation.
	OscEvalPanic = "osc.eval.panic"
	// ServeHandlerLatency delays (ModeDelay) or fails with 500 (ModeError)
	// the job server's API handlers before any work happens.
	ServeHandlerLatency = "serve.handler.latency"
	// ServeJournalWrite fails job-journal appends: the record is dropped and
	// counted, the job itself keeps running (durability degrades, service
	// does not).
	ServeJournalWrite = "serve.journal.write"
	// ServeReplayDelay delays journal replay on server start, widening the
	// not-yet-ready window that /readyz reports 503 for.
	ServeReplayDelay = "serve.replay.delay"
	// SweepAttempt fails a sweep attempt at its start, before the pipeline
	// runs — the knob for driving the retry ladder and per-point failure
	// accounting without a hostile model.
	SweepAttempt = "sweep.attempt"
	// ClusterLeaseDispatch fails a lease submission in the cluster
	// coordinator before the HTTP request goes out — the knob for driving
	// worker selection fallback and circuit-breaker accounting.
	ClusterLeaseDispatch = "cluster.lease.dispatch"
	// ClusterWorkerKill severs the coordinator's event stream from a worker
	// mid-lease, as if the worker process died: the watch aborts, the lease
	// stops heartbeating, and expiry must reassign it.
	ClusterWorkerKill = "cluster.worker.kill"
	// ClusterHeartbeatDrop drops a lease renewal in the coordinator: the
	// renew call is skipped as if lost to the network, so a healthy worker
	// looks partitioned and the lease TTL runs out.
	ClusterHeartbeatDrop = "cluster.heartbeat.drop"
	// ClusterTraceIngest fails the coordinator's worker trace pull on lease
	// settle: the span batch is lost, the job's timeline shows a gap, and the
	// job itself must settle normally — trace shipping is observability, never
	// a correctness dependency.
	ClusterTraceIngest = "cluster.trace.ingest"
	// PnclientHTTP fails one pnclient HTTP attempt before it reaches the
	// transport — a deterministic stand-in for connection refused/reset,
	// exercising the retry ladder and the callers' failover paths.
	PnclientHTTP = "pnclient.http"
	// PllCompose fires at the entry of the PLL composition engine
	// (pll.Compose): the composition fails as infrastructure after its
	// oscillator legs already characterised, exercising the compose job
	// kind's failure accounting without touching the pipeline or the cache.
	PllCompose = "pll.compose"
	// ServeResultsWrite fails a spill append in the job server's result
	// store, as if the disk filled mid-sweep: the job degrades to
	// summary-only from that point on, already-spilled frames stay
	// readable, and the job itself still settles normally.
	ServeResultsWrite = "serve.results.write"
	// ServeResultsRead fails a frame read from the result store: the
	// affected retrieval (a results page, a JSONL stream) reports the gap,
	// the store itself stays healthy.
	ServeResultsRead = "serve.results.read"
	// ServeQuotaCheck fires inside tenant admission before any quota state
	// changes: ModeError rejects the submission with 429 as if the tenant
	// were over quota, ModeDelay simulates a slow admission path.
	ServeQuotaCheck = "serve.quota.check"
)

// points is the registered inventory, sorted for stable iteration.
var points = []string{
	CacheDiskRead,
	CacheDiskWrite,
	ClusterHeartbeatDrop,
	ClusterLeaseDispatch,
	ClusterTraceIngest,
	ClusterWorkerKill,
	OscEvalDelay,
	OscEvalNaN,
	OscEvalPanic,
	PllCompose,
	PnclientHTTP,
	ServeHandlerLatency,
	ServeJournalWrite,
	ServeQuotaCheck,
	ServeReplayDelay,
	ServeResultsRead,
	ServeResultsWrite,
	SweepAttempt,
}

// Points returns the registered fault-point names, sorted. Chaos suites use
// it to assert coverage of the whole inventory.
func Points() []string {
	out := make([]string, len(points))
	copy(out, points)
	sort.Strings(out)
	return out
}

// ErrInjected is the sentinel wrapped by every error this package injects.
// Branch with errors.Is; recover the point name with errors.As into
// *InjectedError.
var ErrInjected = errors.New("faultinject: injected fault")

// InjectedError is the concrete injected failure, naming its fault point.
type InjectedError struct {
	Point string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %q", e.Point)
}

// Is reports target == ErrInjected so the sentinel matches through wraps.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Mode says what a firing point does.
type Mode int

const (
	// ModeError makes Fire return an *InjectedError. Call sites decide what
	// the error means (a failed write, a poisoned value, ...).
	ModeError Mode = iota
	// ModeDelay makes Fire sleep Spec.Delay, then return nil — the work
	// proceeds, late.
	ModeDelay
	// ModePanic makes Fire panic with an *InjectedError, exercising recovery
	// paths.
	ModePanic
)

// Spec configures one fault point. The zero value fires an error on every
// hit.
type Spec struct {
	Mode Mode
	// Delay is the sleep applied in ModeDelay (and, when > 0, before an
	// injected error or panic — a slow failure).
	Delay time.Duration
	// Prob is the per-hit firing probability in (0, 1]; 0 means 1 (always).
	// Draws come from a PRNG seeded with Seed, so runs replay identically.
	Prob float64
	// Seed seeds the point's PRNG when Prob < 1 (0 is a valid seed).
	Seed int64
	// After skips the first After hits before the point may fire.
	After int
	// Count caps how many times the point fires (0 = unlimited).
	Count int
}

// pointState is one active point's spec plus its firing state.
type pointState struct {
	spec  Spec
	mu    sync.Mutex
	rng   *rand.Rand
	hits  int64
	fired int64
}

// plan is an installed set of active points.
type plan struct {
	points map[string]*pointState
}

// active holds the installed plan; nil means the harness is off and every
// Fire is a no-op.
var active atomic.Pointer[plan]

// Plan maps fault-point names to their activation Specs.
type Plan map[string]Spec

// Enable installs p, replacing any previous plan, and returns a function that
// disables the harness again (handy as `defer Enable(...)()` in tests).
// Unknown point names are accepted — a plan may target points added later —
// but they never fire anything.
func Enable(p Plan) func() {
	ps := make(map[string]*pointState, len(p))
	for name, spec := range p {
		st := &pointState{spec: spec}
		if spec.Prob > 0 && spec.Prob < 1 {
			st.rng = rand.New(rand.NewSource(spec.Seed))
		}
		ps[name] = st
	}
	active.Store(&plan{points: ps})
	return Disable
}

// Disable removes the installed plan; every Fire returns to the free no-op
// path.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is installed.
func Enabled() bool { return active.Load() != nil }

// Fire evaluates the named fault point. With no plan installed (the
// production state) it returns nil after one atomic load and no allocation.
// When the point is active and fires: ModeError returns an *InjectedError,
// ModeDelay sleeps and returns nil, ModePanic panics. A non-nil return always
// wraps ErrInjected.
func Fire(name string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fire(name)
}

func (p *plan) fire(name string) error {
	st, ok := p.points[name]
	if !ok {
		return nil
	}
	if !st.roll() {
		return nil
	}
	if st.spec.Delay > 0 {
		time.Sleep(st.spec.Delay)
	}
	switch st.spec.Mode {
	case ModeDelay:
		return nil
	case ModePanic:
		panic(&InjectedError{Point: name})
	default:
		return &InjectedError{Point: name}
	}
}

// roll decides whether this hit fires, applying After/Count windows and the
// seeded probability draw.
func (st *pointState) roll() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hits++
	if st.hits <= int64(st.spec.After) {
		return false
	}
	if st.spec.Count > 0 && st.fired >= int64(st.spec.Count) {
		return false
	}
	if st.rng != nil && st.rng.Float64() >= st.spec.Prob {
		return false
	}
	st.fired++
	return true
}

// Stat is one point's evaluation record under the current plan.
type Stat struct {
	Hits  int64 // times the point was evaluated
	Fired int64 // times it actually fired
}

// Stats returns the per-point evaluation counts of the installed plan (nil
// when disabled). Chaos suites use it to assert a point really fired.
func Stats() map[string]Stat {
	p := active.Load()
	if p == nil {
		return nil
	}
	out := make(map[string]Stat, len(p.points))
	for name, st := range p.points {
		st.mu.Lock()
		out[name] = Stat{Hits: st.hits, Fired: st.fired}
		st.mu.Unlock()
	}
	return out
}
