package serve

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// The job trace is the distributed timeline of a job: every job owns a
// bounded buffer of completed span events — its own (the serve.job root span
// and the whole sweep subtree under it) plus events ingested from worker
// nodes via the coordinator's trace pull. Each event is also appended to the
// job's log (journal.go) as a span record as it arrives (never synced: a
// SIGKILL loses nothing the OS already has, and the buffer is the primary
// copy while the process lives), so a restarted coordinator still serves the
// pre-crash timeline.

// defaultTraceCap bounds a job's in-memory (and on-disk) trace buffer.
const defaultTraceCap = 4096

// procID identifies this process in multi-process traces.
var procID = func() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	return host + ":" + strconv.Itoa(os.Getpid())
}()

// jobTrace collects one job's distributed timeline. It implements
// obs.Emitter for locally produced spans; worker-shipped batches arrive
// through ingest. Events are deduplicated by (proc, span) — a coordinator
// restart re-pulls worker traces, and re-dispatched leases dedup onto the
// same worker job — and the buffer is capped: once full, new events are
// dropped and counted rather than growing without bound.
type jobTrace struct {
	trace string  // trace ID stamped on locally emitted events
	log   *jobLog // nil: memory-only

	mu      sync.Mutex
	evs     []obs.Event
	seen    map[string]struct{}
	dropped int
	cap     int
}

// parseTraceCtx reads a job's span context from a traceparent string (the
// submit's header, or the journalled copy); an absent or malformed one —
// pre-trace journals, untraced clients — gets a fresh trace ID so the job
// still has a coherent timeline.
func parseTraceCtx(traceparent string) obs.SpanContext {
	if sc, ok := obs.ParseTraceparent(traceparent); ok {
		return sc
	}
	return obs.SpanContext{Trace: obs.NewTraceID()}
}

// newJobTrace starts a job's timeline, written to the job's log as it grows
// (nil: memory-only). restored is a recovered job's pre-crash timeline, read
// back from the log by replay, so a restarted coordinator keeps extending
// the same trace.
func newJobTrace(traceID string, log *jobLog, restored []obs.Event) *jobTrace {
	t := &jobTrace{trace: traceID, log: log, seen: make(map[string]struct{}), cap: defaultTraceCap}
	for _, ev := range restored {
		t.restore(ev)
	}
	return t
}

// dedupKey identifies an event across re-ingests. Span 0 (marker events)
// falls back to the start timestamp so distinct markers are not collapsed.
func dedupKey(ev obs.Event) string {
	if ev.Span != 0 {
		return ev.Proc + "|" + strconv.FormatUint(ev.Span, 16)
	}
	return ev.Proc + "|" + ev.Name + "@" + strconv.FormatInt(ev.StartNS, 10)
}

// Emit implements obs.Emitter for locally produced spans: stamp this
// process's identity and the job's trace ID, then record.
func (t *jobTrace) Emit(ev obs.Event) {
	if t == nil {
		return
	}
	if ev.Proc == "" {
		ev.Proc = procID
	}
	if ev.Trace == "" {
		ev.Trace = t.trace
	}
	t.record(ev, true)
}

// ingest folds a batch of events into the timeline, preserving Proc/Trace
// stamps where present. Events without a Proc (coordinator-side flight dumps
// and markers) were produced in this process and are stamped accordingly, so
// their dedup keys match any live-emitted copies of the same spans.
func (t *jobTrace) ingest(evs []obs.Event) {
	if t == nil {
		return
	}
	m := serveMetrics.Get()
	for _, ev := range evs {
		if ev.Proc == "" {
			ev.Proc = procID
		}
		if ev.Trace == "" {
			ev.Trace = t.trace
		}
		if t.record(ev, false) {
			m.traceIngested.Inc()
		}
	}
}

// restore re-adds an event read back from the job's log: dedup and buffer
// only, never re-written to disk.
func (t *jobTrace) restore(ev obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := dedupKey(ev)
	if _, dup := t.seen[key]; dup || len(t.evs) >= t.cap {
		return
	}
	t.seen[key] = struct{}{}
	t.evs = append(t.evs, ev)
}

// record dedups, buffers, counts, and appends to the job's log. Returns
// whether the event was kept.
func (t *jobTrace) record(ev obs.Event, local bool) bool {
	m := serveMetrics.Get()
	t.mu.Lock()
	key := dedupKey(ev)
	if _, dup := t.seen[key]; dup {
		t.mu.Unlock()
		return false
	}
	if len(t.evs) >= t.cap {
		t.dropped++
		t.mu.Unlock()
		m.traceDropped.Inc()
		return false
	}
	t.seen[key] = struct{}{}
	t.evs = append(t.evs, ev)
	var rec []byte
	if t.log != nil {
		rec, _ = json.Marshal(ev)
	}
	t.mu.Unlock()
	if local {
		m.traceSpans.Inc()
	}
	if rec != nil {
		t.log.span(rec)
	}
	return true
}

// snapshot copies the timeline (and the drop count) for the API.
func (t *jobTrace) snapshot() ([]obs.Event, int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]obs.Event(nil), t.evs...), t.dropped
}

// renderTrace builds the API view: the raw timeline plus per-stage and
// per-process latency rollups (markers — flight dumps, resume records — are
// listed but not aggregated).
func renderTrace(jobID string, trace string, evs []obs.Event, dropped int) JobTrace {
	jt := JobTrace{JobID: jobID, TraceID: trace, Spans: evs, Dropped: dropped}
	stageIdx := map[string]int{}
	procIdx := map[string]int{}
	for _, ev := range evs {
		if ev.Type != "span" {
			continue
		}
		ms := float64(ev.DurNS) / 1e6
		si, ok := stageIdx[ev.Name]
		if !ok {
			si = len(jt.Stages)
			stageIdx[ev.Name] = si
			jt.Stages = append(jt.Stages, TraceStage{Name: ev.Name})
		}
		st := &jt.Stages[si]
		st.Count++
		st.TotalMS += ms
		if ms > st.MaxMS {
			st.MaxMS = ms
		}
		pi, ok := procIdx[ev.Proc]
		if !ok {
			pi = len(jt.Procs)
			procIdx[ev.Proc] = pi
			jt.Procs = append(jt.Procs, TraceProc{Proc: ev.Proc})
		}
		jt.Procs[pi].Spans++
		jt.Procs[pi].TotalMS += ms
	}
	return jt
}
