package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/wal"
)

// The job log is the one file a job owns: an append-only internal/wal log,
// <dir>/<id>.wal, kept for the job's whole life and deleted at eviction.
// dir is Config.JournalDir, or a private temp directory without one. It
// holds four kinds of record:
//
//   - the header, first: everything needed to re-create the job as pure
//     data — kind, specs, knobs, idempotency fingerprint;
//   - events: every progress event exactly as a subscriber saw it (state
//     transitions and per-point summaries, with their sequence numbers);
//   - spans: the job's trace timeline (trace.go);
//   - results: the spilled loss-free point results (results.go).
//
// Header and event records are jrecord JSON, so they open with '{'. Span
// and result records open with a kind byte that no JSON text starts with,
// followed by the bytes a trace file and a spill file held before the four
// were one log.
//
// With a journal directory the header is synced before the 202 goes out,
// and the terminal event is synced: every result is spilled before it, so
// that one sync makes the results durable too. Everything in between is
// best-effort — a lost tail costs progress replay, never correctness,
// because completed points live in the content-addressed result cache. A
// synced terminal event is what marks a finished job. Without a journal
// directory nothing is synced and nothing is replayed: the temp directory
// dies with the process, like its jobs.
//
// On restart, replay reads each log once: a log ending in a terminal event
// restores a queryable finished job with its timeline and results; any
// other restores the event history and timeline and re-enqueues the job —
// already-computed points come back as cache hits, only unfinished points
// recompute. Opening a log cuts a torn tail (the normal crash artifact)
// before anything is appended after it. A job whose header cannot be
// written gets no file and runs summary-only, so only a crash inside the
// header write leaves a log without a usable header; replay quarantines it
// to <name>.corrupt instead of wedging startup.
const walExt = ".wal"

// journalSchemaVersion guards the record schema like the cache's disk
// envelope: records from a different version are ignored on replay.
const journalSchemaVersion = 1

// The kind bytes of span and result records.
const (
	kindSpan   = 0x01 // then the obs.Event's JSON
	kindResult = 0x02 // then the 4-byte point index and the record's body
)

var spanKind = []byte{kindSpan}

// jrecord is a header or event record of a job log.
type jrecord struct {
	V int    `json:"v"`
	T string `json:"t"` // "accepted" or "event"
	// Header fields (T == "accepted").
	ID         string      `json:"id,omitempty"`
	Kind       string      `json:"kind,omitempty"`
	Specs      []PointSpec `json:"specs,omitempty"`
	TimeoutMS  int64       `json:"timeout_ms,omitempty"`
	NoCache    bool        `json:"no_cache,omitempty"`
	LeaseTTLMS int64       `json:"lease_ttl_ms,omitempty"` // lease window; resumed jobs re-arm it
	Tenant     string      `json:"tenant,omitempty"`       // admission identity; recovery restores the in-flight slot
	Idem       string      `json:"idem,omitempty"`         // client Idempotency-Key, verbatim
	IdemFP     string      `json:"idem_fp,omitempty"`      // request-body fingerprint under that key
	Trace      string      `json:"trace,omitempty"`        // traceparent at submit; restarts keep the trace ID
	// Compose is the composition request of a "compose" job; a recovered job
	// re-runs the composition after its legs resolve (as cache hits).
	Compose *ComposeRequest `json:"compose,omitempty"`
	// Event field (T == "event").
	Ev *Event `json:"ev,omitempty"`
}

// jobFile is the one path guard for a job's log: it maps a job ID to its
// file under dir, or "" when the ID could step out of it (only the server
// mints IDs, but replayed headers are data).
func jobFile(dir, id string) string {
	if id == "" || len(id) > 64 || strings.ContainsAny(id, `/\.`) {
		return ""
	}
	return filepath.Join(dir, id+walExt)
}

// journal owns the directory of one Server's job logs and the payload blobs
// their result records may name (blobs.go, under <dir>/blobs).
type journal struct {
	dir     string
	durable bool       // Config.JournalDir: logs are synced and replayed; else a temp dir, removed at close
	blobs   *blobStore // nil: every result record is inline
}

// openJournal prepares dir — a private temp directory when dir is "" — and
// returns the highest job sequence number found in any file name there, so
// the server continues its ID space past every job that left a file behind.
func openJournal(dir string) (*journal, int64, error) {
	jl := &journal{dir: dir, durable: dir != ""}
	var err error
	if jl.durable {
		err = os.MkdirAll(dir, 0o755)
	} else {
		jl.dir, err = os.MkdirTemp("", "pnserve-journal-")
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	ents, err := os.ReadDir(jl.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	var maxSeq int64
	for _, e := range ents {
		id, _, _ := strings.Cut(e.Name(), ".")
		if n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	jl.blobs = newBlobStore(filepath.Join(jl.dir, blobSubdir))
	return jl, maxSeq, nil
}

// close removes a temp directory; a journal directory stays.
func (jl *journal) close() {
	if jl != nil && !jl.durable {
		os.RemoveAll(jl.dir)
	}
}

// errLogClosed is what an append to a closed log returns: a late span of an
// evicted job, or the terminal event of a job evicted the moment it went
// terminal, has no file to go to, and that is no write failure.
var errLogClosed = errors.New("serve: job log closed")

// jobLog is one job's log. Every write failure (real or injected) is
// counted and swallowed — durability degrades, the job itself keeps
// running. A nil *jobLog (no file) takes no records.
type jobLog struct {
	jl   *journal
	f    *wal.Log
	path string

	mu        sync.Mutex
	finalized bool // the terminal event is written: later events are dropped
	closed    bool // evicted, or left for the next start: appends are dropped
}

// create opens a fresh log and writes the header record, syncing it with a
// journal directory, so an accepted job survives a crash from the moment
// the 202 goes out. A job whose header cannot be written gets no file (nil):
// it runs summary-only, with its events and timeline in memory.
func (jl *journal) create(hdr jrecord) *jobLog {
	if jl == nil {
		return nil
	}
	m := serveMetrics.Get()
	p := jobFile(jl.dir, hdr.ID)
	var l *jobLog
	if p != "" && faultinject.Fire(faultinject.ServeJournalWrite) == nil {
		if f, _, err := wal.Open(p, nil); err == nil {
			l = &jobLog{jl: jl, f: f, path: p}
		}
	}
	hdr.V, hdr.T = journalSchemaVersion, "accepted"
	if l == nil {
		m.journalErrors.Inc()
	} else if !l.write(hdr, jl.durable) {
		l.remove() // no log may outlive its header write: replay would meet it headerless
		l = nil
	}
	if l == nil {
		m.resultDegraded.Inc()
	}
	return l
}

// event appends one progress event. The terminal event is synced with a
// journal directory and is the last event the log takes; intermediate
// events are best-effort (a sync per point would put a disk round-trip on
// the sweep hot path for durability the result cache already provides).
func (l *jobLog) event(ev Event, terminal bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	done := l.finalized
	l.finalized = done || terminal
	l.mu.Unlock()
	if done {
		return
	}
	if faultinject.Fire(faultinject.ServeJournalWrite) != nil {
		serveMetrics.Get().journalErrors.Inc()
		return
	}
	l.write(jrecord{V: journalSchemaVersion, T: "event", Ev: &ev}, terminal && l.jl.durable)
}

// write marshals and appends one JSON record, optionally syncing the log up
// to it.
func (l *jobLog) write(rec jrecord, sync bool) bool {
	m := serveMetrics.Get()
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = l.append(sync, data)
	}
	if err != nil {
		if err != errLogClosed {
			m.journalErrors.Inc()
		}
		return false
	}
	m.journalWrites.Inc()
	return true
}

// span appends one span record: the kind byte and the event's JSON. Spans
// are never synced — the timeline is an observability artifact, not a
// durability promise.
func (l *jobLog) span(rec []byte) {
	if _, err := l.append(false, spanKind, rec); err != nil && err != errLogClosed {
		serveMetrics.Get().journalErrors.Inc()
	}
}

// append writes one record through to the OS unless the log is closed and,
// with sync, makes the log durable up to it.
func (l *jobLog) append(sync bool, parts ...[]byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errLogClosed
	}
	off, err := l.f.Append(parts...)
	if err == nil && sync {
		err = l.f.Sync()
	}
	return off, err
}

// close releases the descriptor; the file stays, for the next start.
func (l *jobLog) close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		_ = l.f.Close()
	}
}

// remove closes the log and deletes its file: eviction, a submission the
// queue turned away, or a header that could not be written.
func (l *jobLog) remove() {
	if l == nil {
		return
	}
	l.close()
	if err := os.Remove(l.path); err != nil && !os.IsNotExist(err) {
		serveMetrics.Get().journalErrors.Inc()
	}
}

// recoveredJob is one job read back from its log during replay.
type recoveredJob struct {
	hdr      jrecord
	events   []Event
	spans    []obs.Event
	state    string             // last journaled state (StateQueued when none)
	err      *sweep.RemoteError // terminal error, when journaled
	terminal bool
	log      *jobLog     // open for the job: appends continue after the last intact record
	rf       *resultFile // the result records' index; nil for a finished job with none
}

// logIDs lists the job IDs of the logs in the directory in submission
// order: by numeric ID (j1, j2, ...), non-numeric IDs last,
// lexicographically.
func (jl *journal) logIDs() []string {
	ents, err := os.ReadDir(jl.dir)
	if err != nil {
		serveMetrics.Get().journalErrors.Inc()
		return nil
	}
	var ids []string
	for _, e := range ents {
		if id, ok := strings.CutSuffix(e.Name(), walExt); ok {
			ids = append(ids, id)
		}
	}
	num := func(id string) int64 {
		n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
		if err != nil {
			return 1<<63 - 1
		}
		return n
	}
	slices.SortFunc(ids, func(a, b string) int {
		return cmp.Or(cmp.Compare(num(a), num(b)), strings.Compare(a, b))
	})
	return ids
}

// recover reads the log of job id once, cutting a torn tail, and rebuilds
// the header, the event history, the timeline and the result index; the log
// stays open for the job. A bad event record is skipped, and so is every
// event after a gap in the sequence or after the terminal event; a bad span
// record is skipped. ok is false only when the header is unusable: the file
// is then quarantined so the next start is clean and the operator can
// inspect it.
func (jl *journal) recover(id string) (rj recoveredJob, ok bool) {
	m := serveMetrics.Get()
	p := jobFile(jl.dir, id)
	if p == "" {
		return rj, false
	}
	rj.state = StateQueued
	l := &jobLog{jl: jl, path: p}
	bad := false
	f, cut, err := wal.Open(p, func(off int64, rec []byte) {
		switch {
		case bad:
		case !ok:
			ok = rj.readHeader(rec, id)
			bad = !ok
			if ok {
				rj.rf = newResultFile(l, len(rj.hdr.Specs))
			}
		case rec[0] == kindSpan:
			var ev obs.Event
			if json.Unmarshal(rec[1:], &ev) == nil {
				rj.spans = append(rj.spans, ev)
			}
		case rec[0] == kindResult:
			rj.rf.adopt(off, rec[1:])
		default:
			rj.readEvent(rec)
		}
	})
	if err != nil {
		m.journalErrors.Inc()
		rj.rf.release()
		ok = false
	} else if cut > 0 {
		m.replayCorrupt.Inc()
	}
	l.f, l.finalized = f, rj.terminal
	if !ok {
		if f != nil {
			l.close()
		}
		m.replayCorrupt.Inc()
		_ = os.Rename(p, p+".corrupt")
		return recoveredJob{}, false
	}
	rj.log = l
	if rf := rj.rf; rf != nil && rf.degraded {
		m.resultDegraded.Inc()
	} else if rf != nil && rj.terminal && rf.n == 0 {
		rj.rf = nil // a finished job with no result record serves summaries only
	}
	return rj, true
}

// readHeader reads the log's first record, which must be the header of job
// id.
func (rj *recoveredJob) readHeader(data []byte, id string) bool {
	var rec jrecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.V != journalSchemaVersion {
		serveMetrics.Get().replayCorrupt.Inc()
		return false
	}
	if rec.T != "accepted" || rec.ID != id || (len(rec.Specs) == 0 && rec.Compose == nil) {
		return false
	}
	rj.hdr = rec
	return true
}

// readEvent folds one event record into the restored history. Sequence
// numbers must stay a contiguous 1..n prefix for SSE replay; a gap means
// lost records, so the history stops there, as it does at the terminal
// event.
func (rj *recoveredJob) readEvent(data []byte) {
	var rec jrecord
	err := json.Unmarshal(data, &rec)
	if err != nil || rec.V != journalSchemaVersion || rec.T != "event" || rec.Ev == nil || rec.Ev.Seq != int64(len(rj.events))+1 || rj.terminal {
		serveMetrics.Get().replayCorrupt.Inc()
		return
	}
	rj.events = append(rj.events, *rec.Ev)
	if rec.Ev.Type == "state" {
		rj.state = rec.Ev.State
		if rec.Ev.State == StateDone || rec.Ev.State == StateFailed || rec.Ev.State == StateCanceled {
			rj.terminal = true
			rj.err = rec.Ev.Error
		}
	}
}
