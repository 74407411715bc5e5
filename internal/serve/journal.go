package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/sweep"
	"repro/internal/wal"
)

// The job journal is the server's write-ahead durability layer: one
// append-only log (internal/wal) per job under Config.JournalDir, <id>.wal,
// kept for the job's whole life. The first record is the job header
// (everything needed to re-create the job as pure data — kind, specs, knobs,
// idempotency fingerprint); every following record is one progress event
// exactly as a subscriber saw it (state transitions and per-point summaries,
// with their sequence numbers).
//
// The header and the terminal event are synced; the events in between are
// best-effort — a lost tail costs progress replay, never correctness,
// because completed points live in the content-addressed result cache. A
// synced terminal event is what marks a finished job.
//
// On restart, replay walks the directory: a journal ending in a terminal
// event restores a queryable finished job; any other restores the event
// history and re-enqueues the job — already-computed points come back as
// cache hits, only unfinished points recompute. Opening a log cuts a torn
// tail (the normal crash artifact) before anything is appended after it; a
// journal without a usable header is quarantined to <name>.corrupt instead
// of wedging startup.
const walExt = ".wal"

// journalSchemaVersion guards the record schema like the cache's disk
// envelope: records from a different version are ignored on replay.
const journalSchemaVersion = 1

// jrecord is one record of a job journal.
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

// jobFile is the one path guard for a job's files: it maps a job ID to its
// log under dir, or "" when dir is unset or the ID could step out of it
// (only the server mints IDs, but replayed headers are data).
func jobFile(dir, id string) string {
	if dir == "" || id == "" || len(id) > 64 || strings.ContainsAny(id, `/\.`) {
		return ""
	}
	return filepath.Join(dir, id+walExt)
}

// traceSubdir is the journal subdirectory holding per-job trace logs; it
// keeps them out of the journal replay walk.
const traceSubdir = "traces"

// journal manages the journal directory of one Server.
type journal struct {
	dir string
}

// openJournal prepares the directory (and its traces subdirectory) and
// returns the highest job sequence number found in any file name there, so
// the server continues its ID space past every job that left a file behind.
func openJournal(dir string) (*journal, int64, error) {
	if err := os.MkdirAll(filepath.Join(dir, traceSubdir), 0o755); err != nil {
		return nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
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
	return &journal{dir: dir}, maxSeq, nil
}

// tracePath is the trace log of a job ("" when journalling is off).
func (jl *journal) tracePath(id string) string {
	if jl == nil {
		return ""
	}
	return jobFile(filepath.Join(jl.dir, traceSubdir), id)
}

// jobJournal is the append handle of one job's journal. Methods are
// serialised by mu; every write failure (real or injected) is counted and
// swallowed — durability degrades, the job itself keeps running.
type jobJournal struct {
	jl *journal
	id string

	mu        sync.Mutex
	log       *wal.Log
	finalized bool
}

// create opens a fresh journal, writes the header record and syncs it, so an
// accepted job survives a crash from the moment the 202 goes out. A nil
// *journal (journalling off) returns a nil handle, on which every method is a
// no-op.
func (jl *journal) create(hdr jrecord) *jobJournal {
	if jl == nil {
		return nil
	}
	if faultinject.Fire(faultinject.ServeJournalWrite) != nil {
		serveMetrics.Get().journalErrors.Inc()
		return nil
	}
	jj := jl.open(hdr.ID)
	if jj == nil {
		return nil
	}
	hdr.V = journalSchemaVersion
	hdr.T = "accepted"
	if !jj.writeLocked(hdr, true) {
		_ = jj.log.Close()
		return nil
	}
	return jj
}

// open opens a job's journal for appending, creating it if need be. A
// recovered job continues the log replay read, after its torn tail (if any)
// has been cut.
func (jl *journal) open(id string) *jobJournal {
	if jl == nil {
		return nil
	}
	p := jobFile(jl.dir, id)
	if p == "" {
		serveMetrics.Get().journalErrors.Inc()
		return nil
	}
	log, _, err := wal.Open(p, nil)
	if err != nil {
		serveMetrics.Get().journalErrors.Inc()
		return nil
	}
	return &jobJournal{jl: jl, id: id, log: log}
}

// event appends one progress event. A terminal event is synced and closes
// the journal; intermediate events are best-effort (a sync per point would
// put a disk round-trip on the sweep hot path for durability the result
// cache already provides).
func (jj *jobJournal) event(ev Event, terminal bool) {
	if jj == nil {
		return
	}
	jj.mu.Lock()
	defer jj.mu.Unlock()
	if jj.finalized {
		return
	}
	if faultinject.Fire(faultinject.ServeJournalWrite) != nil {
		serveMetrics.Get().journalErrors.Inc()
	} else {
		jj.writeLocked(jrecord{V: journalSchemaVersion, T: "event", Ev: &ev}, terminal)
	}
	if terminal {
		jj.finalized = true
		_ = jj.log.Close()
	}
}

// writeLocked marshals and appends one record, optionally syncing it to
// stable storage. Callers hold jj.mu (or own jj exclusively).
func (jj *jobJournal) writeLocked(rec jrecord, sync bool) bool {
	m := serveMetrics.Get()
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = jj.log.Append(data)
	}
	if err == nil && sync {
		err = jj.log.Sync()
	}
	if err != nil {
		m.journalErrors.Inc()
		return false
	}
	m.journalWrites.Inc()
	return true
}

// discard closes the handle and deletes the file — for a job journaled but
// never enqueued (queue-full rejection lands after the header write).
func (jj *jobJournal) discard() {
	if jj == nil {
		return
	}
	jj.mu.Lock()
	if !jj.finalized {
		jj.finalized = true
		_ = jj.log.Close()
	}
	jj.mu.Unlock()
	jj.jl.remove(jj.id)
}

// remove deletes a job's journal (called when the retention bound evicts a
// terminal job, so the directory does not grow without bound).
func (jl *journal) remove(id string) {
	if jl != nil {
		removeJobFile(jobFile(jl.dir, id))
	}
}

// removeJobFile deletes one job file, counting failures other than absence.
func removeJobFile(p string) {
	if p == "" {
		return
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		serveMetrics.Get().journalErrors.Inc()
	}
}

// recoveredJob is one job reconstructed from its journal during replay.
type recoveredJob struct {
	hdr      jrecord
	events   []Event
	state    string             // last journaled state (StateQueued when none)
	err      *sweep.RemoteError // terminal error, when journaled
	terminal bool
}

// replay reads every journal in the directory and reconstructs its job.
// Corrupt records are skipped (counted); journals without a usable header
// are quarantined. The returned jobs are sorted by numeric ID so re-enqueue
// order matches original submission order.
func (jl *journal) replay() []recoveredJob {
	if jl == nil {
		return nil
	}
	m := serveMetrics.Get()
	ents, err := os.ReadDir(jl.dir)
	if err != nil {
		m.journalErrors.Inc()
		return nil
	}
	var out []recoveredJob
	for _, e := range ents {
		id, ok := strings.CutSuffix(e.Name(), walExt)
		if !ok {
			continue
		}
		rj, ok := jl.replayFile(id)
		if !ok {
			// No usable header: quarantine so the next start is clean and the
			// operator can inspect the file.
			m.replayCorrupt.Inc()
			p := filepath.Join(jl.dir, e.Name())
			_ = os.Rename(p, p+".corrupt")
			continue
		}
		out = append(out, rj)
	}
	sortRecovered(out)
	return out
}

// replayFile reads the journal of job id, cutting a torn tail. It returns
// ok=false only when the header is unusable; a bad event record is skipped,
// and so is every event after a gap in the sequence or after the terminal
// event.
func (jl *journal) replayFile(id string) (rj recoveredJob, ok bool) {
	m := serveMetrics.Get()
	p := jobFile(jl.dir, id)
	if p == "" {
		return rj, false
	}
	rj.state = StateQueued
	bad := false
	log, cut, err := wal.Open(p, func(_ int64, data []byte) {
		var rec jrecord
		switch err := json.Unmarshal(data, &rec); {
		case bad:
		case err != nil || rec.V != journalSchemaVersion:
			m.replayCorrupt.Inc()
			bad = !ok // a corrupt header condemns the file
		case !ok:
			if rec.T != "accepted" || rec.ID != id || (len(rec.Specs) == 0 && rec.Compose == nil) {
				bad = true
				return
			}
			rj.hdr, ok = rec, true
		// Sequence numbers must stay a contiguous 1..n prefix for SSE
		// replay; a gap means lost records, so the restored history stops
		// there, as it does at the terminal event.
		case rec.T != "event" || rec.Ev == nil || rec.Ev.Seq != int64(len(rj.events))+1 || rj.terminal:
			m.replayCorrupt.Inc()
		default:
			rj.events = append(rj.events, *rec.Ev)
			if rec.Ev.Type == "state" {
				rj.state = rec.Ev.State
				if rec.Ev.State == StateDone || rec.Ev.State == StateFailed || rec.Ev.State == StateCanceled {
					rj.terminal = true
					rj.err = rec.Ev.Error
				}
			}
		}
	})
	if err != nil {
		m.journalErrors.Inc()
		return rj, false
	}
	_ = log.Close()
	if cut > 0 {
		m.replayCorrupt.Inc()
	}
	return rj, ok && !bad
}

// sortRecovered orders jobs by their numeric ID (j1, j2, ...) so recovery
// re-enqueues in original submission order; non-numeric IDs sort last,
// lexicographically.
func sortRecovered(jobs []recoveredJob) {
	num := func(id string) int64 {
		n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
		if err != nil {
			return 1<<63 - 1
		}
		return n
	}
	for i := 1; i < len(jobs); i++ {
		for j := i; j > 0; j-- {
			a, b := jobs[j-1], jobs[j]
			if num(a.hdr.ID) < num(b.hdr.ID) || (num(a.hdr.ID) == num(b.hdr.ID) && a.hdr.ID <= b.hdr.ID) {
				break
			}
			jobs[j-1], jobs[j] = b, a
		}
	}
}
