package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/serve"
	"repro/internal/wal"
)

// lease is one unit of work handed to a worker: a contiguous chunk of the
// job's points that all route to the same ring primary. The coordinator owns
// the lease record; the worker only sees a plain sweep job whose
// LeaseTTLMS obliges the coordinator to keep heartbeating it.
type lease struct {
	id      int
	indices []int             // global point indices, in job order
	specs   []serve.PointSpec // the points, index-aligned with indices
	key     string            // routing key (the first point's fingerprint)
	attempt int               // dispatch attempt; part of the idempotency key
	worker  string            // preferred worker (journal replay), may be ""
}

// idemKey is the lease's deterministic Idempotency-Key for this attempt:
// derived from the coordinator job ID (stable across coordinator restarts —
// the job journal preserves the ID space), the lease ID, and the attempt
// counter. A restarted coordinator re-submitting attempt N therefore
// deduplicates onto the worker job attempt N already created, while a
// reassignment (attempt N+1) is a deliberate new submission whose completed
// points come back as cache hits.
func (l *lease) idemKey(jobID string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("pnlease1|%s|%d|%d", jobID, l.id, l.attempt)))
	return "pnlease1-" + hex.EncodeToString(sum[:16])
}

// WAL record types, in lease lifecycle order.
const (
	walDispatch = "dispatch" // lease submitted to a worker
	walComplete = "complete" // worker job terminal-done, results folded in
	walFallback = "fallback" // lease ran in-process (degraded mode)
)

// walRecord is one record of the coordinator's per-job lease journal.
type walRecord struct {
	Type      string `json:"type"`
	Lease     int    `json:"lease"`
	Attempt   int    `json:"attempt"`
	Worker    string `json:"worker,omitempty"`
	WorkerJob string `json:"worker_job,omitempty"`
}

// leaseWAL is the append-only lease journal for one coordinator job, an
// internal/wal log at <dir>/<jobID>.wal. It is an optimisation, not a
// correctness requirement: after a coordinator crash the replayed job
// re-derives the same leases and idempotency keys from the job ID, and the
// WAL only short-circuits worker choice (re-dispatch to the worker that
// already holds the lease) and resumes the attempt counter. Writes are
// best-effort — a failed append degrades resume quality, never the run.
type leaseWAL struct {
	log  *wal.Log
	path string
}

// openLeaseWAL opens (creating if needed) the lease journal for jobID under
// dir and returns the replayed records in append order; a torn tail from a
// crash mid-append is cut, not fatal. An empty dir disables journalling (nil
// WAL, safe to append to).
func openLeaseWAL(dir, jobID string) (*leaseWAL, []walRecord, error) {
	if dir == "" {
		return nil, nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, jobID+".wal")
	var recs []walRecord
	log, _, err := wal.Open(path, func(_ int64, data []byte) {
		var rec walRecord
		if json.Unmarshal(data, &rec) == nil && rec.Type != "" {
			recs = append(recs, rec)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return &leaseWAL{log: log, path: path}, recs, nil
}

// append writes one record and syncs it to disk. Nil-safe and best-effort.
func (w *leaseWAL) append(rec walRecord) {
	if w == nil {
		return
	}
	if b, err := json.Marshal(rec); err == nil {
		if _, err := w.log.Append(b); err == nil {
			_ = w.log.Sync()
		}
	}
}

// Close closes the journal. Nil-safe.
func (w *leaseWAL) Close() {
	if w != nil {
		_ = w.log.Close()
	}
}

// remove deletes the journal once the job is terminal: its leases can never
// be resumed again, so the record is dead weight. Nil-safe.
func (w *leaseWAL) remove() {
	if w != nil {
		_ = w.log.Close()
		_ = os.Remove(w.path)
	}
}
