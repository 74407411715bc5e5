package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/sweep"
)

// The result records of a job's log (journal.go) make its results durable
// and memory-bounded: every completed sweep.PointResult streams out of
// OnPoint into the job's log the moment it completes, so the server never
// retains a per-job O(points) result slice — a 10⁵-point sweep holds one
// file descriptor and an 8-byte in-memory index entry per point, nothing
// else. Retrieval (paginated /results, streaming /results.jsonl) copies
// records straight back off disk, checksum-checked and never decoded,
// including for journal-recovered jobs: replay reads the log once end to
// end and rebuilds the index as it goes.
//
// A result record is the kind byte, a 4-byte big-endian point index and its
// body. An inline body is exactly sweep.PointResult.MarshalJSON's output —
// the loss-free codec — so streamed retrieval is byte-identical to what the
// in-memory path used to serve. For a point that went through the result
// cache that output is the point envelope with the cache payload spliced
// in: the result is not encoded again, and a memory-tier hit is spilled
// without ever being decoded. A cache hit's body is a reference instead:
// the envelope's two halves and the cache key, whose payload the blob store
// keeps once for every job that hit it (blobs.go); readers splice it back
// in, so the bytes served are the same.
// Records are plain appends (a crash loses at most the records the OS had
// not written; every earlier point survives). seal — called just before the
// job's terminal event — stops further appends, and the terminal event's
// sync makes every record before it durable.
//
// Failure containment mirrors the journal: a failed append (disk full,
// injected fault) flips the index to degraded — the job keeps running and
// settling normally, already-spilled records stay readable, only the
// not-yet-spilled payloads are lost to summary-only service. A job without
// a log runs summary-only the same way. Results are an availability
// surface, never a correctness dependency.

// resultFile indexes the result records of one job's log. Methods are safe
// for concurrent use (the cluster runner delivers results from several
// worker streams at once) and nil-safe (a job without a log carries a nil
// file).
type resultFile struct {
	log      *jobLog
	blobs    *blobStore // where reference records' payloads live (nil: inline only)
	mu       sync.Mutex
	offsets  []int64  // record offset per point index; -1 = not spilled
	n        int      // records present
	keys     []string // the key of each reference record: one blob count each
	degraded bool     // an append failed: summary-only from here on
	sealed   bool
	// index holds the record's kind byte and point-index prefix during an
	// append, and ref a reference record's header. They live here, not on
	// append's stack: the log checksums the parts it is handed in place, so
	// they escape, and a stack buffer would be moved to the heap on every
	// append.
	index [5]byte
	ref   [2 + maxKey + 4]byte
}

// newResultFile starts the index of a job's result records for n points:
// nil (summary-only) without a log, or for a job with no points.
func newResultFile(log *jobLog, n int) *resultFile {
	if log == nil || n <= 0 {
		return nil
	}
	rf := &resultFile{log: log, blobs: log.jl.blobs, offsets: make([]int64, n)}
	for i := range rf.offsets {
		rf.offsets[i] = -1
	}
	rf.index[0] = kindResult
	return rf
}

// adopt indexes a result record that replay read back at off; rec is the
// record after its kind byte. First record per index wins, as in append. A
// reference takes a count on its blob; one whose blob is missing, torn or
// holds another key is left out of the index and counted as corrupt, and
// the file reads as degraded.
func (rf *resultFile) adopt(off int64, rec []byte) {
	if rf == nil || len(rec) < 4 {
		return
	}
	idx := binary.BigEndian.Uint32(rec)
	if int64(idx) >= int64(len(rf.offsets)) || rf.offsets[idx] >= 0 {
		return
	}
	if body := rec[4:]; isRef(body) {
		key, _, _, ok := splitRef(body)
		if !ok || !rf.blobs.adopt(key) {
			serveMetrics.Get().replayCorrupt.Inc()
			rf.degraded = true
			return
		}
		rf.keys = append(rf.keys, key)
	}
	rf.offsets[idx] = off
	rf.n++
}

// append spills one completed point inline. First writer per index wins — a
// resumed job re-reports pre-crash points, and the cluster path can race a
// reassigned lease against its original; the record already on disk is the
// one that was already served. The parts concatenated must be the point's
// loss-free codec bytes; at most three are taken (sweep.PointResult.
// MarshalParts), and the log writes them without joining them. A write
// failure (disk full, injected fault) degrades the file: the error is
// reported once, already-spilled records stay readable, later appends no-op.
func (rf *resultFile) append(idx int, parts ...[]byte) error {
	return rf.spill(idx, "", nil, parts)
}

// appendResult spills one result from its encoded parts. A cache hit under
// a valid key spills a reference to its payload's blob; any other point
// spills inline, where a computed point's cache payload goes to the log as
// it is, neither re-encoded nor copied.
func (rf *resultFile) appendResult(res *sweep.PointResult) error {
	if rf == nil {
		return nil
	}
	head, result, tail, err := res.MarshalParts()
	if err != nil {
		return err
	}
	key, token := res.CacheKey()
	if result == nil || rf.blobs == nil || !validBlobKey(key) {
		key = ""
	}
	return rf.spill(res.Index, key, token, [][]byte{head, result, tail})
}

// spill appends point idx's record (see append). With key set, parts are a
// cache hit's head, payload and tail, and the record is a reference to the
// payload's blob when the blob store takes a count on it; a blob that holds
// other bytes leaves the record inline. A failed blob write degrades the
// file like a failed append.
func (rf *resultFile) spill(idx int, key string, token any, parts [][]byte) error {
	if rf == nil {
		return nil
	}
	if len(parts) > 3 {
		return fmt.Errorf("results: record in %d parts", len(parts))
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if idx < 0 || idx >= len(rf.offsets) || rf.offsets[idx] >= 0 || rf.degraded || rf.sealed {
		return nil
	}
	m := serveMetrics.Get()
	err := faultinject.Fire(faultinject.ServeResultsWrite)
	if err == nil && key != "" {
		var ok bool
		if ok, err = rf.blobs.acquire(key, token, parts[1]); !ok {
			key = ""
		}
	}
	binary.BigEndian.PutUint32(rf.index[1:], uint32(idx))
	rec := [4][]byte{rf.index[:]}
	n := 1 + copy(rec[1:], parts)
	if key != "" {
		rec[1] = appendRefHeader(rf.ref[:0], key, len(parts[0]))
		rec[2], rec[3] = parts[0], parts[2]
	}
	size := 0
	for _, p := range rec[:n] {
		size += len(p)
	}
	var off int64
	if err == nil {
		if off, err = rf.log.append(false, rec[:n]...); err != nil && key != "" {
			rf.blobs.release([]string{key})
		}
	}
	if err != nil {
		rf.degraded = true
		m.resultErrors.Inc()
		m.resultDegraded.Inc()
		return err
	}
	if key != "" {
		rf.keys = append(rf.keys, key)
	}
	rf.offsets[idx] = off
	rf.n++
	m.resultSpilled.Inc()
	m.resultBytes.Add(int64(size))
	return nil
}

// seal stops further appends once the job is done: the terminal event
// written next is the log's last, and its sync makes these records durable.
// The log stays open: retrieval keeps reading from it until eviction.
func (rf *resultFile) seal() {
	if rf != nil {
		rf.mu.Lock()
		rf.sealed = true
		rf.mu.Unlock()
	}
}

// release gives back the blob counts of the file's reference records, once
// the file is gone.
func (rf *resultFile) release() {
	if rf == nil {
		return
	}
	rf.mu.Lock()
	keys := rf.keys
	rf.keys = nil
	rf.mu.Unlock()
	rf.blobs.release(keys)
}

// parts reads one point's raw codec bytes as up to three parts whose
// concatenation is MarshalJSON's output: an inline record is one part, and
// a reference is its head, its blob's payload and its tail. All are nil
// when the point has not been spilled. The read fault point fires per
// record, so an injected read failure surfaces as a partial page, not a
// wedged store; a blob that cannot be read is a read error too. The record
// is read into buf when it has the room (nil: a fresh slice), and the
// buffer it landed in is returned for the next read; the parts may alias it.
func (rf *resultFile) parts(idx int, buf []byte) ([3][]byte, []byte, error) {
	var p [3][]byte
	if rf == nil {
		return p, buf, nil
	}
	rf.mu.Lock()
	off := int64(-1)
	if idx >= 0 && idx < len(rf.offsets) {
		off = rf.offsets[idx]
	}
	rf.mu.Unlock()
	if off < 0 {
		return p, buf, nil
	}
	if err := faultinject.Fire(faultinject.ServeResultsRead); err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return p, buf, err
	}
	rec, err := rf.log.f.ReadInto(off, buf)
	if err == nil {
		buf = rec
		if p[0] = rec[5:]; isRef(p[0]) {
			p, err = rf.blobs.splice(p[0])
		}
	}
	if err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return [3][]byte{}, buf, fmt.Errorf("results: reading point %d: %w", idx, err)
	}
	return p, buf, nil
}

// frame reads one point's raw codec bytes, a reference's parts joined; nil
// when the point has not been spilled.
func (rf *resultFile) frame(idx int) ([]byte, error) {
	p, _, err := rf.parts(idx, nil)
	if err != nil || p[1] == nil && p[2] == nil {
		return p[0], err
	}
	return bytes.Join(p[:], nil), nil
}

// snapshot reports (frames spilled, total points, degraded).
func (rf *resultFile) snapshot() (n, total int, degraded bool) {
	if rf == nil {
		return 0, 0, true
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.n, len(rf.offsets), rf.degraded
}

// page collects the raw frames for point indices [offset, offset+limit) in
// index order, skipping never-spilled slots (each payload carries its own
// "index" field, so sparse pages stay self-describing). The returned error
// is the first read failure; frames collected before it are still returned.
func (rf *resultFile) page(offset, limit int) ([]json.RawMessage, error) {
	if rf == nil {
		return nil, nil
	}
	total := len(rf.offsets)
	if offset < 0 {
		offset = 0
	}
	end := offset + limit
	if limit <= 0 || end > total {
		end = total
	}
	out := make([]json.RawMessage, 0, max(0, end-offset))
	for i := offset; i < end; i++ {
		raw, err := rf.frame(i)
		if err != nil {
			return out, err
		}
		if raw != nil {
			out = append(out, json.RawMessage(raw))
		}
	}
	return out, nil
}

// writeJSONL streams every spilled frame to w, one codec line per point in
// index order — the loss-free bulk download. Returns the first write or read
// error.
func (rf *resultFile) writeJSONL(w io.Writer) error {
	if rf == nil {
		return errors.New("results: no spill file for this job")
	}
	// Every record is read into one buffer: none outlives its write.
	var buf []byte
	for i := 0; i < len(rf.offsets); i++ {
		p, b, err := rf.parts(i, buf)
		buf = b
		if err != nil {
			return err
		}
		if p[0] == nil {
			continue
		}
		// A write per part and one for the newline: joining them would copy
		// the whole record.
		for _, b := range p {
			if len(b) == 0 {
				continue
			}
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
		if _, err := w.Write(newline); err != nil {
			return err
		}
	}
	return nil
}

var newline = []byte{'\n'}
