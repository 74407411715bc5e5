package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/sweep"
	"repro/internal/wal"
)

// The result store is the journal's sibling for payloads: where the journal
// makes a job's *lifecycle* durable, the spill file makes its *results*
// durable and memory-bounded. Every completed sweep.PointResult streams out
// of OnPoint into an append-only log (internal/wal), <dir>/results/<id>.wal,
// the moment it completes, so the server never retains a per-job O(points)
// result slice — a 10⁵-point sweep holds open one file descriptor and an
// 8-byte in-memory index entry per point, nothing else. Retrieval (paginated
// /results, streaming /results.jsonl) copies records straight back off disk,
// checksum-checked and never decoded, including for journal-recovered jobs:
// the spill survives a SIGKILL alongside the journal, and reopening it
// reads it once end to end to rebuild the index and cut a torn tail.
//
// A record is a 4-byte big-endian point index followed by its body. An
// inline body is exactly sweep.PointResult.MarshalJSON's output — the
// loss-free codec — so streamed retrieval is byte-identical to what the
// in-memory path used to serve. For a point that went through the result
// cache that output is the point envelope with the cache payload spliced in:
// the result is not encoded again, and a memory-tier hit is spilled without
// ever being decoded. A cache hit's body is a reference instead: the
// envelope's two halves and the cache key, whose payload the blob store
// keeps once for every job that hit it (blobs.go); readers splice it back
// in, so the bytes served are the same.
// Records are plain appends (a crash loses at most the records the OS had
// not written; every earlier point survives), and seal — called when the job
// goes terminal — syncs them, and on a new file its directory entry too. A
// new spill is not synced at create: before seal its records are not
// durable anyway, and a job that crashes unsealed is re-run or served from
// what survived.
//
// Failure containment mirrors the journal too: a failed append (disk full,
// injected fault) flips the file to degraded — the job keeps running and
// settling normally, already-spilled records stay readable, only the
// not-yet-spilled payloads are lost to summary-only service. A failed create
// degrades the whole job the same way. Results are an availability surface,
// never a correctness dependency.

// resultSubdir keeps spill files out of the journal replay walk.
const resultSubdir = "results"

// resultStore hands out per-job spill files under one directory. A nil store
// (creation failed) degrades every job to summary-only; all methods are
// nil-safe, mirroring the journal.
type resultStore struct {
	dir   string
	own   bool       // dir is a temp dir this store created; close removes it
	blobs *blobStore // nil: every record spills inline
}

// newResultStore places the store under journalDir/results when journalling
// is on — spill files then live next to the journals they complement and
// survive restarts with them. Without a journal the store falls back to a
// private temp directory: results are still memory-bounded and streamable,
// they just die with the process like the jobs themselves. Returns nil
// (summary-only service) only when no directory can be created at all.
func newResultStore(journalDir string) *resultStore {
	if journalDir != "" {
		dir := filepath.Join(journalDir, resultSubdir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			serveMetrics.Get().resultErrors.Inc()
			return nil
		}
		return &resultStore{dir: dir, blobs: newBlobStore(filepath.Join(dir, blobSubdir))}
	}
	dir, err := os.MkdirTemp("", "pnserve-results-")
	if err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return nil
	}
	return &resultStore{dir: dir, own: true, blobs: newBlobStore(filepath.Join(dir, blobSubdir))}
}

// path maps a job ID to its spill file ("" = unmappable).
func (rs *resultStore) path(id string) string {
	if rs == nil {
		return ""
	}
	return jobFile(rs.dir, id)
}

// open creates (or reopens, for journal recovery and resumed jobs) the spill
// file for a job of n points, indexing every intact record; nothing is
// synced until seal. A reopened reference takes a count on its blob; one
// whose blob is missing, torn or holds another key is left out of the index
// and counted as corrupt, and the file reads as degraded. Returns nil when
// the store is unavailable or the file cannot be opened — the job then runs
// summary-only.
func (rs *resultStore) open(id string, n int) *resultFile {
	p := rs.path(id)
	if p == "" || n <= 0 {
		return nil
	}
	m := serveMetrics.Get()
	rf := &resultFile{offsets: make([]int64, n), blobs: rs.blobs}
	for i := range rf.offsets {
		rf.offsets[i] = -1
	}
	log, cut, err := wal.Open(p, func(off int64, rec []byte) {
		if len(rec) < 4 {
			return
		}
		// First record per index wins, as in append.
		idx := binary.BigEndian.Uint32(rec)
		if int64(idx) >= int64(n) || rf.offsets[idx] >= 0 {
			return
		}
		if body := rec[4:]; isRef(body) {
			key, _, _, ok := splitRef(body)
			if !ok || !rs.blobs.adopt(key) {
				m.replayCorrupt.Inc()
				rf.degraded = true
				return
			}
			rf.keys = append(rf.keys, key)
		}
		rf.offsets[idx] = off
		rf.n++
	})
	if err != nil {
		rs.blobs.release(rf.keys)
		m.resultErrors.Inc()
		m.resultDegraded.Inc()
		return nil
	}
	if cut > 0 {
		m.replayCorrupt.Inc()
	}
	if rf.degraded {
		m.resultDegraded.Inc()
	}
	rf.log = log
	return rf
}

// openExisting reopens a spill file only if it already exists on disk —
// terminal-job recovery attaches whatever survived the crash without minting
// empty files for jobs whose spill never existed.
func (rs *resultStore) openExisting(id string, n int) *resultFile {
	p := rs.path(id)
	if p == "" {
		return nil
	}
	if _, err := os.Stat(p); err != nil {
		return nil
	}
	return rs.open(id, n)
}

// remove deletes a job's spill file.
func (rs *resultStore) remove(id string) {
	if p := rs.path(id); p != "" {
		os.Remove(p)
	}
}

// drop closes and deletes an evicted or discarded job's spill file, then
// releases the blob counts its reference records held.
func (rs *resultStore) drop(id string, rf *resultFile) {
	rf.closeFile()
	rs.remove(id)
	rf.release()
}

// beginReplay and endReplay bracket journal replay for the blob store.
func (rs *resultStore) beginReplay() {
	if rs != nil {
		rs.blobs.beginReplay()
	}
}

func (rs *resultStore) endReplay() {
	if rs != nil {
		rs.blobs.endReplay()
	}
}

// close releases the store; a temp-dir store removes its directory.
func (rs *resultStore) close() {
	if rs != nil && rs.own {
		os.RemoveAll(rs.dir)
	}
}

// resultFile is one job's spill file plus its in-memory index. Methods are
// safe for concurrent use (the cluster runner delivers results from several
// worker streams at once) and nil-safe (a degraded or store-less job carries
// a nil file).
type resultFile struct {
	log      *wal.Log
	blobs    *blobStore // where reference records' payloads live (nil: inline only)
	mu       sync.Mutex
	offsets  []int64  // record offset per point index; -1 = not spilled
	n        int      // records present
	keys     []string // the key of each reference record: one blob count each
	degraded bool     // an append failed: summary-only from here on
	sealed   bool
	// index holds the record's point-index prefix during an append, and ref
	// a reference record's header. They live here, not on append's stack:
	// the log checksums the parts it is handed in place, so they escape, and
	// a stack buffer would be moved to the heap on every append.
	index [4]byte
	ref   [2 + maxKey + 4]byte
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
	binary.BigEndian.PutUint32(rf.index[:], uint32(idx))
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
		if off, err = rf.log.Append(rec[:n]...); err != nil && key != "" {
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

// seal syncs the spilled records once the job is terminal, and a new
// file's directory with them (wal.Log.Sync). The log stays open: retrieval
// keeps reading from it until eviction.
func (rf *resultFile) seal() {
	if rf == nil {
		return
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.sealed {
		return
	}
	rf.sealed = true
	if err := rf.log.Sync(); err != nil {
		serveMetrics.Get().resultErrors.Inc()
	}
}

// closeFile releases the descriptor (eviction).
func (rf *resultFile) closeFile() {
	if rf != nil {
		_ = rf.log.Close()
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
// wedged store; a blob that cannot be read is a read error too.
func (rf *resultFile) parts(idx int) ([3][]byte, error) {
	var p [3][]byte
	if rf == nil {
		return p, nil
	}
	rf.mu.Lock()
	off := int64(-1)
	if idx >= 0 && idx < len(rf.offsets) {
		off = rf.offsets[idx]
	}
	rf.mu.Unlock()
	if off < 0 {
		return p, nil
	}
	if err := faultinject.Fire(faultinject.ServeResultsRead); err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return p, err
	}
	rec, err := rf.log.ReadAt(off)
	if err == nil {
		if p[0] = rec[4:]; isRef(p[0]) {
			p, err = rf.blobs.splice(p[0])
		}
	}
	if err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return [3][]byte{}, fmt.Errorf("results: reading point %d: %w", idx, err)
	}
	return p, nil
}

// frame reads one point's raw codec bytes, a reference's parts joined; nil
// when the point has not been spilled.
func (rf *resultFile) frame(idx int) ([]byte, error) {
	p, err := rf.parts(idx)
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
	for i := 0; i < len(rf.offsets); i++ {
		p, err := rf.parts(i)
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
