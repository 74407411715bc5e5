package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/wal"
)

// A cache hit carries the payload the result cache holds under its content
// key, and the hits of one key nearly always carry the very same bytes. The
// blob store keeps each such payload once, in <dir>/blobs/<key>.wal beside
// the job logs: an internal/wal log with one record, the key and a newline
// and then the payload. A hit's result record is then a reference — point
// index, the envelope around the result, and the key — not a copy of the
// payload, and readers splice the blob's payload back in
// (resultFile.parts).
//
// Lifetime. Each reference record holds one count on its key. A blob is
// written at the first hit that needs it, and synced with its directory
// before that first reference is appended, so a durable reference never
// names a blob that is not durable. The last release removes the blob. The
// store's lock is held across every blob write and removal, so a removal at
// zero count never interleaves with a new first hit of the same key.
//
// Journal replay rebuilds the counts from the job logs it reads. While it
// runs, a count that drops to zero removes nothing: replay registers jobs in
// order and evicts the oldest beyond the retention bound, and a blob an
// evicted job held may be named by a job replayed after it. When replay
// ends, every blob that no reference holds is removed, including the
// orphans of a crash between a blob write and its first reference.
//
// The store holds no file descriptor per blob: a write opens, appends,
// syncs and closes the file, and a read reads it whole.

// blobSubdir holds the blobs, under the journal's directory.
const blobSubdir = "blobs"

// refMark opens the body of a reference record, after the point index. An
// inline record's body is a JSON object, so it always opens with '{'.
const refMark = 0

// maxKey bounds a blob key, so its length fits the reference's length byte.
const maxKey = 128

// blobStore owns the payload blobs of one journal. A nil store takes no
// references: every record spills inline.
type blobStore struct {
	dir string

	mu        sync.Mutex // held across every blob write and removal
	blobs     map[string]*blob
	replaying bool // journal replay runs: a count that drops to zero removes nothing
}

// blob is one payload file that references may name.
type blob struct {
	refs int
	size int64 // record bytes (key, newline and payload), for the live-bytes gauge
	// token is the cache token (sweep.PointResult.CacheKey) of a payload
	// known to equal the file's: a hit with the same token carries the same
	// bytes. nil until one is matched.
	token any
}

// newBlobStore prepares dir; nil (every record inline) when it cannot be
// created.
func newBlobStore(dir string) *blobStore {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return nil
	}
	return &blobStore{dir: dir, blobs: make(map[string]*blob)}
}

// validBlobKey reports whether key may name a blob file. Cache keys are a
// schema name, a dash and hex ("pnfp3-…"), safe as a file name; a key read
// back from a result record is data and is checked anyway, as jobFile
// checks job IDs. A hit under any other key spills inline.
func validBlobKey(key string) bool {
	if key == "" || len(key) > maxKey {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '-') {
			return false
		}
	}
	return true
}

func (bs *blobStore) path(key string) string {
	return filepath.Join(bs.dir, key+walExt)
}

// acquire takes one count on key's blob for a reference to payload, first
// writing the blob if no live one holds key. ok is false, and no count is
// taken, when the live blob holds other bytes than payload or cannot be
// read: that record spills inline. err is a failed write, which degrades
// the spill as a failed append does.
func (bs *blobStore) acquire(key string, token any, payload []byte) (ok bool, err error) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b := bs.blobs[key]; b != nil {
		if token == nil || b.token != token {
			// A payload not yet matched with the file (a disk-tier hit, a
			// recomputation, a blob adopted at replay) is compared once.
			if p, err := bs.read(key); err != nil || !bytes.Equal(p, payload) {
				return false, nil
			}
			b.token = token
		}
		b.refs++
		return true, nil
	}
	size, err := bs.write(key, payload)
	if err != nil {
		return false, err
	}
	bs.blobs[key] = &blob{refs: 1, size: size, token: token}
	m := serveMetrics.Get()
	m.blobWrites.Inc()
	m.blobBytes.Add(float64(size))
	return true, nil
}

// write creates key's blob and syncs it and its directory, returning its
// record size. A file no live entry names (a crash's leftover) is replaced,
// and a failed write leaves no file. Callers hold bs.mu.
func (bs *blobStore) write(key string, payload []byte) (int64, error) {
	if err := faultinject.Fire(faultinject.ServeResultsWrite); err != nil {
		return 0, err
	}
	p := bs.path(key)
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("results: blob %s: %w", key, err)
	}
	log, _, err := wal.Open(p, nil)
	if err != nil {
		return 0, fmt.Errorf("results: blob %s: %w", key, err)
	}
	_, err = log.Append([]byte(key+"\n"), payload)
	if err == nil {
		err = log.Sync() // a new file: syncs the directory too
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(p)
		return 0, fmt.Errorf("results: blob %s: %w", key, err)
	}
	return int64(len(key) + 1 + len(payload)), nil
}

// read returns the payload of key's blob after checking the record's CRC
// and that it holds key.
func (bs *blobStore) read(key string) ([]byte, error) {
	if bs == nil {
		return nil, errors.New("results: a reference record, and no blob store")
	}
	rec, err := wal.ReadFirst(bs.path(key))
	if err != nil {
		return nil, err
	}
	if len(rec) <= len(key) || string(rec[:len(key)]) != key || rec[len(key)] != '\n' {
		return nil, fmt.Errorf("results: blob %s holds another key", key)
	}
	return rec[len(key)+1:], nil
}

// adopt takes one count on key's blob for a reference that replay read back
// from a job's log. It is false when the blob is missing, torn or holds
// another key: the caller drops that reference.
func (bs *blobStore) adopt(key string) bool {
	if bs == nil {
		return false
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b := bs.blobs[key]; b != nil {
		b.refs++
		return true
	}
	p, err := bs.read(key)
	if err != nil {
		return false
	}
	size := int64(len(key) + 1 + len(p))
	bs.blobs[key] = &blob{refs: 1, size: size}
	serveMetrics.Get().blobBytes.Add(float64(size))
	return true
}

// release gives back one count per key; a blob whose count drops to zero
// is removed, unless replay runs.
func (bs *blobStore) release(keys []string) {
	if bs == nil || len(keys) == 0 {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for _, key := range keys {
		b := bs.blobs[key]
		if b == nil {
			continue
		}
		if b.refs--; b.refs <= 0 && !bs.replaying {
			bs.removeLocked(key, b)
		}
	}
}

// removeLocked deletes a blob no reference holds. Callers hold bs.mu.
func (bs *blobStore) removeLocked(key string, b *blob) {
	delete(bs.blobs, key)
	serveMetrics.Get().blobBytes.Add(-float64(b.size))
	if err := os.Remove(bs.path(key)); err != nil && !os.IsNotExist(err) {
		serveMetrics.Get().resultErrors.Inc()
	}
}

// beginReplay holds every blob until endReplay, whatever its count.
func (bs *blobStore) beginReplay() {
	if bs != nil {
		bs.mu.Lock()
		bs.replaying = true
		bs.mu.Unlock()
	}
}

// endReplay ends journal replay: from now on the last release removes a
// blob, and every blob no reference holds now goes, files that no entry
// names included.
func (bs *blobStore) endReplay() {
	if bs == nil {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	bs.replaying = false
	for key, b := range bs.blobs {
		if b.refs <= 0 {
			bs.removeLocked(key, b)
		}
	}
	ents, err := os.ReadDir(bs.dir)
	if err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return
	}
	for _, e := range ents {
		if key, ok := strings.CutSuffix(e.Name(), walExt); ok && bs.blobs[key] == nil {
			if err := os.Remove(filepath.Join(bs.dir, e.Name())); err != nil && !os.IsNotExist(err) {
				serveMetrics.Get().resultErrors.Inc()
			}
		}
	}
}

// appendRefHeader appends what precedes head and tail in the body of a
// reference record: refMark, the key's length in one byte, the key, and
// head's length in four bytes. The key must pass validBlobKey.
func appendRefHeader(b []byte, key string, headLen int) []byte {
	b = append(b, refMark, byte(len(key)))
	b = append(b, key...)
	return binary.BigEndian.AppendUint32(b, uint32(headLen))
}

// isRef reports whether a record body (the bytes after the point index) is
// a reference rather than inline codec bytes.
func isRef(body []byte) bool { return len(body) > 0 && body[0] == refMark }

// splitRef parses a reference record's body into its key, the envelope's
// head (up to and including the result member's name) and its tail. ok is
// false for a body that is not a well-formed reference with a valid key.
func splitRef(body []byte) (key string, head, tail []byte, ok bool) {
	if !isRef(body) || len(body) < 2 {
		return "", nil, nil, false
	}
	kl := int(body[1])
	if len(body) < 2+kl+4 {
		return "", nil, nil, false
	}
	key = string(body[2 : 2+kl])
	rest := body[2+kl+4:]
	hl := binary.BigEndian.Uint32(body[2+kl:])
	if !validBlobKey(key) || uint64(hl) > uint64(len(rest)) {
		return "", nil, nil, false
	}
	return key, rest[:hl], rest[hl:], true
}

// splice returns a reference record body's codec bytes as head, the blob's
// payload and tail.
func (bs *blobStore) splice(body []byte) ([3][]byte, error) {
	key, head, tail, ok := splitRef(body)
	if !ok {
		return [3][]byte{}, errors.New("results: malformed reference record")
	}
	payload, err := bs.read(key)
	if err != nil {
		return [3][]byte{}, err
	}
	return [3][]byte{head, payload, tail}, nil
}
