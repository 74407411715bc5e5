package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/faultinject"
)

// diskSchemaVersion is the on-disk envelope schema. Entries with a different
// version (or none) are treated as misses and removed, so a schema change
// invalidates stale files instead of decoding them wrongly.
const diskSchemaVersion = 1

// diskHead is the envelope a payload is stored in, up to the payload: the
// schema version and the key the payload was stored under (guards against
// files copied or renamed across keys). A file is the head, the payload and
// a closing brace. A key that path admits needs no escaping, so for a
// compact payload the file is byte for byte json.Marshal's envelope.
func diskHead(key string) []byte {
	return []byte(`{"v":` + strconv.Itoa(diskSchemaVersion) + `,"key":"` + key + `","payload":`)
}

// diskStore is the persistent tier: one JSON file per key under dir.
// Writes are atomic and durable (temp file, fsync, rename, directory fsync);
// reads tolerate anything — a truncated, garbage or wrong-version file is a
// miss, never an error.
type diskStore struct {
	dir string
}

func newDiskStore(dir string) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &diskStore{dir: dir}, nil
}

// path maps a key to its file. Keys are content hashes (hex), but guard
// against anything path-hostile slipping through: non-filename-safe keys get
// no disk tier.
func (d *diskStore) path(key string) (string, bool) {
	if key == "" || len(key) > 256 {
		return "", false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return "", false
		}
	}
	return filepath.Join(d.dir, key+".json"), true
}

// get loads a payload; any failure is a miss. A file is served only when it
// is exactly what put writes — diskHead(key), a payload that passes Valid,
// and "}" — and the payload is cut out of it, not decoded: it comes back
// exactly as it was put. Anything else (torn, foreign, another schema or
// key) is removed so it cannot shadow a future healthy write.
func (d *diskStore) get(key string) ([]byte, bool) {
	p, ok := d.path(key)
	if !ok {
		return nil, false
	}
	if faultinject.Fire(faultinject.CacheDiskRead) != nil {
		cacheMetrics.Get().diskErrors.Inc()
		return nil, false
	}
	data, err := os.ReadFile(p)
	if err != nil {
		if !os.IsNotExist(err) {
			cacheMetrics.Get().diskErrors.Inc()
		}
		return nil, false
	}
	payload, ok := bytes.CutPrefix(data, diskHead(key))
	if ok {
		payload, ok = bytes.CutSuffix(payload, []byte("}"))
	}
	if !ok || !Valid(payload) {
		cacheMetrics.Get().diskErrors.Inc()
		_ = os.Remove(p)
		return nil, false
	}
	return payload, true
}

// put stores a payload atomically and durably: write to a temp file, fsync it
// so the bytes reach stable storage before the rename makes them visible,
// rename into place, then fsync the directory so the rename itself survives a
// power loss. Skipping either sync lets a "cached" entry vanish or truncate
// on crash — exactly what the corrupt-entry-as-miss read path would then hide
// as silent recomputation, or worse, serve as garbage.
//
// The payload must be valid JSON (the store's envelope embeds it verbatim);
// Store.Put validates that upstream. The envelope is written around it, not
// marshalled: encoding/json would compact the whole payload again only to
// copy it.
func (d *diskStore) put(key string, payload []byte) {
	p, ok := d.path(key)
	if !ok {
		return
	}
	if faultinject.Fire(faultinject.CacheDiskWrite) != nil {
		cacheMetrics.Get().diskErrors.Inc()
		return
	}
	tmp, err := os.CreateTemp(d.dir, "."+key+".tmp-*")
	if err != nil {
		cacheMetrics.Get().diskErrors.Inc()
		return
	}
	tmpName := tmp.Name()
	var werr error
	for _, part := range [][]byte{diskHead(key), payload, []byte("}")} {
		if werr == nil {
			_, werr = tmp.Write(part)
		}
	}
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		cacheMetrics.Get().diskErrors.Inc()
		_ = os.Remove(tmpName)
		return
	}
	if err := os.Rename(tmpName, p); err != nil {
		cacheMetrics.Get().diskErrors.Inc()
		_ = os.Remove(tmpName)
		return
	}
	syncDir(d.dir)
}

// syncDir fsyncs a directory so a just-renamed entry's name is durable.
// Failures are counted, not fatal: the entry is still correct, just not yet
// guaranteed across power loss.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		cacheMetrics.Get().diskErrors.Inc()
		return
	}
	if err := f.Sync(); err != nil {
		cacheMetrics.Get().diskErrors.Inc()
	}
	_ = f.Close()
}
