package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func payload(i int) []byte { return []byte(fmt.Sprintf(`{"v":%d}`, i)) }

func TestMemGetPut(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put("k", payload(1)); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k")
	if !ok || !bytes.Equal(v, payload(1)) {
		t.Fatalf("got %q ok=%v", v, ok)
	}
	if err := s.Put("k", []byte("not json")); err == nil {
		t.Fatal("want invalid-JSON rejection")
	}
}

func TestLRUEvictionAtByteBound(t *testing.T) {
	// Each payload is 9 bytes; bound of 30 holds three entries.
	s, err := New(Options{MaxBytes: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		_ = s.Put(fmt.Sprintf("k%d", i), payload(i)) // {"v":1} etc: 7 bytes... use fixed-size
	}
	sz := int64(len(payload(1)))
	wantEntries := int(30 / sz)
	if s.Len() != min(3, wantEntries) {
		t.Fatalf("len=%d want %d", s.Len(), min(3, wantEntries))
	}
	// Touch k1 so k2 becomes the LRU victim.
	if _, ok := s.Get("k1"); !ok {
		t.Fatal("k1 should be resident")
	}
	for i := 4; s.Len()*int(sz) <= 30-int(sz); i++ {
		_ = s.Put(fmt.Sprintf("k%d", i), payload(i))
	}
	_ = s.Put("overflow", payload(99))
	if s.Bytes() > 30 {
		t.Fatalf("bytes=%d exceeds bound", s.Bytes())
	}
	if _, ok := s.Get("k2"); ok {
		t.Fatal("k2 should have been evicted before the recently-used k1")
	}
	if _, ok := s.Get("k1"); !ok {
		t.Fatal("recently-used k1 was evicted")
	}
}

func TestOversizedPayloadSkipsMemory(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{MaxBytes: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("big", payload(7)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("oversized entry resident in memory (len=%d)", s.Len())
	}
	// Still served from disk.
	if v, ok := s.Get("big"); !ok || !bytes.Equal(v, payload(7)) {
		t.Fatalf("disk get: %q ok=%v", v, ok)
	}
}

func TestSingleflightCollapsesConcurrentIdenticalJobs(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	origins := make([]Origin, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, _, origin, err := s.Do("job", func() ([]byte, any, error) {
				computes.Add(1)
				return payload(42), nil, nil
			})
			if err != nil {
				t.Error(err)
			}
			origins[i], vals[i] = origin, v
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	computed := 0
	for i := 0; i < n; i++ {
		if !bytes.Equal(vals[i], payload(42)) {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if origins[i] == OriginComputed {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d callers report OriginComputed, want 1", computed)
	}
}

func TestDoSharesErrorsWithoutCaching(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("pipeline exploded")
	if _, _, _, err := s.Do("k", func() ([]byte, any, error) { return nil, nil, boom }); err != boom {
		t.Fatalf("got %v", err)
	}
	// Failure was not cached: the next Do computes again.
	v, _, origin, err := s.Do("k", func() ([]byte, any, error) { return payload(1), nil, nil })
	if err != nil || origin != OriginComputed || !bytes.Equal(v, payload(1)) {
		t.Fatalf("v=%q origin=%v err=%v", v, origin, err)
	}
	// Now it is cached.
	if _, _, origin, _ := s.Do("k", func() ([]byte, any, error) { t.Fatal("must not compute"); return nil, nil, nil }); origin != OriginMem {
		t.Fatalf("origin=%v want mem", origin)
	}
}

// TestNoteKeptBesidePayload: a computed value's note is served with every
// later memory hit; Put stores no note; Note attaches one only to the entry
// still holding those exact bytes; a disk hit (a new store on the same
// directory) has no note until noted.
func TestNoteKeptBesidePayload(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	note := &struct{ c float64 }{1e-9}
	v, got, origin, err := s.Do("k", func() ([]byte, any, error) { return payload(1), note, nil })
	if err != nil || origin != OriginComputed || got != note {
		t.Fatalf("compute: note %v origin %v err %v", got, origin, err)
	}
	if _, got, origin, _ := s.Do("k", nil); origin != OriginMem || got != note {
		t.Fatalf("memory hit: note %v origin %v, want the computed note", got, origin)
	}

	if err := s.Put("k", payload(2)); err != nil {
		t.Fatal(err)
	}
	v, got, _, _ = s.Do("k", nil)
	if got != nil {
		t.Fatalf("Put kept the old note %v", got)
	}
	s.Note("k", append([]byte(nil), v...), note) // equal bytes, not the entry's
	if _, got, _, _ := s.Do("k", nil); got != nil {
		t.Fatalf("a note on a copy of the payload stuck: %v", got)
	}
	s.Note("k", v, note)
	if _, got, _, _ := s.Do("k", nil); got != note {
		t.Fatalf("note on the entry's own payload: %v", got)
	}

	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, got, origin, _ = s2.Do("k", nil)
	if origin != OriginDisk || got != nil || !bytes.Equal(v, payload(2)) {
		t.Fatalf("disk hit: %q note %v origin %v", v, got, origin)
	}
	s2.Note("k", v, note)
	if _, got, origin, _ := s2.Do("k", nil); origin != OriginMem || got != note {
		t.Fatalf("memory hit after noting a disk hit: note %v origin %v", got, origin)
	}
}

func TestDiskPersistsAcrossStores(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", payload(5)); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s2.Get("k")
	if !ok || !bytes.Equal(v, payload(5)) {
		t.Fatalf("fresh store: %q ok=%v", v, ok)
	}
	if s2.Len() != 1 {
		t.Fatal("disk hit was not promoted to memory")
	}
}

// diskEnvelope is the disk tier's envelope as encoding/json marshals it: the
// oracle for the bytes put writes around a payload.
type diskEnvelope struct {
	V       int             `json:"v"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// TestDiskEnvelopeBytes: put writes the envelope around the payload without
// marshalling it. For a real registry payload the file holds exactly
// json.Marshal's envelope; a payload with insignificant whitespace inside
// it or around it, which json.Marshal would compact or drop, comes back from
// get exactly as it was put.
func TestDiskEnvelopeBytes(t *testing.T) {
	d, err := newDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "pnfp1-0123abcd"
	path, _ := d.path(key)
	real, err := registryResult(t, "hopf").MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	d.put(key, real)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(diskEnvelope{V: diskSchemaVersion, Key: key, Payload: real})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want) {
		t.Fatalf("envelope of a %d-byte hopf payload differs from json.Marshal's (%d bytes against %d)", len(real), len(file), len(want))
	}
	if got, ok := d.get(key); !ok || !bytes.Equal(got, real) {
		t.Fatalf("hopf payload not served back: ok=%v, %d bytes", ok, len(got))
	}

	for _, spaced := range []string{
		"{ \"c\" : 1e-9 ,\n\t\"x\": [ 1, 2 ] }",
		" \n{\"c\":1e-9}\t\r\n",
		"\t[ {} ] ",
	} {
		d.put(key, []byte(spaced))
		if got, ok := d.get(key); !ok || string(got) != spaced {
			t.Fatalf("get = %q, %v; want %q as it was put", got, ok, spaced)
		}
	}
}

func TestDiskCorruptionToleratedAsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"garbage":   []byte("not json at all"),
		"truncated": []byte(`{"v":1,"key":"trunc`),
		"badver":    []byte(`{"v":999,"key":"badver","payload":{"x":1}}`),
		"wrongkey":  []byte(`{"v":1,"key":"other","payload":{"x":1}}`),
		"empty":     nil,
	}
	for key, content := range cases {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("%s: corrupt file served as a hit", key)
		}
		// The bad file is removed, so a healthy write is not shadowed.
		if err := s.Put(key, payload(1)); err != nil {
			t.Fatal(err)
		}
		s2, _ := New(Options{Dir: dir})
		if v, ok := s2.Get(key); !ok || !bytes.Equal(v, payload(1)) {
			t.Fatalf("%s: healthy rewrite not visible: %q ok=%v", key, v, ok)
		}
	}
}

func TestPathHostileKeysNeverTouchDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../escape", "a/b", "a\\b", ""} {
		_ = s.Put(key, payload(1))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("hostile keys created files: %v", entries)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); err == nil {
		t.Fatal("path traversal escaped the cache dir")
	}
}

func TestNilStoreIsCachingOff(t *testing.T) {
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put("k", payload(1)); err != nil {
		t.Fatal(err)
	}
	ran := false
	v, _, origin, err := s.Do("k", func() ([]byte, any, error) { ran = true; return payload(2), nil, nil })
	if !ran || err != nil || origin.Cached() || !bytes.Equal(v, payload(2)) {
		t.Fatalf("nil Do: ran=%v v=%q origin=%v err=%v", ran, v, origin, err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("nil store reports contents")
	}
}

func TestConcurrentMixedOperationsRace(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{MaxBytes: 200, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("k%d", i%13)
				switch i % 3 {
				case 0:
					_ = s.Put(k, payload(i))
				case 1:
					s.Get(k)
				default:
					_, _, _, _ = s.Do(k, func() ([]byte, any, error) { return payload(i), nil, nil })
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Bytes() > 200 {
		t.Fatalf("byte bound violated: %d", s.Bytes())
	}
}

// FuzzDiskGet: the disk tier serves a file exactly when it is what put
// writes — the head {"v":1,"key":"<key>","payload":, a non-empty payload p
// that json.Valid accepts, and "}" — and then serves exactly p, whitespace
// around it included. Anything else is a miss, even a file that decodes to
// the same envelope (no earlier binary wrote one): the file is removed so it
// cannot shadow a healthy write, and counted as a disk error.
func FuzzDiskGet(f *testing.F) {
	const key = "pnfp1-0123abcd"
	env := func(v int, k, payload string) []byte {
		return []byte(fmt.Sprintf(`{"v":%d,"key":%q,"payload":%s}`, v, k, payload))
	}
	f.Add(env(1, key, `{"c":1e-9}`)) // decodes to an incomplete result: the caller's to judge
	f.Add(env(1, key, `{"index":3,"name":"skipped","error":{"msg":"sweep: point \"skipped\" not started: budget: wall-clock budget exceeded","kind":"budget"},"wall_ns":0}`))
	f.Add(env(1, key, `null`))
	f.Add(env(2, key, `{}`))
	f.Add(env(1, "pnfp1-other", `{}`))
	f.Add([]byte(`{"v":1,"key":"` + key + `"}`))
	f.Add([]byte(`{"v":1,"key":"` + key + `","payload":{"c":`))
	f.Add([]byte{})

	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	d, err := newDiskStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path, _ := d.path(key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		errs := reg.Snapshot().Counter("pn_cache_disk_errors_total", "")
		got, ok := d.get(key)

		want, valid := bytes.CutPrefix(data, []byte(fmt.Sprintf(`{"v":1,"key":%q,"payload":`, key)))
		if valid {
			want, valid = bytes.CutSuffix(want, []byte("}"))
		}
		valid = valid && len(want) > 0 && json.Valid(want)
		if ok {
			if !valid || !bytes.Equal(got, want) {
				t.Fatalf("served %q from file %q", got, data)
			}
			return
		}
		if valid {
			t.Fatalf("valid entry %q not served", data)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("rejected file %q was not removed (stat: %v)", data, err)
		}
		if n := reg.Snapshot().Counter("pn_cache_disk_errors_total", ""); n != errs+1 {
			t.Fatalf("rejected file %q counted %d disk errors, want 1", data, n-errs)
		}
	})
}
