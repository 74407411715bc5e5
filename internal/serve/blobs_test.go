package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/wal"
)

// journalAt builds a journal over dir with its blob store, as openJournal
// does for a journal directory.
func journalAt(dir string) *journal {
	return &journal{dir: dir, durable: true, blobs: newBlobStore(filepath.Join(dir, blobSubdir))}
}

// openResults creates job id's log under jl with a header of n points and
// returns the log's result index, as submit does.
func openResults(t testing.TB, jl *journal, id string, n int) *resultFile {
	t.Helper()
	rf := newResultFile(jl.create(jrecord{ID: id, Kind: "sweep", Specs: make([]PointSpec, n)}), n)
	if rf == nil {
		t.Fatalf("creating the log of %s", id)
	}
	return rf
}

// reopenResults reads job id's log back as replay does and returns its
// result index.
func reopenResults(t testing.TB, jl *journal, id string) *resultFile {
	t.Helper()
	rj, ok := jl.recover(id)
	if !ok || rj.rf == nil {
		t.Fatalf("replaying the log of %s: ok %v, results %v", id, ok, rj.rf != nil)
	}
	return rj.rf
}

// blobFiles lists the blob files of the journal under dir.
func blobFiles(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, blobSubdir))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// computedAndHit runs pt through the engine twice over one cache, as a slot
// does (DiscardResults): the first run computes it, the second is a
// memory-tier hit that is never decoded.
func computedAndHit(t testing.TB, store *cache.Store, pt sweep.Point) (computed, hit sweep.PointResult) {
	t.Helper()
	for i, dst := range []*sweep.PointResult{&computed, &hit} {
		sweep.Run([]sweep.Point{pt}, &sweep.Config{Cache: store, DiscardResults: true, OnPoint: func(r sweep.PointResult) { *dst = r }})
		if !dst.OK() || dst.Cached != (i == 1) {
			t.Fatalf("run %d: ok=%v cached=%v err=%v", i+1, dst.OK(), dst.Cached, dst.Err)
		}
	}
	return computed, hit
}

// resultMember returns the raw "result" member of a results.jsonl line.
func resultMember(t testing.TB, line []byte) json.RawMessage {
	t.Helper()
	var rec struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(line, &rec); err != nil || rec.Result == nil {
		t.Fatalf("line without a result member: %v", err)
	}
	return rec.Result
}

// TestHitSpillsAReference: a cache hit spills a small reference record
// while a computed point spills inline, and every read of the hit — frame,
// a page, the JSONL writer — is MarshalJSON's bytes, before and after the
// store is reopened from disk as a restart does.
func TestHitSpillsAReference(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := hopfSpec("ref", 4).Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	computed, hit := computedAndHit(t, store, pt)
	computed.Index, hit.Index = 0, 1
	dir := t.TempDir()
	rf := openResults(t, journalAt(dir), "j1", 2)
	var want [][]byte
	for _, r := range []*sweep.PointResult{&computed, &hit} {
		if err := rf.appendResult(r); err != nil {
			t.Fatal(err)
		}
		raw, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, raw)
	}
	for i := range want {
		rec, err := rf.log.f.ReadAt(rf.offsets[i])
		if err != nil {
			t.Fatal(err)
		}
		if ref := isRef(rec[5:]); ref != (i == 1) || ref && len(rec) > 512 {
			t.Fatalf("point %d: reference %v, record of %d bytes", i, ref, len(rec))
		}
	}
	check := func(how string, rf *resultFile) {
		t.Helper()
		pg, err := rf.page(0, 2)
		if err != nil || len(pg) != 2 {
			t.Fatalf("%s: page of %d frames, %v", how, len(pg), err)
		}
		for i := range want {
			if raw, err := rf.frame(i); err != nil || !bytes.Equal(raw, want[i]) || !bytes.Equal(pg[i], want[i]) {
				t.Fatalf("%s: point %d reads %d and %d bytes (%v), want MarshalJSON's %d", how, i, len(raw), len(pg[i]), err, len(want[i]))
			}
		}
		var body bytes.Buffer
		if err := rf.writeJSONL(&body); err != nil {
			t.Fatal(err)
		}
		if wantBody := append(bytes.Join(want, newline), '\n'); !bytes.Equal(body.Bytes(), wantBody) {
			t.Fatalf("%s: results.jsonl of %d bytes, want %d", how, body.Len(), len(wantBody))
		}
		if n, _, degraded := rf.snapshot(); n != 2 || degraded {
			t.Fatalf("%s: %d records, degraded %v", how, n, degraded)
		}
	}
	check("live", rf)
	rf.seal()
	rf.log.close()
	rf = reopenResults(t, journalAt(dir), "j1")
	defer rf.log.close()
	check("reopened", rf)
	if files := blobFiles(t, dir); len(files) != 1 {
		t.Fatalf("blob files %v, want one", files)
	}
}

// TestOneBlobPerKeyUntilLastEviction: however many jobs hit one key, the
// server writes its blob once, serves each hit's page and JSONL with the
// computed point's result bytes, and removes the blob when the last job
// that refers to it is evicted.
func TestOneBlobPerKeyUntilLastEviction(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := New(Config{Workers: 1, Cache: store, JournalDir: dir, Retain: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	waitReady(t, ts.URL)
	run := func(spec PointSpec) string {
		t.Helper()
		_, st := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: spec})
		if done := waitState(t, ts.URL, st.ID, terminal); done.State != StateDone {
			t.Fatalf("job %s: %+v", st.ID, done)
		}
		return st.ID
	}
	lines, _ := getJSONL(t, ts.URL, run(hopfSpec("k", 6)))
	if len(lines) != 1 || len(blobFiles(t, dir)) != 0 {
		t.Fatalf("computed job: %d lines, blobs %v", len(lines), blobFiles(t, dir))
	}
	computed := resultMember(t, lines[0])
	for i := 0; i < 3; i++ {
		id := run(hopfSpec("k", 6))
		if files := blobFiles(t, dir); len(files) != 1 {
			t.Fatalf("hit %d: blob files %v, want one", i+1, files)
		}
		lines, code := getJSONL(t, ts.URL, id)
		pg, pcode := getResultsPage(t, ts.URL, id, 0, 1)
		if code != http.StatusOK || pcode != http.StatusOK || len(lines) != 1 || len(pg.Results) != 1 || pg.Degraded {
			t.Fatalf("hit %d: jsonl %d (%d lines), page %d %+v", i+1, code, len(lines), pcode, pg)
		}
		if !bytes.Equal(pg.Results[0], lines[0]) || !bytes.Equal(resultMember(t, lines[0]), computed) {
			t.Fatal("a hit's page, JSONL line or result member differs")
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counter("pn_serve_results_blob_writes_total", ""); n != 1 {
		t.Fatalf("%d blob writes, want 1", n)
	}
	if b := snap.Gauge("pn_serve_results_blob_bytes"); b < float64(len(computed)) {
		t.Fatalf("live blob bytes %v, want at least the payload's %d", b, len(computed))
	}
	// Retain is 4: four new jobs evict the computed job and all three hits.
	for i := 0; i < 4; i++ {
		run(hopfSpec("other", 7+float64(i)))
	}
	if files := blobFiles(t, dir); len(files) != 0 {
		t.Fatalf("blob files %v after every referring job was evicted", files)
	}
	if b := reg.Snapshot().Gauge("pn_serve_results_blob_bytes"); b != 0 {
		t.Fatalf("live blob bytes %v with no blob", b)
	}
}

// TestReplayEvictionsKeepBlobs: replay registers jobs in order and evicts
// the oldest beyond Retain as it goes. Here it evicts the only job naming a
// blob before the next one naming it is reopened; the blob must survive for
// that job, and an orphan blob no spill names must be gone after replay.
func TestReplayEvictionsKeepBlobs(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	serve := func(cfg Config) (string, func()) {
		s := New(cfg)
		ts := httptest.NewServer(s)
		waitReady(t, ts.URL)
		return ts.URL, func() { ts.Close(); s.Shutdown(context.Background()) }
	}
	base, stop := serve(Config{Workers: 1, Cache: store, JournalDir: dir})
	k, l := hopfSpec("k", 5), hopfSpec("l", 9)
	var ids []string
	for _, spec := range []PointSpec{k, k, l, k} { // computed, hit, computed, hit
		_, st := postJSON(t, base+"/v1/characterise", CharacteriseRequest{PointSpec: spec})
		if done := waitState(t, base, st.ID, terminal); done.State != StateDone {
			t.Fatalf("job %s: %+v", st.ID, done)
		}
		ids = append(ids, st.ID)
	}
	last := ids[len(ids)-1]
	want, _ := getJSONL(t, base, last)
	stop()

	orphan := filepath.Join(dir, blobSubdir, "pnfp2-"+strings.Repeat("0", 64)+walExt)
	if err := os.WriteFile(orphan, []byte("a blob whose reference never landed"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, stop = serve(Config{Workers: 1, JournalDir: dir, Retain: 1})
	defer stop()
	got, code := getJSONL(t, base, last)
	pg, _ := getResultsPage(t, base, last, 0, 1)
	if code != http.StatusOK || len(want) != 1 || len(got) != 1 || !bytes.Equal(got[0], want[0]) || pg.Degraded {
		t.Fatalf("replayed hit: status %d, %d lines (want %d), degraded %v, equal %v", code, len(got), len(want), pg.Degraded, len(got) == 1 && bytes.Equal(got[0], want[0]))
	}
	if files := blobFiles(t, dir); len(files) != 1 || files[0] != k.RoutingKey()+walExt {
		t.Fatalf("blob files after replay %v, want only %s", files, k.RoutingKey()+walExt)
	}
}

// spillRef writes a one-point job log under dir whose result record refers
// to key's blob, and returns the codec bytes it stands for.
func spillRef(t testing.TB, dir, key string, payload []byte) []byte {
	t.Helper()
	head, tail := []byte(`{"index":0,"name":"p","result":`), []byte(`,"wall_ns":1,"cached":true}`)
	rf := openResults(t, journalAt(dir), "j1", 1)
	if err := rf.spill(0, key, "token", [][]byte{head, payload, tail}); err != nil {
		t.Fatal(err)
	}
	if rec, _ := rf.log.f.ReadAt(rf.offsets[0]); !isRef(rec[5:]) {
		t.Fatal("the point spilled inline")
	}
	rf.seal()
	rf.log.close()
	return bytes.Join([][]byte{head, payload, tail}, nil)
}

// TestBlobCrashPoints cuts the blob under a sealed reference at every byte,
// or zeroes it from there, and reopens the spill as a restart does. Only
// the whole blob serves the reference; any torn one drops it from the
// index, reads as degraded and never as other bytes, and the next hit
// writes the blob afresh.
func TestBlobCrashPoints(t *testing.T) {
	dir := t.TempDir()
	key := "pnfp2-" + strings.Repeat("ab", 32)
	payload := []byte(`{"pss":{"T":6.283185307179586},"c":1.0132118364233778e-05}`)
	want := spillRef(t, dir, key, payload)
	p := journalAt(dir).blobs.path(key)
	full, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	tails := map[string]func(k int) []byte{
		"cut":   func(k int) []byte { return nil },
		"zeros": func(k int) []byte { return make([]byte, len(full)-k) },
	}
	for name, tail := range tails {
		for k := 0; k <= len(full); k++ {
			if err := os.WriteFile(p, append(full[:k:k], tail(k)...), 0o644); err != nil {
				t.Fatal(err)
			}
			jl := journalAt(dir)
			rf := reopenResults(t, jl, "j1")
			got, err := rf.frame(0)
			n, _, degraded := rf.snapshot()
			rf.log.close()
			if k == len(full) {
				if err != nil || !bytes.Equal(got, want) || n != 1 || degraded {
					t.Fatalf("%s at %d, whole blob: %d bytes (%v), %d records, degraded %v", name, k, len(got), err, n, degraded)
				}
				continue
			}
			if err != nil || got != nil || n != 0 || !degraded {
				t.Fatalf("%s at %d: read %d bytes (%v), %d records, degraded %v; want a dropped reference", name, k, len(got), err, n, degraded)
			}
			if name != "cut" {
				continue
			}
			if ok, err := jl.blobs.acquire(key, "token", payload); !ok || err != nil {
				t.Fatalf("cut at %d: a new hit could not write the blob: %v", k, err)
			}
			if rec, err := wal.ReadFirst(p); err != nil || !bytes.Equal(rec, append([]byte(key+"\n"), payload...)) {
				t.Fatalf("cut at %d: the rewritten blob reads %q, %v", k, rec, err)
			}
		}
	}
}

// TestBrokenBlobReadsDegraded: a reference whose blob is missing, torn or
// holds another key is dropped when its spill reopens — counted as a
// corrupt record, and the file reads as degraded. A blob lost under a live
// file is a read error on every read path, never other bytes.
func TestBrokenBlobReadsDegraded(t *testing.T) {
	key, other := "pnfp2-"+strings.Repeat("1", 64), "pnfp2-"+strings.Repeat("2", 64)
	payload := []byte(`{"c":1e-9}`)
	breaks := map[string]func(t *testing.T, dir string){
		"missing": func(t *testing.T, dir string) { os.Remove(journalAt(dir).blobs.path(key)) },
		"torn": func(t *testing.T, dir string) {
			p := journalAt(dir).blobs.path(key)
			info, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			os.Truncate(p, info.Size()-1)
		},
		"foreign": func(t *testing.T, dir string) {
			bs := journalAt(dir).blobs
			if _, err := bs.write(other, payload); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(bs.path(other), bs.path(key)); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breakBlob := range breaks {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			obs.SetGlobal(reg)
			defer obs.SetGlobal(nil)
			dir := t.TempDir()
			spillRef(t, dir, key, payload)
			breakBlob(t, dir)
			rf := reopenResults(t, journalAt(dir), "j1")
			defer rf.log.close()
			raw, err := rf.frame(0)
			n, _, degraded := rf.snapshot()
			if err != nil || raw != nil || n != 0 || !degraded {
				t.Fatalf("read %q (%v), %d records, degraded %v; want a dropped reference", raw, err, n, degraded)
			}
			if c := reg.Snapshot().Counter("pn_serve_journal_corrupt_records_total", ""); c != 1 {
				t.Fatalf("%d corrupt records counted, want 1", c)
			}
		})
	}

	dir := t.TempDir()
	jl := journalAt(dir)
	rf := openResults(t, jl, "j1", 1)
	defer rf.log.close()
	if err := rf.spill(0, key, "token", [][]byte{[]byte(`{"index":0,"result":`), payload, []byte(`}`)}); err != nil {
		t.Fatal(err)
	}
	os.Remove(jl.blobs.path(key))
	if raw, err := rf.frame(0); err == nil {
		t.Fatalf("frame over a lost blob read %q", raw)
	}
	if _, err := rf.page(0, 1); err == nil {
		t.Fatal("page over a lost blob did not fail")
	}
	var body bytes.Buffer
	if err := rf.writeJSONL(&body); err == nil || body.Len() != 0 {
		t.Fatalf("results.jsonl over a lost blob wrote %d bytes (%v)", body.Len(), err)
	}
}

// TestChaosBlobWriteFault: serve.results.write fires for a record and again
// for the blob write of a first hit. A failed blob write degrades the spill
// as a failed append does: the point is not spilled, no blob file or count
// is left behind, and later appends no-op.
func TestChaosBlobWriteFault(t *testing.T) {
	defer faultinject.Enable(faultinject.Plan{
		faultinject.ServeResultsWrite: {Mode: faultinject.ModeError, After: 1, Count: 1},
	})()
	dir := t.TempDir()
	jl := journalAt(dir)
	rf := openResults(t, jl, "j1", 2)
	defer rf.log.close()
	key := "pnfp2-" + strings.Repeat("4", 64)
	parts := [][]byte{[]byte(`{"index":0,"result":`), []byte(`{"c":1e-9}`), []byte(`}`)}
	if err := rf.spill(0, key, "token", parts); err == nil {
		t.Fatal("a failed blob write was not reported")
	}
	if err := rf.spill(1, key, "token", parts); err != nil {
		t.Fatalf("an append after the failure: %v", err)
	}
	if n, _, degraded := rf.snapshot(); n != 0 || !degraded {
		t.Fatalf("%d records, degraded %v; want none and degraded", n, degraded)
	}
	if files := blobFiles(t, dir); len(files) != 0 || jl.blobs.blobs[key] != nil {
		t.Fatalf("blob files %v and entry %+v left by a failed write", files, jl.blobs.blobs[key])
	}
}

// TestBlobHoldsOneByteString: a hit whose payload differs from the live
// blob of its key (a recomputation, or another process's disk-tier entry)
// spills inline, and a hit carrying bytes equal to the blob under a new
// token still refers to it.
func TestBlobHoldsOneByteString(t *testing.T) {
	dir := t.TempDir()
	key := "pnfp2-" + strings.Repeat("3", 64)
	head, tail := []byte(`{"index":0,"result":`), []byte(`}`)
	jl := journalAt(dir)
	rf := openResults(t, jl, "j1", 3)
	defer rf.log.close()
	payloads := [][]byte{[]byte(`{"c":1e-9}`), []byte(`{"c":2e-9}`), []byte(`{"c":1e-9}`)}
	for i, p := range payloads {
		if err := rf.spill(i, key, fmt.Sprint("token", i), [][]byte{head, p, tail}); err != nil {
			t.Fatal(err)
		}
		rec, err := rf.log.f.ReadAt(rf.offsets[i])
		if err != nil {
			t.Fatal(err)
		}
		if ref := isRef(rec[5:]); ref != (i != 1) {
			t.Fatalf("point %d: reference %v", i, ref)
		}
		if raw, err := rf.frame(i); err != nil || !bytes.Equal(raw, bytes.Join([][]byte{head, p, tail}, nil)) {
			t.Fatalf("point %d reads %q, %v", i, raw, err)
		}
	}
	if b := jl.blobs.blobs[key]; b == nil || b.refs != 2 {
		t.Fatalf("blob entry %+v, want two references", b)
	}
}

// TestConcurrentFirstHitsRaceEvictions runs two clients' hits of two keys
// against a server that retains one job, so the last job naming a key is
// evicted while another job's first hit of it writes the blob again. Run
// with -race. Every line served is the key's computed result, and once all
// hitting jobs are evicted no blob is left.
func TestConcurrentFirstHitsRaceEvictions(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Cache: store, Retain: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	specs := []PointSpec{hopfSpec("a", 11), hopfSpec("b", 12)}
	computed := make([]json.RawMessage, len(specs))
	for i, spec := range specs {
		_, st := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: spec})
		waitState(t, ts.URL, st.ID, terminal)
		lines, _ := getJSONL(t, ts.URL, st.ID)
		if len(lines) != 1 {
			t.Fatalf("computed job %s: %d lines", st.ID, len(lines))
		}
		computed[i] = resultMember(t, lines[0])
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (c + i) % len(specs)
				body, _ := json.Marshal(CharacteriseRequest{PointSpec: specs[k]})
				resp, err := http.Post(ts.URL+"/v1/characterise", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var st JobStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				// The job may be evicted before or while it is read: then it
				// serves no line, never a wrong one.
				for _, line := range jsonlLines(ts.URL, st.ID) {
					var rec struct {
						Result json.RawMessage `json:"result"`
					}
					if err := json.Unmarshal(line, &rec); err != nil || !bytes.Equal(rec.Result, computed[k]) {
						t.Errorf("job %s served a line that is not key %d's result (%v)", st.ID, k, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	// Two computed jobs push every hitting job out, and their blobs with them.
	for i := 0; i < 2; i++ {
		_, st := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("c", 13+float64(i))})
		waitState(t, ts.URL, st.ID, terminal)
	}
	if files := blobFiles(t, s.journal.dir); len(files) != 0 {
		t.Fatalf("blob files %v with no job referring to them", files)
	}
}

// jsonlLines reads a job's results.jsonl once it is terminal; nil when the
// job is gone or its stream fails.
func jsonlLines(base, id string) [][]byte {
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return nil
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil
		}
		if terminal(st) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(base + "/v1/jobs/" + id + "/results.jsonl")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK || body.Len() == 0 {
		return nil
	}
	return bytes.Split(bytes.TrimSuffix(body.Bytes(), newline), newline)
}

// FuzzReferenceRecord replays a one-point job log whose result record body,
// and the blob record it may refer to, come from the fuzzer; the blob is
// framed as the store writes it and then torn by tear bytes. Nothing
// panics, and a point that reads at all is either its inline body or a
// reference's head, payload and tail, the payload from an intact blob that
// holds the reference's own key. Anything else reads as an error or as a
// dropped point of a degraded file.
func FuzzReferenceRecord(f *testing.F) {
	key := "pnfp2-" + strings.Repeat("c", 64)
	head := []byte(`{"index":0,"name":"p","result":`)
	ref := append(appendRefHeader(nil, key, len(head)), head...)
	ref = append(ref, `,"wall_ns":1,"cached":true}`...)
	blob := []byte(key + "\n" + `{"c":1e-9}`)
	f.Add(ref, blob, uint16(0))
	f.Add(ref, blob, uint16(2))
	f.Add(ref, []byte("pnfp2-"+strings.Repeat("d", 64)+"\n{}"), uint16(0))
	f.Add(ref[:len(ref)/2], blob, uint16(0))
	f.Add([]byte(`{"index":0}`), blob, uint16(0))
	f.Add([]byte{refMark}, []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, body, blob []byte, tear uint16) {
		dir := t.TempDir()
		jl := journalAt(dir)
		l := jl.create(jrecord{ID: "j1", Kind: "sweep", Specs: make([]PointSpec, 1)})
		if _, err := l.append(false, []byte{kindResult, 0, 0, 0, 0}, body); err != nil {
			t.Fatal(err)
		}
		l.close()
		if len(blob) > 0 {
			p := jl.blobs.path(key)
			log, _, err := wal.Open(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = log.Append(blob)
			log.Close()
			if err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(p, max(0, info.Size()-int64(tear))); err != nil {
				t.Fatal(err)
			}
		}
		rf := reopenResults(t, jl, "j1")
		defer rf.log.close()
		got, err := rf.frame(0)
		if err != nil || got == nil {
			return
		}
		if !isRef(body) {
			if !bytes.Equal(got, body) {
				t.Fatalf("inline body %q read as %q", body, got)
			}
			return
		}
		k, h, tail, ok := splitRef(body)
		if !ok {
			t.Fatalf("malformed reference %q read as %q", body, got)
		}
		rec, err := wal.ReadFirst(jl.blobs.path(k))
		if err != nil || !bytes.HasPrefix(rec, []byte(k+"\n")) {
			t.Fatalf("reference to %s read as %q without an intact blob of that key (%v)", k, got, err)
		}
		if want := bytes.Join([][]byte{h, rec[len(k)+1:], tail}, nil); !bytes.Equal(got, want) {
			t.Fatalf("reference read as %q, want %q", got, want)
		}
	})
}
