package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/wal"
)

// writeJournalFile hand-crafts one journal, record by record, simulating
// on-disk state left behind by a crashed server.
func writeJournalFile(t *testing.T, dir, name string, recs []jrecord) {
	t.Helper()
	log, _, err := wal.Open(filepath.Join(dir, name), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitReady polls /readyz until it answers 200.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// readSSEFrom is readSSE with a Last-Event-ID header: resume the stream after
// sequence number `after`.
func readSSEFrom(t *testing.T, base, id string, after int64) []Event {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			out = append(out, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// postJSONKey is postJSON with an Idempotency-Key header.
func postJSONKey(t *testing.T, url, key string, v any) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp, st
}

// TestJournalRecoveryTerminal restores a finished job from a journal that
// ends in its terminal event: status (state, counters, summaries) and the
// replayable SSE stream come back exactly as they were, and the ID space
// continues past it.
func TestJournalRecoveryTerminal(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	dir := t.TempDir()
	sum0 := PointSummary{Index: 0, Name: "p0", OK: true, T: 1.25, F0: 0.8, C: 3e-9}
	sum1 := PointSummary{Index: 1, Name: "p1", OK: true, Cached: true, T: 1.5, F0: 0.66, C: 4e-9}
	writeJournalFile(t, dir, "j7"+walExt, []jrecord{
		{V: 1, T: "accepted", ID: "j7", Kind: "sweep", Specs: []PointSpec{hopfSpec("p0", 3), hopfSpec("p1", 4)}},
		{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
		{V: 1, T: "event", Ev: &Event{Seq: 2, Type: "state", State: StateRunning}},
		{V: 1, T: "event", Ev: &Event{Seq: 3, Type: "point", Point: &sum0}},
		{V: 1, T: "event", Ev: &Event{Seq: 4, Type: "point", Point: &sum1}},
		{V: 1, T: "event", Ev: &Event{Seq: 5, Type: "state", State: StateDone}},
	})

	s := New(Config{Workers: 1, JournalDir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	waitReady(t, ts.URL)

	st := getStatus(t, ts.URL, "j7", false)
	if st.State != StateDone || st.Points != 2 || st.DonePoints != 2 || st.CachedPoints != 1 || st.FailedPoints != 0 {
		t.Fatalf("recovered status: %+v", st)
	}
	if len(st.Results) != 2 || st.Results[0].C != 3e-9 || !st.Results[1].Cached {
		t.Fatalf("recovered summaries: %+v", st.Results)
	}

	// The event stream replays in full and closes (the job is terminal).
	evs := readSSE(t, ts.URL, "j7")
	if len(evs) != 5 || evs[0].Seq != 1 || evs[4].State != StateDone {
		t.Fatalf("recovered events: %+v", evs)
	}

	// New submissions continue the ID space past the recovered job.
	_, next := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("next", 5)})
	if next.ID != "j8" {
		t.Fatalf("next job ID %q, want j8 (after recovered j7)", next.ID)
	}
	waitState(t, ts.URL, next.ID, terminal)

	if got := reg.Snapshot().Counter("pn_serve_jobs_recovered_total", "terminal"); got != 1 {
		t.Fatalf("recovered{terminal} = %d, want 1", got)
	}
}

// TestJournalRecoveryResume is the headline crash-recovery path in-process: a
// journal left by a "crashed" server (header, partial progress, torn tail)
// is re-enqueued on startup and runs to completion with every pre-crash
// point served from the result cache — the pipeline is never re-invoked —
// while the SSE stream stays resumable across the restart via
// Last-Event-ID. A second restart then finds the job finished: the resumed
// run appended after the cut tail, not onto the torn record.
func TestJournalRecoveryResume(t *testing.T) {
	specs := []PointSpec{hopfSpec("p0", 3), hopfSpec("p1", 4), hopfSpec("p2", 5)}
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: compute all three points into the shared store ("before the
	// crash"); this server has no journal.
	warm := New(Config{Workers: 2, Cache: store})
	tsw := httptest.NewServer(warm)
	_, wst := postJSON(t, tsw.URL+"/v1/sweep", SweepRequest{Points: specs})
	waitState(t, tsw.URL, wst.ID, terminal)
	tsw.Close()
	warm.Shutdown(context.Background())

	// Phase 2: the crash artifact — a journal with partial progress whose
	// last record is torn, as a kill mid-write leaves behind.
	dir := t.TempDir()
	sum0 := PointSummary{Index: 0, Name: "p0", OK: true, T: 1, F0: 1, C: 1e-9}
	sum1 := PointSummary{Index: 1, Name: "p1", OK: true, T: 1, F0: 1, C: 1e-9}
	writeJournalFile(t, dir, "j3"+walExt, []jrecord{
		{V: 1, T: "accepted", ID: "j3", Kind: "sweep", Specs: specs},
		{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
		{V: 1, T: "event", Ev: &Event{Seq: 2, Type: "state", State: StateRunning}},
		{V: 1, T: "event", Ev: &Event{Seq: 3, Type: "point", Point: &sum0}},
		{V: 1, T: "event", Ev: &Event{Seq: 4, Type: "point", Point: &sum1}},
	})
	jpath := filepath.Join(dir, "j3"+walExt)
	info, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jpath, info.Size()-10); err != nil { // torn mid-record
		t.Fatal(err)
	}

	// Phase 3: restart over the same journal + cache. Count pipeline work
	// from here only.
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	s := New(Config{Workers: 1, Cache: store, JournalDir: dir})
	ts := httptest.NewServer(s)
	waitReady(t, ts.URL)

	st := waitState(t, ts.URL, "j3", terminal)
	if st.State != StateDone || st.DonePoints != 3 || st.FailedPoints != 0 {
		t.Fatalf("resumed job status: %+v", st)
	}
	if st.CachedPoints != 3 {
		t.Fatalf("resumed job recomputed: %d cached points, want 3", st.CachedPoints)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("pn_core_characterisations_total", "ok"); got != 0 {
		t.Fatalf("resume re-ran the pipeline %d times, want 0", got)
	}
	if got := snap.Counter("pn_serve_jobs_recovered_total", "resumed"); got != 1 {
		t.Fatalf("recovered{resumed} = %d, want 1", got)
	}
	if got := snap.Counter("pn_serve_journal_corrupt_records_total", ""); got < 1 {
		t.Fatalf("torn tail not counted: corrupt records = %d", got)
	}

	// A client that saw events 1..2 before the crash reconnects with
	// Last-Event-ID: 2 and gets the restored point event (seq 3), the fresh
	// queued/running transitions, every point re-reported as a cache hit, and
	// the terminal state — one contiguous sequence across the restart.
	evs := readSSEFrom(t, ts.URL, "j3", 2)
	if len(evs) == 0 || evs[0].Seq != 3 {
		t.Fatalf("replay after seq 2 starts at %+v", evs)
	}
	for i, ev := range evs {
		if ev.Seq != int64(3+i) {
			t.Fatalf("gap in replayed sequence at %d: %+v", i, ev)
		}
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("stream did not end terminal: %+v", last)
	}
	var resumedQueued, points int
	for _, ev := range evs[1:] { // after the restored history
		switch ev.Type {
		case "state":
			if ev.State == StateQueued {
				resumedQueued++
			}
		case "point":
			if !ev.Point.Cached {
				t.Fatalf("re-reported point not cached: %+v", ev.Point)
			}
			points++
		}
	}
	if resumedQueued != 1 || points != 3 {
		t.Fatalf("resumption events: %d queued, %d points (want 1, 3)", resumedQueued, points)
	}
	ts.Close()
	s.Shutdown(context.Background())

	// Phase 4: a second restart over the same directories restores j3 as
	// the finished job it is, and runs nothing.
	reg2 := obs.NewRegistry()
	obs.SetGlobal(reg2)
	s2 := New(Config{Workers: 1, Cache: store, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)
	st2 := getStatus(t, ts2.URL, "j3", false)
	if st2.State != StateDone || st2.DonePoints != 3 || st2.FailedPoints != 0 {
		t.Fatalf("second restart restored j3 as %+v, want done with 3 points", st2)
	}
	snap2 := reg2.Snapshot()
	if got := snap2.Counter("pn_serve_jobs_recovered_total", "terminal"); got != 1 {
		t.Fatalf("second restart: recovered{terminal} = %d, want 1", got)
	}
	if got := snap2.Counter("pn_core_characterisations_total", "ok"); got != 0 {
		t.Fatalf("second restart ran the pipeline %d times, want 0", got)
	}
}

// TestJournalConcurrentPointsReplay journals sweeps whose every attempt
// fails at its start (the sweep.attempt fault), the cheapest points there
// are: on a four-slot server each job's point events come from several slots
// within microseconds of each other. After a restart over the same
// directory every job must come back terminal with the contiguous 1..n
// history it streamed live, and replay must skip no record as corrupt. Run
// it with -race -count=10.
func TestJournalConcurrentPointsReplay(t *testing.T) {
	const n, jobs = 64, 8
	specs := make([]PointSpec, n)
	for i := range specs {
		specs[i] = hopfSpec("p"+strconv.Itoa(i), 2+float64(i)/4)
	}
	dir := t.TempDir()

	restore := faultinject.Enable(faultinject.Plan{faultinject.SweepAttempt: {Mode: faultinject.ModeError}})
	defer restore()
	s := New(Config{Workers: 4, JournalDir: dir})
	ts := httptest.NewServer(s)
	var ids []string
	for i := 0; i < jobs; i++ {
		_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: specs})
		ids = append(ids, st.ID)
	}
	live := make(map[string][]Event)
	for _, id := range ids {
		if st := waitState(t, ts.URL, id, terminal); st.State != StateDone || st.FailedPoints != n {
			t.Fatalf("job %s: %+v, want done with %d failed points", id, st, n)
		}
		live[id] = readSSE(t, ts.URL, id)
	}
	ts.Close()
	s.Shutdown(context.Background())
	restore()

	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	s2 := New(Config{Workers: 4, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)

	for _, id := range ids {
		if st := getStatus(t, ts2.URL, id, false); st.State != StateDone || st.DonePoints != n {
			t.Fatalf("restored job %s: %+v, want done with %d points", id, st, n)
		}
		evs := readSSE(t, ts2.URL, id)
		if len(evs) != len(live[id]) {
			t.Fatalf("job %s: %d events restored, %d streamed live", id, len(evs), len(live[id]))
		}
		for i, ev := range evs {
			if ev.Seq != int64(i+1) || ev.Type != live[id][i].Type {
				t.Fatalf("job %s: restored event %d is %+v, streamed live as %+v", id, i, ev, live[id][i])
			}
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("pn_serve_journal_corrupt_records_total", ""); got != 0 {
		t.Fatalf("replay skipped %d journal records as corrupt, want 0", got)
	}
	if got := snap.Counter("pn_serve_jobs_recovered_total", "terminal"); got != jobs {
		t.Fatalf("recovered{terminal} = %d, want %d", got, jobs)
	}
	if got := snap.Counter("pn_serve_jobs_recovered_total", "resumed"); got != 0 {
		t.Fatalf("recovered{resumed} = %d, want 0: a finished job was re-run", got)
	}
}

// TestJournalIdempotency covers the Idempotency-Key contract: duplicate
// submissions return the existing job (200, not a new 202), a reused key with
// a different body is rejected, and the mapping survives a restart through
// the journal header.
func TestJournalIdempotency(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	dir := t.TempDir()
	s := New(Config{Workers: 1, JournalDir: dir})
	ts := httptest.NewServer(s)
	waitReady(t, ts.URL)

	req := CharacteriseRequest{PointSpec: hopfSpec("idem", 3)}
	resp1, st1 := postJSONKey(t, ts.URL+"/v1/characterise", "key-1", req)
	if resp1.StatusCode != http.StatusAccepted || st1.ID == "" {
		t.Fatalf("first submit: %d %+v", resp1.StatusCode, st1)
	}

	// Same key, same body: replay, whatever state the job is in.
	resp2, st2 := postJSONKey(t, ts.URL+"/v1/characterise", "key-1", req)
	if resp2.StatusCode != http.StatusOK || st2.ID != st1.ID {
		t.Fatalf("duplicate submit: %d %+v (want 200, id %s)", resp2.StatusCode, st2, st1.ID)
	}
	if resp2.Header.Get("Idempotent-Replay") != "true" {
		t.Fatal("duplicate submit missing Idempotent-Replay header")
	}

	// Same key, different body: client bug, rejected.
	resp3, _ := postJSONKey(t, ts.URL+"/v1/characterise", "key-1", CharacteriseRequest{PointSpec: hopfSpec("other", 4)})
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched body: %d, want 409", resp3.StatusCode)
	}

	waitState(t, ts.URL, st1.ID, terminal)
	ts.Close()
	s.Shutdown(context.Background())

	// Restart: the key still maps to the (now recovered, terminal) job.
	s2 := New(Config{Workers: 1, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)

	resp4, st4 := postJSONKey(t, ts2.URL+"/v1/characterise", "key-1", req)
	if resp4.StatusCode != http.StatusOK || st4.ID != st1.ID {
		t.Fatalf("post-restart duplicate: %d id=%q (want 200, id %s)", resp4.StatusCode, st4.ID, st1.ID)
	}
	if st4.State != StateDone {
		t.Fatalf("post-restart replay state %q, want done", st4.State)
	}
	resp5, _ := postJSONKey(t, ts2.URL+"/v1/characterise", "key-1", CharacteriseRequest{PointSpec: hopfSpec("other", 4)})
	if resp5.StatusCode != http.StatusConflict {
		t.Fatalf("post-restart mismatched body: %d, want 409", resp5.StatusCode)
	}

	if got := reg.Snapshot().Counter("pn_serve_idempotent_replays_total", ""); got != 2 {
		t.Fatalf("idempotent replays = %d, want 2", got)
	}
	if got := reg.Snapshot().Counter("pn_serve_rejected_total", "idem_mismatch"); got != 2 {
		t.Fatalf("idem_mismatch rejections = %d, want 2", got)
	}
}

// TestJournalCorruptQuarantine: a journal file with an unreadable header must
// not wedge startup — it is moved aside as .corrupt, counted, and the server
// comes up ready and empty.
func TestJournalCorruptQuarantine(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j5"+walExt), []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, JournalDir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	waitReady(t, ts.URL)

	resp, err := http.Get(ts.URL + "/v1/jobs/j5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt job resurrected: %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "j5"+walExt+".corrupt")); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if got := reg.Snapshot().Counter("pn_serve_journal_corrupt_records_total", ""); got < 1 {
		t.Fatalf("corruption not counted: %d", got)
	}
	// The quarantined name must not be picked up again on the next start.
	s2 := New(Config{Workers: 1, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)
}

// TestReadyzLifecycle: /readyz is 503 while the journal replays (the window
// widened deterministically by the replay-delay fault point) and while
// draining; /healthz answers 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	dir := t.TempDir()
	writeJournalFile(t, dir, "j1"+walExt, []jrecord{
		{V: 1, T: "accepted", ID: "j1", Kind: "characterise", Specs: []PointSpec{hopfSpec("old", 3)}},
		{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
		{V: 1, T: "event", Ev: &Event{Seq: 2, Type: "state", State: StateDone}},
	})
	defer faultinject.Enable(faultinject.Plan{
		faultinject.ServeReplayDelay: {Mode: faultinject.ModeDelay, Delay: 300 * time.Millisecond},
	})()

	s := New(Config{Workers: 1, JournalDir: dir})
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during replay: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during replay: %d, want 200", code)
	}
	waitReady(t, ts.URL)

	s.Shutdown(context.Background())
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while drained: %d, want 200", code)
	}
}

// TestChaosJournalWriteFault: with every journal write failing, submissions
// still succeed and jobs still complete — durability degrades (counted), the
// service does not.
func TestChaosJournalWriteFault(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	defer faultinject.Enable(faultinject.Plan{
		faultinject.ServeJournalWrite: {Mode: faultinject.ModeError},
	})()

	dir := t.TempDir()
	s := New(Config{Workers: 1, JournalDir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	waitReady(t, ts.URL)

	resp, st := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("nojournal", 3)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit under journal fault: %d", resp.StatusCode)
	}
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateDone {
		t.Fatalf("job under journal fault: %+v", done)
	}
	if got := reg.Snapshot().Counter("pn_serve_journal_write_errors_total", ""); got < 1 {
		t.Fatalf("journal write errors = %d, want >= 1", got)
	}
	// Nothing durable was promised: no job journal survived to resurrect the
	// job. The traces/ subdirectory may hold the job's trace — trace files
	// are observability artifacts, not durability promises, and replay never
	// reads them as job journals.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), walExt) {
			t.Fatalf("job journal survived under write faults: %v", e.Name())
		}
	}
}

// TestChaosHandlerFault: the handler fault point turns every request into a
// 500 while enabled and disappears with the plan.
func TestChaosHandlerFault(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	disable := faultinject.Enable(faultinject.Plan{
		faultinject.ServeHandlerLatency: {Mode: faultinject.ModeError},
	})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted handler: %d, want 500", resp.StatusCode)
	}
	disable()

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handler after disable: %d, want 200", resp.StatusCode)
	}
}

// TestJournalCrashPoints cuts the journal of a real 2-point sweep at every
// byte offset and replays it. The file is quarantined only while the cut
// falls before the end of the header record; past that, replay recovers a
// contiguous 1..n event prefix — every complete record — and the job comes
// back terminal once the cut passes the terminal record.
func TestJournalCrashPoints(t *testing.T) {
	src := t.TempDir()
	s := New(Config{Workers: 1, JournalDir: src})
	ts := httptest.NewServer(s)
	waitReady(t, ts.URL)
	_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: []PointSpec{hopfSpec("c0", 3), hopfSpec("c1", 4)}})
	if got := waitState(t, ts.URL, st.ID, terminal); got.State != StateDone {
		t.Fatalf("sweep: %+v", got)
	}
	ts.Close()
	s.Shutdown(context.Background())

	name := st.ID + walExt
	full, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		t.Fatal(err)
	}
	// Record k ends where record k+1 starts; the last one ends the file.
	var offs []int64
	log, _, err := wal.Open(filepath.Join(src, name), func(off int64, _ []byte) { offs = append(offs, off) })
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	ends := append(offs[1:], int64(len(full)))
	if len(ends) < 6 {
		t.Fatalf("a 2-point sweep journalled %d records", len(ends))
	}

	dir := t.TempDir()
	p := filepath.Join(dir, name)
	jl := &journal{dir: dir}
	for k := 0; k <= len(full); k++ {
		os.Remove(p + ".corrupt")
		if err := os.WriteFile(p, full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		complete := 0
		for _, end := range ends {
			if end <= int64(k) {
				complete++
			}
		}
		recs := jl.replay()
		_, qerr := os.Stat(p + ".corrupt")
		if complete == 0 {
			if len(recs) != 0 || qerr != nil {
				t.Fatalf("cut at %d inside the header: %d jobs recovered, quarantine err %v", k, len(recs), qerr)
			}
			continue
		}
		if len(recs) != 1 || qerr == nil {
			t.Fatalf("cut at %d: %d jobs recovered, quarantined %v", k, len(recs), qerr == nil)
		}
		rj := recs[0]
		if rj.hdr.ID != st.ID || len(rj.events) != complete-1 {
			t.Fatalf("cut at %d: job %q with %d events, want %q with %d", k, rj.hdr.ID, len(rj.events), st.ID, complete-1)
		}
		for i, ev := range rj.events {
			if ev.Seq != int64(i)+1 {
				t.Fatalf("cut at %d: event %d has seq %d", k, i, ev.Seq)
			}
		}
		if wantTerminal := complete == len(ends); rj.terminal != wantTerminal {
			t.Fatalf("cut at %d of %d: terminal %v, want %v", k, len(full), rj.terminal, wantTerminal)
		}
	}
}

// FuzzJournalReplay feeds replay arbitrary records (one per input line,
// framed as a journal would be) and an arbitrary torn tail. Replay must
// never panic, and what it recovers must be well formed: a header naming
// the file, a contiguous 1..n event prefix, and a terminal flag that agrees
// with the last state — or no job at all, with the file quarantined.
func FuzzJournalReplay(f *testing.F) {
	sum := PointSummary{Index: 0, Name: "p0", OK: true, T: 1, F0: 1, C: 1e-9}
	var seed bytes.Buffer
	for _, r := range []jrecord{
		{V: 1, T: "accepted", ID: "j1", Kind: "sweep", Specs: []PointSpec{hopfSpec("p0", 3)}},
		{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
		{V: 1, T: "event", Ev: &Event{Seq: 2, Type: "state", State: StateRunning}},
		{V: 1, T: "event", Ev: &Event{Seq: 3, Type: "point", Point: &sum}},
		{V: 1, T: "event", Ev: &Event{Seq: 4, Type: "state", State: StateDone}},
		{V: 1, T: "event", Ev: &Event{Seq: 5, Type: "state", State: StateRunning}},
	} {
		data, _ := json.Marshal(r)
		seed.Write(append(data, '\n'))
	}
	f.Add(seed.Bytes(), uint16(0))
	f.Add(seed.Bytes(), uint16(9))
	f.Add(seed.Bytes()[:len(seed.Bytes())/2], uint16(0))
	f.Add([]byte("not json at all\n"), uint16(0))
	f.Add([]byte(`{"v":1,"t":"accepted","id":"j2","kind":"sweep","specs":[{}]}`), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, tear uint16) {
		dir := t.TempDir()
		p := filepath.Join(dir, "j1"+walExt)
		log, _, err := wal.Open(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > 0 {
				if _, err := log.Append(line); err != nil {
					t.Fatal(err)
				}
			}
		}
		log.Close()
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(p, max(0, info.Size()-int64(tear))); err != nil {
			t.Fatal(err)
		}
		recs := (&journal{dir: dir}).replay()
		if len(recs) == 0 {
			if _, err := os.Stat(p + ".corrupt"); err != nil {
				t.Fatalf("nothing recovered and nothing quarantined: %v", err)
			}
			return
		}
		rj := recs[0]
		if len(recs) != 1 || rj.hdr.ID != "j1" || rj.hdr.T != "accepted" {
			t.Fatalf("recovered %d jobs, first %+v", len(recs), rj.hdr)
		}
		for i, ev := range rj.events {
			if ev.Seq != int64(i)+1 {
				t.Fatalf("event %d has seq %d", i, ev.Seq)
			}
		}
		terminalState := rj.state == StateDone || rj.state == StateFailed || rj.state == StateCanceled
		if rj.terminal != terminalState {
			t.Fatalf("terminal %v with last state %q", rj.terminal, rj.state)
		}
	})
}
