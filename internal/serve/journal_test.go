package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// TestJournalIdempotencyRace: submissions racing under one Idempotency-Key
// create one job. The first writes its log outside the server lock with the
// key reserved; every other gets that job (200, Idempotent-Replay) or a 409.
func TestJournalIdempotencyRace(t *testing.T) {
	s := New(Config{Workers: 1, JournalDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	waitReady(t, ts.URL)

	body, err := json.Marshal(CharacteriseRequest{PointSpec: hopfSpec("race", 3)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	type reply struct {
		code   int
		replay string
		id     string
		err    error
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("POST", ts.URL+"/v1/characterise", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("Idempotency-Key", "race-key")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				replies[i].err = err
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if resp.StatusCode < 300 {
				err = json.NewDecoder(resp.Body).Decode(&st)
			}
			replies[i] = reply{resp.StatusCode, resp.Header.Get("Idempotent-Replay"), st.ID, err}
		}()
	}
	wg.Wait()
	created := ""
	for _, r := range replies {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code == http.StatusAccepted {
			if created != "" {
				t.Fatalf("two jobs under one key: %s and %s", created, r.id)
			}
			created = r.id
		}
	}
	if created == "" {
		t.Fatalf("no submission was accepted: %+v", replies)
	}
	for _, r := range replies {
		switch {
		case r.code == http.StatusAccepted, r.code == http.StatusConflict:
		case r.code == http.StatusOK && r.replay == "true" && r.id == created:
		default:
			t.Errorf("racing submit got %d (replay %q, id %q), want 202 once, then 200 for %s or 409", r.code, r.replay, r.id, created)
		}
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 1 {
		t.Fatalf("%d jobs registered, want 1", jobs)
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
	// Nothing durable was promised: a job whose header could not be written
	// has no log, so nothing survives to resurrect it.
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

// replayDir reads every log under dir as replay does, closing each, and
// returns the recovered jobs in submission order.
func replayDir(t testing.TB, dir string) []recoveredJob {
	t.Helper()
	jl := journalAt(dir)
	var out []recoveredJob
	for _, id := range jl.logIDs() {
		if rj, ok := jl.recover(id); ok {
			rj.log.close()
			out = append(out, rj)
		}
	}
	return out
}

// TestJournalOneFilePerJob: on a journalled server a characterise, a sweep
// and a compose each keep exactly one file, <id>.wal, beside blobs/, and
// the evicted jobs leave no file behind.
func TestJournalOneFilePerJob(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := New(Config{Workers: 1, Cache: store, JournalDir: dir, Retain: 3})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	waitReady(t, ts.URL)
	run := func(path string, body any) string {
		t.Helper()
		_, st := postJSON(t, ts.URL+path, body)
		if done := waitState(t, ts.URL, st.ID, terminal); done.State != StateDone {
			t.Fatalf("%s job %s: %+v", path, st.ID, done)
		}
		return st.ID
	}
	check := func(what string, ids []string) {
		t.Helper()
		want := []string{blobSubdir}
		for _, id := range ids {
			want = append(want, id+walExt)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range ents {
			got = append(got, e.Name())
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: the journal directory holds %v, want %v", what, got, want)
		}
	}
	leg := hopfSpec("leg", 3)
	check("retained", []string{
		run("/v1/characterise", CharacteriseRequest{PointSpec: leg}),
		run("/v1/sweep", SweepRequest{Points: []PointSpec{leg, hopfSpec("p1", 4)}}),
		run("/v1/compose", composeReq(leg, 0.02)),
	})
	if files := blobFiles(t, dir); len(files) != 1 {
		t.Fatalf("blob files %v, want the leg's", files)
	}
	var later []string
	for i := 0; i < 3; i++ {
		later = append(later, run("/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("e", 5+float64(i))}))
	}
	check("after eviction", later)
	if files := blobFiles(t, dir); len(files) != 0 {
		t.Fatalf("blob files %v after every job naming them was evicted", files)
	}
}

// TestJournalDrainMidReplayClosesLogs: a drain that begins while replay is
// held back (serve.replay.delay) stops the replayer at the first unfinished
// job, which gives its log up again: the process keeps no descriptor open
// under the journal directory, and both unfinished jobs keep their logs for
// the next start.
func TestJournalDrainMidReplayClosesLogs(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to list open descriptors")
	}
	dir := t.TempDir()
	ids := []string{"j1", "j2"}
	for _, id := range ids {
		writeJournalFile(t, dir, id+walExt, []jrecord{
			{V: 1, T: "accepted", ID: id, Kind: "characterise", Specs: []PointSpec{hopfSpec(id, 3)}},
			{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
		})
	}
	defer faultinject.Enable(faultinject.Plan{
		faultinject.ServeReplayDelay: {Mode: faultinject.ModeDelay, Delay: 300 * time.Millisecond},
	})()
	s := New(Config{Workers: 1, JournalDir: dir})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			t.Errorf("descriptor %s is still open on %s", fd.Name(), target)
		}
	}
	for _, id := range ids {
		if _, err := os.Stat(filepath.Join(dir, id+walExt)); err != nil {
			t.Errorf("the log of %s is gone: %v", id, err)
		}
	}
}

// TestJournalCrashPoints cuts the log of a real 2-point sweep — header,
// events, spans, a reference result (a cache hit) and an inline one (a
// point whose every attempt failed) — at every byte offset and replays it.
// The file is quarantined only while the cut falls before the end of the
// header record; past that, replay recovers exactly the complete records of
// each kind before the cut: a contiguous 1..n event prefix, every span, and
// every result whose record is complete and no other. The job comes back
// terminal once the cut passes the terminal event.
func TestJournalCrashPoints(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	s := New(Config{Workers: 1, Cache: store, JournalDir: src})
	ts := httptest.NewServer(s)
	waitReady(t, ts.URL)
	hit := hopfSpec("c0", 3)
	_, warm := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hit})
	waitState(t, ts.URL, warm.ID, terminal)
	restore := faultinject.Enable(faultinject.Plan{faultinject.SweepAttempt: {Mode: faultinject.ModeError}})
	_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: []PointSpec{hit, hopfSpec("c1", 4)}})
	got := waitState(t, ts.URL, st.ID, terminal)
	restore()
	ts.Close()
	s.Shutdown(context.Background())
	if got.State != StateDone || got.CachedPoints != 1 || got.FailedPoints != 1 {
		t.Fatalf("sweep: %+v, want one cache hit and one failed point", got)
	}

	name := st.ID + walExt
	full, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		t.Fatal(err)
	}
	// Each record's offset, end and kind; a result record's point; and the
	// number of JSON (header and event) records, the last of which is the
	// terminal event.
	type record struct {
		off, end int64
		kind     byte
		point    int
	}
	var recs []record
	jsonRecs, refs := 0, 0
	log, _, err := wal.Open(filepath.Join(src, name), func(off int64, rec []byte) {
		r := record{off: off, kind: rec[0]}
		switch rec[0] {
		case kindResult:
			r.point = int(binary.BigEndian.Uint32(rec[1:]))
			if isRef(rec[5:]) {
				refs++
			}
		case kindSpan:
		default:
			jsonRecs++
		}
		recs = append(recs, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	kinds := map[byte]int{}
	for i := range recs {
		recs[i].end = int64(len(full))
		if i+1 < len(recs) {
			recs[i].end = recs[i+1].off
		}
		kinds[recs[i].kind]++
	}
	if jsonRecs < 6 || kinds[kindSpan] == 0 || kinds[kindResult] != 2 || refs != 1 {
		t.Fatalf("the sweep logged %d JSON records, %d spans, %d results (%d references)", jsonRecs, kinds[kindSpan], kinds[kindResult], refs)
	}

	// Replay finds the reference's blob where the restarted server would.
	dir := t.TempDir()
	blobs := blobFiles(t, src)
	if len(blobs) != 1 {
		t.Fatalf("blob files %v, want one", blobs)
	}
	jl := journalAt(dir)
	data, err := os.ReadFile(filepath.Join(src, blobSubdir, blobs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, blobSubdir, blobs[0]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	for k := 0; k <= len(full); k++ {
		os.Remove(p + ".corrupt")
		if err := os.WriteFile(p, full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		events, spans, results := -1, 0, map[int]int64{}
		for _, r := range recs {
			if r.end > int64(k) {
				break
			}
			switch r.kind {
			case kindSpan:
				spans++
			case kindResult:
				results[r.point] = r.off
			default:
				events++ // the first JSON record is the header
			}
		}
		rj, ok := jl.recover(st.ID)
		_, qerr := os.Stat(p + ".corrupt")
		if events < 0 {
			if ok || qerr != nil {
				t.Fatalf("cut at %d inside the header: recovered %v, quarantine err %v", k, ok, qerr)
			}
			continue
		}
		if !ok || qerr == nil {
			t.Fatalf("cut at %d: recovered %v, quarantined %v", k, ok, qerr == nil)
		}
		rj.log.close()
		if rj.hdr.ID != st.ID || len(rj.events) != events || len(rj.spans) != spans {
			t.Fatalf("cut at %d: job %q with %d events and %d spans, want %q with %d and %d", k, rj.hdr.ID, len(rj.events), len(rj.spans), st.ID, events, spans)
		}
		for i, ev := range rj.events {
			if ev.Seq != int64(i)+1 {
				t.Fatalf("cut at %d: event %d has seq %d", k, i, ev.Seq)
			}
		}
		if wantTerminal := events == jsonRecs-1; rj.terminal != wantTerminal {
			t.Fatalf("cut at %d of %d: terminal %v, want %v", k, len(full), rj.terminal, wantTerminal)
		}
		n, _, degraded := rj.rf.snapshot()
		if n != len(results) || degraded {
			t.Fatalf("cut at %d: %d results (degraded %v), want %d", k, n, degraded, len(results))
		}
		for i, off := range rj.rf.offsets {
			if want, complete := results[i]; complete && off != want || !complete && off >= 0 {
				t.Fatalf("cut at %d: point %d indexed at %d, want %d (complete %v)", k, i, off, want, complete)
			}
		}
	}
}

// FuzzJournalReplay feeds replay arbitrary records (one per input line,
// framed as a job log's records are) and an arbitrary torn tail. A line
// that opens with a kind byte is a span or result record, so the seeds
// interleave spans, inline results and references to a blob the directory
// holds with the JSON header and events. Replay must never panic, and what
// it recovers must be well formed: a header naming the file, a contiguous
// 1..n event prefix, a terminal flag that agrees with the last state, no
// more spans than span records, and a result index that points only at
// result records of its own point — or no job at all, with the file
// quarantined.
func FuzzJournalReplay(f *testing.F) {
	key := "pnfp2-" + strings.Repeat("e", 64)
	head := []byte(`{"index":1,"name":"p1","result":`)
	span, _ := json.Marshal(obs.Event{Type: "span", Name: "serve.job", Proc: "host:1", Span: 7, DurNS: 5})
	inline := append([]byte{kindResult, 0, 0, 0, 0}, `{"index":0,"name":"p0","wall_ns":0}`...)
	ref := append(appendRefHeader([]byte{kindResult, 0, 0, 0, 1}, key, len(head)), head...)
	ref = append(ref, `,"wall_ns":1,"cached":true}`...)
	sum := PointSummary{Index: 0, Name: "p0", OK: true, T: 1, F0: 1, C: 1e-9}
	var seed bytes.Buffer
	for _, r := range []jrecord{
		{V: 1, T: "accepted", ID: "j1", Kind: "sweep", Specs: []PointSpec{hopfSpec("p0", 3), hopfSpec("p1", 4)}},
		{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
		{V: 1, T: "event", Ev: &Event{Seq: 2, Type: "state", State: StateRunning}},
		{V: 1, T: "event", Ev: &Event{Seq: 3, Type: "point", Point: &sum}},
		{V: 1, T: "event", Ev: &Event{Seq: 4, Type: "state", State: StateDone}},
		{V: 1, T: "event", Ev: &Event{Seq: 5, Type: "state", State: StateRunning}},
	} {
		data, _ := json.Marshal(r)
		seed.Write(append(data, '\n'))
		if r.Ev != nil && r.Ev.Seq == 2 {
			for _, b := range [][]byte{append(spanKind, span...), inline, ref, append(spanKind, '{')} {
				seed.Write(append(b, '\n'))
			}
		}
	}
	f.Add(seed.Bytes(), uint16(0))
	f.Add(seed.Bytes(), uint16(9))
	f.Add(seed.Bytes()[:len(seed.Bytes())/2], uint16(0))
	f.Add([]byte("not json at all\n"), uint16(0))
	f.Add(append(append(spanKind, span...), '\n'), uint16(0))
	f.Add([]byte(`{"v":1,"t":"accepted","id":"j2","kind":"sweep","specs":[{}]}`), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, tear uint16) {
		dir := t.TempDir()
		jl := journalAt(dir)
		blob, _, err := wal.Open(jl.blobs.path(key), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = blob.Append([]byte(key+"\n"), []byte(`{"c":1e-9}`))
		blob.Close()
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "j1"+walExt)
		log, _, err := wal.Open(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		spanRecs := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > 0 {
				if _, err := log.Append(line); err != nil {
					t.Fatal(err)
				}
				if line[0] == kindSpan {
					spanRecs++
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
		rj, ok := jl.recover("j1")
		if !ok {
			if _, err := os.Stat(p + ".corrupt"); err != nil {
				t.Fatalf("nothing recovered and nothing quarantined: %v", err)
			}
			return
		}
		defer rj.log.close()
		if rj.hdr.ID != "j1" || rj.hdr.T != "accepted" {
			t.Fatalf("recovered header %+v", rj.hdr)
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
		if len(rj.spans) > spanRecs {
			t.Fatalf("%d spans from %d span records", len(rj.spans), spanRecs)
		}
		if rj.rf == nil {
			return
		}
		for i, off := range rj.rf.offsets {
			if off < 0 {
				continue
			}
			rec, err := rj.log.f.ReadAt(off)
			if err != nil || len(rec) < 5 || rec[0] != kindResult || binary.BigEndian.Uint32(rec[1:]) != uint32(i) {
				t.Fatalf("point %d indexed at %d, a record %q (%v)", i, off, rec, err)
			}
		}
	})
}
