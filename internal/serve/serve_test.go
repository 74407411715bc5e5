package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/obs"
)

// postJSON posts v and decodes the JobStatus (or error body) response.
func postJSON(t *testing.T, url string, v any) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

func getStatus(t *testing.T, base, id string, full bool) JobStatus {
	t.Helper()
	url := base + "/v1/jobs/" + id
	if full {
		url += "?full=1"
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls the job until pred holds or the deadline passes.
func waitState(t *testing.T, base, id string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id, false)
		if pred(st) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the expected state", id)
	return JobStatus{}
}

func terminal(st JobStatus) bool {
	return st.State == StateDone || st.State == StateFailed || st.State == StateCanceled
}

// readSSE consumes the job's event stream until the server closes it (the job
// went terminal) and returns the decoded events.
func readSSE(t *testing.T, base, id string) []Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content type %q", ct)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
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

// hopfSpec is a fast, closed-form-period point; distinct omegas give distinct
// cache keys.
func hopfSpec(name string, omega float64) PointSpec {
	return PointSpec{Name: name, Model: "hopf", Params: map[string]float64{"lambda": 1, "omega": omega, "sigma": 0.02}}
}

// TestServeEndToEnd is the acceptance path: submit a job over HTTP, watch its
// SSE stream, fetch the result, resubmit the identical job and observe a
// cache hit that never invokes core.Characterise.
func TestServeEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Cache: store})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, st := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("e2e", 3)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st.ID == "" || st.State != StateQueued || st.Kind != "characterise" || st.Points != 1 {
		t.Fatalf("submit status: %+v", st)
	}

	// The SSE stream replays history and closes at the terminal state.
	events := readSSE(t, ts.URL, st.ID)
	var states []string
	pointEvents := 0
	for _, ev := range events {
		switch ev.Type {
		case "state":
			states = append(states, ev.State)
		case "point":
			pointEvents++
			if ev.Point == nil || ev.Point.Index != 0 || !ev.Point.OK || ev.Point.Cached {
				t.Fatalf("point event: %+v", ev.Point)
			}
		}
	}
	if want := []string{StateQueued, StateRunning, StateDone}; fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("state events %v, want %v", states, want)
	}
	if pointEvents != 1 {
		t.Fatalf("%d point events, want 1", pointEvents)
	}

	done := getStatus(t, ts.URL, st.ID, false)
	if done.State != StateDone || done.DonePoints != 1 || done.CachedPoints != 0 || done.FailedPoints != 0 {
		t.Fatalf("done status: %+v", done)
	}
	if len(done.Results) != 1 || !done.Results[0].OK || done.Results[0].C <= 0 {
		t.Fatalf("done results: %+v", done.Results)
	}
	chars := reg.Snapshot().Counter("pn_core_characterisations_total", "ok")
	if chars != 1 {
		t.Fatalf("characterisations after first job = %d, want 1", chars)
	}

	// Identical resubmit: served from the cache, pipeline never invoked.
	resp2, st2 := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("e2e", 3)})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", resp2.StatusCode)
	}
	cachedDone := waitState(t, ts.URL, st2.ID, terminal)
	if cachedDone.State != StateDone || cachedDone.CachedPoints != 1 {
		t.Fatalf("cached rerun status: %+v", cachedDone)
	}
	if len(cachedDone.Results) != 1 || !cachedDone.Results[0].Cached || !cachedDone.Results[0].OK {
		t.Fatalf("cached rerun results: %+v", cachedDone.Results)
	}
	if got := reg.Snapshot().Counter("pn_core_characterisations_total", "ok"); got != chars {
		t.Fatalf("cached rerun invoked the pipeline: %d characterisations, want %d", got, chars)
	}
	if cachedDone.Results[0].C != done.Results[0].C {
		t.Fatalf("cached c=%g differs from computed c=%g", cachedDone.Results[0].C, done.Results[0].C)
	}

	// The loss-free result round-trips through the codec.
	full := getResults(t, ts.URL, st2.ID)
	if len(full) != 1 {
		t.Fatalf("loss-free results: %d, want 1", len(full))
	}
	fr := full[0]
	if fr.Index != 0 || !fr.OK() || !fr.Cached || fr.Result.C != done.Results[0].C {
		t.Fatalf("loss-free result: index=%d ok=%v cached=%v", fr.Index, fr.OK(), fr.Cached)
	}
	if fr.PSS == nil || fr.PSS != fr.Result.PSS {
		t.Fatal("full result lost the PSS aliasing")
	}

	// Serve-layer metrics moved.
	snap := reg.Snapshot()
	if got := snap.Counter("pn_serve_jobs_total", "done"); got != 2 {
		t.Fatalf("pn_serve_jobs_total{done} = %d, want 2", got)
	}
	if got := snap.Counter("pn_serve_submitted_total", "characterise"); got != 2 {
		t.Fatalf("pn_serve_submitted_total{characterise} = %d, want 2", got)
	}
	if d := snap.Gauge("pn_serve_queue_depth"); d != 0 {
		t.Fatalf("queue depth = %g, want 0", d)
	}
	if d := snap.Gauge("pn_serve_jobs_inflight"); d != 0 {
		t.Fatalf("inflight = %g, want 0", d)
	}
}

// TestServeSweepJob runs a multi-point job with a pre-warmed cache and checks
// exact per-point indices and the cached/computed split.
func TestServeSweepJob(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Cache: store})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Warm one of the three points.
	_, warm := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("warm", 4)})
	waitState(t, ts.URL, warm.ID, terminal)

	resp, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Points: []PointSpec{hopfSpec("p0", 3), hopfSpec("p1", 4), hopfSpec("p2", 5)},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateDone || done.DonePoints != 3 || done.CachedPoints != 1 || done.FailedPoints != 0 {
		t.Fatalf("sweep status: %+v", done)
	}
	if len(done.Results) != 3 {
		t.Fatalf("results: %+v", done.Results)
	}
	for i, r := range done.Results {
		if r.Index != i || r.Name != fmt.Sprintf("p%d", i) {
			t.Fatalf("result %d has index %d name %q", i, r.Index, r.Name)
		}
	}
	if done.Results[0].Cached || !done.Results[1].Cached || done.Results[2].Cached {
		t.Fatalf("cached split wrong: %+v", done.Results)
	}
}

// TestServeIncompleteCacheEntryIsRecomputed: a -cache-dir entry from another
// writer with a valid envelope but an incomplete payload decodes without
// error into a Result with no PSS. Served as a hit, it crashed the process
// in summarize (Result.T). It is stale instead: the point is computed, the
// job ends done, and the fresh result replaces the entry, so the
// resubmission is a cache hit.
func TestServeIncompleteCacheEntryIsRecomputed(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	dir := t.TempDir()
	spec := hopfSpec("stale", 3)
	pt, err := spec.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(pt.Key, []byte(`{"c":1e-9}`)); err != nil {
		t.Fatal(err)
	}
	store, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Cache: store})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, st := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: spec})
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateDone || done.CachedPoints != 0 || len(done.Results) != 1 {
		t.Fatalf("job over a stale entry: %+v", done)
	}
	if r := done.Results[0]; !r.OK || r.Cached || r.T <= 0 || r.C == 1e-9 {
		t.Fatalf("point over a stale entry: %+v", r)
	}
	if got := reg.Snapshot().Counter("pn_core_characterisations_total", "ok"); got != 1 {
		t.Fatalf("characterisations = %d, want 1", got)
	}

	_, st2 := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: spec})
	again := waitState(t, ts.URL, st2.ID, terminal)
	if again.State != StateDone || again.CachedPoints != 1 || again.Results[0].C != done.Results[0].C {
		t.Fatalf("resubmission over the healed entry: %+v", again)
	}
	if got := reg.Snapshot().Counter("pn_core_characterisations_total", "ok"); got != 1 {
		t.Fatalf("resubmission recomputed: %d characterisations, want 1", got)
	}
}

// slowSweep builds a many-point sweep request: each ring point takes ~100ms,
// so on a one-slot server (Config{Workers: 1}) the job stays in flight for
// seconds — a wide, reliable window for cancellation and queue-occupancy
// tests.
func slowSweep(n int) SweepRequest {
	pts := make([]PointSpec, n)
	for i := range pts {
		pts[i] = PointSpec{
			Name:   fmt.Sprintf("ring%d", i),
			Model:  "ring",
			Params: map[string]float64{"iee": 331e-6 * (1 + 0.001*float64(i))},
		}
	}
	return SweepRequest{Points: pts, NoCache: true}
}

// TestServeCancelInflight cancels a running job and checks the terminal state
// wraps budget.ErrCanceled across the API boundary.
func TestServeCancelInflight(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, st := postJSON(t, ts.URL+"/v1/sweep", slowSweep(30))
	// Wait until the job is demonstrably mid-flight: running with at least
	// one point finished and more still to go.
	waitState(t, ts.URL, st.ID, func(s JobStatus) bool {
		return s.State == StateRunning && s.DonePoints >= 1
	})

	resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}

	canceled := waitState(t, ts.URL, st.ID, terminal)
	if canceled.State != StateCanceled {
		t.Fatalf("state %q, want canceled (%+v)", canceled.State, canceled)
	}
	if canceled.Error == nil {
		t.Fatal("canceled job carries no error")
	}
	if !errors.Is(canceled.Error, budget.ErrCanceled) {
		t.Fatalf("job error %v does not wrap budget.ErrCanceled", canceled.Error)
	}
	// Cut-off points report the cancellation with their budget identity
	// intact; completed points keep their results.
	full := getResults(t, ts.URL, st.ID)
	var okN, canceledN int
	for i, r := range full {
		if r.Index != i {
			t.Fatalf("line %d carries index %d", i, r.Index)
		}
		switch {
		case r.OK():
			okN++
		case errors.Is(r.Err, budget.ErrCanceled):
			canceledN++
		}
	}
	if okN == 0 || canceledN == 0 {
		t.Fatalf("want both completed and canceled points, got ok=%d canceled=%d of %d", okN, canceledN, len(full))
	}
}

// TestServeRejections exercises the back-pressure and validation paths:
// bad requests, queue overflow, body limits, draining.
func TestServeRejections(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1, MaxBodyBytes: 4096, MaxPoints: 50})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Unknown model and unknown parameter fail fast with 400.
	resp, _ := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: PointSpec{Model: "nosuch"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: PointSpec{Model: "hopf", Params: map[string]float64{"omgea": 3}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown param: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sweep: %d", resp.StatusCode)
	}
	// A request carries no parallelism knob: the strict decoder rejects a
	// sweep body that still sends "workers".
	old, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"points":[{"model":"hopf"}],"workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	old.Body.Close()
	if old.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep body with workers: %d, want 400", old.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", slowSweep(51)) // over MaxPoints
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep: %d", resp.StatusCode)
	}

	// Body limit → 413.
	big, err := http.Post(ts.URL+"/v1/characterise", "application/json",
		strings.NewReader(`{"model":"hopf","name":"`+strings.Repeat("x", 8192)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	big.Body.Close()
	if big.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", big.StatusCode)
	}

	// Queue overflow: a slow job occupies the single worker, the next fills
	// the queue of one, the third bounces with 429 + Retry-After.
	_, slow := postJSON(t, ts.URL+"/v1/sweep", slowSweep(30))
	waitState(t, ts.URL, slow.ID, func(s JobStatus) bool { return s.State == StateRunning })
	resp2, queued := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: PointSpec{Model: "fhn", Name: "q"}})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp2.StatusCode)
	}
	resp3, _ := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("bounce", 3)})
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Shutdown with an expired grace context cancels the in-flight and queued
	// jobs; submissions during/after draining get 503. The grace is already
	// over when the drain starts: the queued characterise may take a slot at
	// the sweep's next point boundary, and with any grace left it could
	// finish first.
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v", err)
	}
	resp4, _ := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("late", 3)})
	if resp4.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d", resp4.StatusCode)
	}
	for _, id := range []string{slow.ID, queued.ID} {
		st := getStatus(t, ts.URL, id, false)
		if st.State != StateCanceled {
			t.Fatalf("job %s after forced drain: %q, want canceled", id, st.State)
		}
		if !errors.Is(st.Error, budget.ErrCanceled) {
			t.Fatalf("job %s error %v does not wrap budget.ErrCanceled", id, st.Error)
		}
	}

	// Discoverability endpoints still answer.
	mresp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models []ModelInfo
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(models) == 0 {
		t.Fatal("no models listed")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if !h.OK || !h.Draining {
		t.Fatalf("health after drain: %+v", h)
	}
}

// TestSlotsSettleEveryPointOnce runs two ring sweeps from two tenants on a
// two-slot server, so their points interleave across the slots: one is
// cancelled mid-flight, the other runs to completion. Each job's stream must
// hold exactly one point event per index and end with its terminal event,
// and its status must count every point — the cancelled job's withdrawn
// points included. Run it with -race -count=10.
func TestSlotsSettleEveryPointOnce(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	doomedReq, keptReq := slowSweep(8), slowSweep(4)
	for i := range keptReq.Points {
		keptReq.Points[i].Params["iee"] *= 1.1 // distinct from the doomed sweep's points
	}
	_, doomed := postJSONAs(t, ts.URL+"/v1/sweep", "a", doomedReq)
	_, kept := postJSONAs(t, ts.URL+"/v1/sweep", "b", keptReq)
	waitState(t, ts.URL, doomed.ID, func(s JobStatus) bool { return s.DonePoints >= 1 })
	resp, err := http.Post(ts.URL+"/v1/jobs/"+doomed.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, c := range []struct {
		id, state string
		points    int
	}{{doomed.ID, StateCanceled, 8}, {kept.ID, StateDone, 4}} {
		st := waitState(t, ts.URL, c.id, terminal)
		if st.State != c.state || st.Points != c.points || st.DonePoints != c.points {
			t.Fatalf("job %s: state %q, %d/%d points done; want %q with all %d", c.id, st.State, st.DonePoints, st.Points, c.state, c.points)
		}
		evs := readSSE(t, ts.URL, c.id)
		seen := make(map[int]int)
		for _, ev := range evs {
			if ev.Type == "point" {
				seen[ev.Point.Index]++
			}
		}
		for i := 0; i < c.points; i++ {
			if seen[i] != 1 {
				t.Fatalf("job %s: point %d reported %d times, want once (%v)", c.id, i, seen[i], seen)
			}
		}
		if len(seen) != c.points {
			t.Fatalf("job %s: point events for indices %v, want 0..%d", c.id, seen, c.points-1)
		}
		if last := evs[len(evs)-1]; last.Type != "state" || last.State != c.state {
			t.Fatalf("job %s: last event %+v, want the terminal %q state", c.id, last, c.state)
		}
	}
}
