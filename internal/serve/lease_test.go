package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// leasedSlowSweep is slowSweep with a lease TTL attached.
func leasedSlowSweep(n int, ttl time.Duration) SweepRequest {
	req := slowSweep(n)
	req.LeaseTTLMS = int64(ttl / time.Millisecond)
	return req
}

// TestLeaseExpiryCancelsJob submits a leased job and never renews it: the
// worker must cancel the job itself when the TTL lapses, and the cancellation
// must carry the budget identity so a coordinator can tell "lease expired"
// from "point diverged".
func TestLeaseExpiryCancelsJob(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, st := postJSON(t, ts.URL+"/v1/sweep", leasedSlowSweep(30, 300*time.Millisecond))
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateCanceled {
		t.Fatalf("unrenewed lease: state %q, want canceled (%+v)", done.State, done)
	}
	if done.Error == nil || !errors.Is(done.Error, budget.ErrCanceled) {
		t.Fatalf("lease expiry error %v does not wrap budget.ErrCanceled", done.Error)
	}
	if got := reg.Snapshot().Counter("pn_serve_lease_expirations_total", ""); got != 1 {
		t.Fatalf("lease expirations = %d, want 1", got)
	}
}

// TestLeaseRenewKeepsJobAlive heartbeats a leased job faster than its TTL and
// checks it runs to completion — then stops renewing a second leased job only
// after it went terminal, which must be a harmless no-op (no late self-cancel
// flipping a done job's state).
func TestLeaseRenewKeepsJobAlive(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, st := postJSON(t, ts.URL+"/v1/sweep", leasedSlowSweep(6, 400*time.Millisecond))

	// Heartbeat at TTL/4 until the job finishes.
	stop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/renew", "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	done := waitState(t, ts.URL, st.ID, terminal)
	close(stop)
	<-hbDone
	if done.State != StateDone {
		t.Fatalf("renewed lease: state %q, want done (%+v)", done.State, done)
	}
	if done.DonePoints != 6 {
		t.Fatalf("done points = %d, want 6", done.DonePoints)
	}

	// Renewing a terminal job: 200, state unchanged.
	resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/renew", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renew on terminal job: %d, want 200", resp.StatusCode)
	}
	// Wait past the TTL: the renewal must not have re-armed the lease.
	time.Sleep(800 * time.Millisecond)
	if st := getStatus(t, ts.URL, st.ID, false); st.State != StateDone {
		t.Fatalf("terminal job flipped to %q after late renew", st.State)
	}
	if got := reg.Snapshot().Counter("pn_serve_lease_renewals_total", ""); got < 2 {
		t.Fatalf("lease renewals = %d, want >= 2", got)
	}
	if got := reg.Snapshot().Counter("pn_serve_lease_expirations_total", ""); got != 0 {
		t.Fatalf("lease expirations = %d, want 0", got)
	}

	// Renewing an unknown job is a 404, not a crash.
	resp, err = http.Post(ts.URL+"/v1/jobs/nope/renew", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("renew on unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestLeaseRenewRestoredTerminal renews a leased job that a restart restored
// as finished, as a coordinator replaying its own lease log does, and waits
// past the TTL: the renewal must not arm a lease on the finished job.
func TestLeaseRenewRestoredTerminal(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	dir := t.TempDir()
	writeJournalFile(t, dir, "j1"+walExt, []jrecord{
		{V: 1, T: "accepted", ID: "j1", Kind: "sweep", Specs: []PointSpec{hopfSpec("p0", 3)}, LeaseTTLMS: 100},
		{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
		{V: 1, T: "event", Ev: &Event{Seq: 2, Type: "state", State: StateDone}},
	})
	s := New(Config{Workers: 1, JournalDir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	waitReady(t, ts.URL)

	resp, err := http.Post(ts.URL+"/v1/jobs/j1/renew", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renew on restored job: %d, want 200", resp.StatusCode)
	}
	time.Sleep(300 * time.Millisecond)
	if got := reg.Snapshot().Counter("pn_serve_lease_expirations_total", ""); got != 0 {
		t.Fatalf("lease expirations = %d, want 0", got)
	}
	if st := getStatus(t, ts.URL, "j1", false); st.State != StateDone {
		t.Fatalf("restored job flipped to %q after renew", st.State)
	}
}

// TestReadyzDuringDrain checks the drain window is observable: BeginDrain
// flips /readyz to 503 (and submissions to 503) while /healthz stays 200 and
// running jobs keep executing to completion.
func TestReadyzDuringDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A slow job mid-flight when the drain starts.
	_, st := postJSON(t, ts.URL+"/v1/sweep", slowSweep(4))
	waitState(t, ts.URL, st.ID, func(s JobStatus) bool { return s.State == StateRunning })

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("pre-drain /readyz: %d, want 200", code)
	}

	s.BeginDrain()
	s.BeginDrain() // idempotent

	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining /healthz: %d, want 200 (liveness stays green)", code)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/sweep", slowSweep(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}

	// The in-flight job is not a casualty of the drain.
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateDone {
		t.Fatalf("drain killed the in-flight job: state %q", done.State)
	}
}

// stubRunner records the request and returns canned results through the
// OnResult and OnSummary streams and the return value.
type stubRunner struct {
	got  RunnerRequest
	fail error
}

func (r *stubRunner) RunSweep(req RunnerRequest) error {
	r.got = req
	if r.fail != nil {
		return r.fail
	}
	for i, sp := range req.Specs {
		res := stubResult(i, sp.Name)
		if req.OnResult != nil {
			head, result, tail, err := res.MarshalParts()
			if err != nil {
				return err
			}
			req.OnResult(i, head, result, tail)
		}
		if req.OnSummary != nil {
			req.OnSummary(Summarize(&res))
		}
	}
	if req.OnSummary != nil {
		req.OnSummary(PointSummary{Index: len(req.Specs) + 7, Name: "out-of-range"}) // must be dropped, not panic
	}
	if req.OnResult != nil {
		req.OnResult(len(req.Specs)+7, []byte(`{"index":10,"name":"out-of-range","wall_ns":0}`)) // likewise
	}
	return nil
}

func stubResult(i int, name string) sweep.PointResult {
	return sweep.PointResult{Index: i, Name: name, Cached: i%2 == 1, Wall: time.Millisecond}
}

// TestRunnerDelegation installs a Config.Runner and checks the server hands
// the whole job to it — specs in order, job ID, budget token — and folds the
// runner's summaries into status counters and the SSE stream exactly as the
// in-process engine would.
func TestRunnerDelegation(t *testing.T) {
	r := &stubRunner{}
	s := New(Config{Workers: 3, Runner: r})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := SweepRequest{Points: []PointSpec{hopfSpec("a", 1e3), hopfSpec("b", 2e3), hopfSpec("c", 3e3)}}
	_, st := postJSON(t, ts.URL+"/v1/sweep", req)
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateDone {
		t.Fatalf("state %q, want done (%+v)", done.State, done)
	}
	if done.DonePoints != 3 || done.CachedPoints != 1 || done.FailedPoints != 3 {
		// Stub results have no Result payload, so OK() is false: all 3 count
		// as failed — which proves the counters come from the runner's
		// summaries, not from a parallel in-process run.
		t.Fatalf("counters done=%d cached=%d failed=%d, want 3/1/3", done.DonePoints, done.CachedPoints, done.FailedPoints)
	}
	if r.got.JobID != st.ID || r.got.Kind != "sweep" || len(r.got.Specs) != 3 || r.got.Tok == nil {
		t.Fatalf("runner request %+v does not match the job", r.got)
	}
	if r.got.Specs[1].Name != "b" {
		t.Fatalf("specs out of order: %+v", r.got.Specs)
	}
	// Point events flowed through the job's SSE stream.
	var points int
	for _, ev := range readSSE(t, ts.URL, st.ID) {
		if ev.Type == "point" {
			points++
		}
	}
	if points != 3 {
		t.Fatalf("SSE point events = %d, want 3", points)
	}
	// The runner's records were spilled as the bytes it handed over.
	lines, code := getJSONL(t, ts.URL, st.ID)
	if code != http.StatusOK || len(lines) != 3 {
		t.Fatalf("jsonl: status %d, %d lines, want 3", code, len(lines))
	}
	for i, line := range lines {
		res := stubResult(i, req.Points[i].Name)
		if want, _ := res.MarshalJSON(); !bytes.Equal(line, want) {
			t.Fatalf("line %d = %s, want the runner's record %s", i, line, want)
		}
	}

	// A runner job-level error fails the job.
	r.fail = errors.New("all workers unreachable")
	_, st2 := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: []PointSpec{hopfSpec("d", 4e3)}})
	if got := waitState(t, ts.URL, st2.ID, terminal); got.State != StateFailed {
		t.Fatalf("runner failure: state %q, want failed", got.State)
	}
}
