package pnclient

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
)

// fastRetry keeps test backoffs tiny and deterministic.
var fastRetry = Retry{Attempts: 4, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1}

// TestSubmitRetriesTransient: 429 (with Retry-After) and 503 are retried
// until the server accepts; the idempotency key rides every attempt.
func TestSubmitRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	var keys []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"j1","kind":"sweep","state":"queued"}`)
		}
	}))
	defer ts.Close()

	c := New(ts.URL, nil, fastRetry)
	st, err := c.Sweep(context.Background(), serve.SweepRequest{}, "key-a")
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" || calls.Load() != 3 {
		t.Fatalf("id=%q after %d calls", st.ID, calls.Load())
	}
	for i, k := range keys {
		if k != "key-a" {
			t.Fatalf("attempt %d lost the idempotency key: %q", i, k)
		}
	}
}

// TestSubmitDoesNotRetryClientErrors: a 4xx other than 429 is the caller's
// bug; exactly one request goes out and the typed error surfaces.
func TestSubmitDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusConflict)
		fmt.Fprint(w, `{"error":"key reused"}`)
	}))
	defer ts.Close()

	c := New(ts.URL, nil, fastRetry)
	_, err := c.Sweep(context.Background(), serve.SweepRequest{}, "key-b")
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("want APIError 409, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("409 retried: %d calls", calls.Load())
	}
}

func asAPIError(err error, target **APIError) bool {
	for ; err != nil; err = unwrap(err) {
		if ae, ok := err.(*APIError); ok {
			*target = ae
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	type unwrapper interface{ Unwrap() error }
	if u, ok := err.(unwrapper); ok {
		return u.Unwrap()
	}
	return nil
}

// TestWatchReconnectsWithLastEventID: the first stream dies after two events;
// the client must reconnect carrying Last-Event-ID: 2 and splice the rest
// without duplicates.
func TestWatchReconnectsWithLastEventID(t *testing.T) {
	var conns atomic.Int32
	var lastIDs []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastIDs = append(lastIDs, r.Header.Get("Last-Event-ID"))
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		if conns.Add(1) == 1 {
			// Two events, then the connection drops mid-stream.
			fmt.Fprint(w, "id: 1\nevent: state\ndata: {\"seq\":1,\"type\":\"state\",\"state\":\"queued\"}\n\n")
			fmt.Fprint(w, "id: 2\nevent: state\ndata: {\"seq\":2,\"type\":\"state\",\"state\":\"running\"}\n\n")
			fl.Flush()
			return // server closes without a terminal event
		}
		// The reconnect: replay everything after the client's checkpoint.
		fmt.Fprint(w, "id: 3\nevent: point\ndata: {\"seq\":3,\"type\":\"point\",\"point\":{\"index\":0,\"name\":\"p0\",\"ok\":true}}\n\n")
		fmt.Fprint(w, "id: 4\nevent: state\ndata: {\"seq\":4,\"type\":\"state\",\"state\":\"done\"}\n\n")
		fl.Flush()
	}))
	defer ts.Close()

	c := New(ts.URL, nil, fastRetry)
	var seqs []int64
	if err := c.Watch(context.Background(), "j1", 0, func(ev serve.Event) {
		seqs = append(seqs, ev.Seq)
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seqs) != "[1 2 3 4]" {
		t.Fatalf("delivered seqs %v, want [1 2 3 4]", seqs)
	}
	if len(lastIDs) != 2 || lastIDs[0] != "" || lastIDs[1] != "2" {
		t.Fatalf("Last-Event-ID per connection: %q, want [\"\" \"2\"]", lastIDs)
	}
}

// TestWatchDropsAtLeastOnceDuplicates: a server replaying more history than
// asked (at-least-once across its own restart) must not produce duplicate
// deliveries to fn.
func TestWatchDropsAtLeastOnceDuplicates(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		// Seq 1 twice, then terminal.
		fmt.Fprint(w, "id: 1\nevent: state\ndata: {\"seq\":1,\"type\":\"state\",\"state\":\"queued\"}\n\n")
		fmt.Fprint(w, "id: 1\nevent: state\ndata: {\"seq\":1,\"type\":\"state\",\"state\":\"queued\"}\n\n")
		fmt.Fprint(w, "id: 2\nevent: state\ndata: {\"seq\":2,\"type\":\"state\",\"state\":\"done\"}\n\n")
	}))
	defer ts.Close()

	c := New(ts.URL, nil, fastRetry)
	var n int
	if err := c.Watch(context.Background(), "j1", 0, func(serve.Event) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("%d deliveries, want 2 (duplicate dropped)", n)
	}
}

// TestClientAgainstRealServer drives the full loop against an in-process
// serve.Server: idempotent submit, duplicate deduplication, streaming wait,
// the loss-free results stream, and cancel.
func TestClientAgainstRealServer(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := New(ts.URL, nil, fastRetry)
	ctx := context.Background()

	req := serve.SweepRequest{Points: []serve.PointSpec{
		{Name: "p0", Model: "hopf", Params: map[string]float64{"lambda": 1, "omega": 3, "sigma": 0.02}},
		{Name: "p1", Model: "hopf", Params: map[string]float64{"lambda": 1, "omega": 4, "sigma": 0.02}},
	}}
	st, err := c.Sweep(ctx, req, "it-key")
	if err != nil {
		t.Fatal(err)
	}
	dup, err := c.Sweep(ctx, req, "it-key")
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != st.ID {
		t.Fatalf("duplicate submit created %q, want %q", dup.ID, st.ID)
	}

	var points int
	final, err := c.Wait(ctx, st.ID, false, func(ev serve.Event) {
		if ev.Type == "point" {
			points++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone || final.DonePoints != 2 || points != 2 {
		t.Fatalf("final %+v after %d point events", final, points)
	}
	var results []sweep.PointResult
	if err := c.StreamResults(ctx, st.ID, func(line []byte) error {
		var r sweep.PointResult
		if err := r.UnmarshalJSON(line); err != nil {
			return err
		}
		results = append(results, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("streamed %d results, want 2", len(results))
	}
	for i, r := range results {
		if r.Index != i || !r.OK() {
			t.Fatalf("result %d: index %d ok=%v (%v)", i, r.Index, r.OK(), r.Err)
		}
	}

	// Cancel is accepted for a terminal job too (no-op) and returns status.
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	// Unknown job: typed 404, no retries burning time.
	_, err = c.Job(ctx, "nope", false)
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("want 404 APIError, got %v", err)
	}
}
