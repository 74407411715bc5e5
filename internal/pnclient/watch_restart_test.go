package pnclient

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/serve"
	"repro/internal/wal"
)

// TestWatchAcrossServerRestartReplay is the full client-side restart story:
// a Watch whose checkpoint was established against a server that then
// crashed must splice gap-free onto the restarted server's journal replay —
// with the Last-Event-ID spanning the restart (the checkpoint predates the
// crash; the replay serves from the recovered, re-run and finished job).
//
// The crash is simulated with the journal idiom this repo's serve tests use:
// a hand-crafted <id>.wal journal is exactly the on-disk state a kill -9
// leaves behind. The client's view is driven by a front that switches modes the way
// a restarting node looks from outside: first the pre-crash stream (which
// dies without a terminal event), then connection refusal (503), then the
// recovered server.
func TestWatchAcrossServerRestartReplay(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()

	// The crash artifact: job j1 accepted with two points, journaled through
	// "running" and one point summary, then the process died. Records mirror
	// what the server's own journal writes (schema v1).
	log, _, err := wal.Open(filepath.Join(jdir, "j1.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"v":1,"t":"accepted","id":"j1","kind":"sweep","specs":[{"name":"p0","model":"hopf","params":{"lambda":1,"omega":3,"sigma":0.02}},{"name":"p1","model":"hopf","params":{"lambda":1,"omega":4,"sigma":0.02}}],"workers":1}`,
		`{"v":1,"t":"event","ev":{"seq":1,"type":"state","state":"queued"}}`,
		`{"v":1,"t":"event","ev":{"seq":2,"type":"state","state":"running"}}`,
		`{"v":1,"t":"event","ev":{"seq":3,"type":"point","point":{"index":0,"name":"p0","ok":true,"wall_ms":5}}}`,
	} {
		if _, err := log.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted server recovers the journal, re-enqueues j1 and re-runs
	// it (the cache is empty — the "crash" predates any cached result). Run
	// it to completion before the watch ever reaches it, so the splice below
	// reads from the finished job.
	store, err := cache.New(cache.Options{Dir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := serve.New(serve.Config{Workers: 1, JournalDir: jdir, Cache: store})
	defer s2.Shutdown(context.Background())
	direct := httptest.NewServer(s2)
	defer direct.Close()
	waitFor := New(direct.URL, nil, fastRetry)
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := waitFor.Job(context.Background(), "j1", false)
		if err == nil && st.State == serve.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job never finished: %+v err=%v", st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The front: pre-crash stream once, one refusal, then the recovered
	// server. lastIDs records the Last-Event-ID of every events request —
	// the reconnect protocol made visible.
	var mu sync.Mutex
	mode := "precrash"
	var lastIDs []string
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		m := mode
		if r.URL.Path == "/v1/jobs/j1/events" {
			lastIDs = append(lastIDs, r.Header.Get("Last-Event-ID"))
			switch mode {
			case "precrash":
				mode = "down"
			case "down":
				mode = "up"
			}
		}
		mu.Unlock()
		switch m {
		case "precrash":
			// The doomed server's stream: the journaled prefix, then the
			// connection dies with no terminal event (the crash).
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "id: 1\nevent: state\ndata: {\"seq\":1,\"type\":\"state\",\"state\":\"queued\"}\n\n")
			fmt.Fprint(w, "id: 2\nevent: state\ndata: {\"seq\":2,\"type\":\"state\",\"state\":\"running\"}\n\n")
			fmt.Fprint(w, "id: 3\nevent: point\ndata: {\"seq\":3,\"type\":\"point\",\"point\":{\"index\":0,\"name\":\"p0\",\"ok\":true,\"wall_ms\":5}}\n\n")
			w.(http.Flusher).Flush()
		case "down":
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"restarting"}`)
		default:
			s2.ServeHTTP(w, r)
		}
	}))
	defer front.Close()

	c := New(front.URL, nil, Retry{Attempts: 8, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1})
	var events []serve.Event
	if err := c.Watch(context.Background(), "j1", 0, func(ev serve.Event) {
		events = append(events, ev)
	}); err != nil {
		t.Fatalf("watch across restart: %v", err)
	}

	// Gap-free, exactly-once sequence numbering across the splice.
	for i, ev := range events {
		if ev.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d; stream not gap-free: %+v", i, ev.Seq, events)
		}
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != serve.StateDone {
		t.Fatalf("stream did not end in done: %+v", last)
	}
	// The resumed run re-reports every point (at-least-once across a crash);
	// post-checkpoint events must cover both indices.
	got := map[int]bool{}
	for _, ev := range events {
		if ev.Seq > 3 && ev.Type == "point" && ev.Point != nil {
			got[ev.Point.Index] = true
		}
	}
	if !got[0] || !got[1] {
		t.Fatalf("post-restart replay missed point events: %v (events %+v)", got, events)
	}
	// The protocol: first connection from scratch, every reconnect carrying
	// the pre-crash checkpoint — including the one the recovered server
	// answered from its journal.
	mu.Lock()
	defer mu.Unlock()
	if len(lastIDs) != 3 || lastIDs[0] != "" || lastIDs[1] != "3" || lastIDs[2] != "3" {
		t.Fatalf("Last-Event-ID per connection: %q, want [\"\" \"3\" \"3\"]", lastIDs)
	}
}
