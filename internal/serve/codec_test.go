package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cache"
	"repro/internal/sweep"
)

// getTrace fetches a job's merged timeline.
func getTrace(t *testing.T, base, id string) JobTrace {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jt JobTrace
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace of %s: status %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&jt); err != nil {
		t.Fatal(err)
	}
	return jt
}

// TestServeCodecSpansPerPoint counts the codec's spans in the job trace of
// each served sweep. A computed point is encoded once, as the cache payload,
// and never decoded. A memory-tier hit is neither encoded nor decoded. A
// disk-tier hit is decoded once, to check it, and is then a memory-tier hit
// like any other. Every point is spilled once, and every spilled record is
// exactly MarshalJSON of its decoded self: splicing the cache payload into
// the record changes no byte.
func TestServeCodecSpansPerPoint(t *testing.T) {
	dir := t.TempDir()
	req := SweepRequest{Points: []PointSpec{hopfSpec("a", 2), hopfSpec("b", 3), hopfSpec("c", 5)}}
	n := len(req.Points)

	serveWith := func(t *testing.T) string {
		store, err := cache.New(cache.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 2, Cache: store})
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	check := func(t *testing.T, base, how string, cached, encodes, decodes int) {
		t.Helper()
		_, st := postJSON(t, base+"/v1/sweep", req)
		done := waitState(t, base, st.ID, terminal)
		if done.State != StateDone || done.DonePoints != n || done.FailedPoints != 0 || done.CachedPoints != cached {
			t.Fatalf("%s: job %+v, want done with %d/%d points cached", how, done, cached, n)
		}
		spans := map[string]int{}
		for _, ev := range getTrace(t, base, st.ID).Spans {
			if ev.Type == "span" {
				spans[ev.Name]++
			}
		}
		if spans["cache.encode"] != encodes || spans["cache.decode"] != decodes || spans["serve.spill_append"] != n {
			t.Fatalf("%s: %d cache.encode, %d cache.decode, %d serve.spill_append spans; want %d, %d, %d",
				how, spans["cache.encode"], spans["cache.decode"], spans["serve.spill_append"], encodes, decodes, n)
		}
		lines, code := getJSONL(t, base, st.ID)
		if code != http.StatusOK || len(lines) != n {
			t.Fatalf("%s: results.jsonl status %d with %d lines, want %d", how, code, len(lines), n)
		}
		for _, line := range lines {
			var r sweep.PointResult
			if err := r.UnmarshalJSON(line); err != nil {
				t.Fatalf("%s: decoding a spilled record: %v", how, err)
			}
			again, err := r.MarshalJSON()
			if err != nil || !bytes.Equal(again, line) {
				t.Fatalf("%s: point %d record is not MarshalJSON of itself (%v):\n got %.200s\nwant %.200s", how, r.Index, err, line, again)
			}
			if !r.OK() || r.Cached != (cached == n) {
				t.Fatalf("%s: point %d ok=%v cached=%v", how, r.Index, r.OK(), r.Cached)
			}
		}
	}

	first := serveWith(t)
	check(t, first, "computed", 0, n, 0)
	check(t, first, "memory hit", n, 0, 0)
	// A second store on the same directory is a new process's view of the
	// disk tier: its entries carry no scalars until they are checked.
	second := serveWith(t)
	check(t, second, "disk hit", n, 0, n)
	check(t, second, "memory hit after a disk hit", n, 0, 0)
}
