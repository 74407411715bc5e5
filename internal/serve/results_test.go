package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// getResultsPage fetches one page of /v1/jobs/{id}/results.
func getResultsPage(t *testing.T, base, id string, offset, limit int) (ResultsPage, int) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/jobs/%s/results?offset=%d&limit=%d", base, id, offset, limit)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pg ResultsPage
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pg); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return pg, resp.StatusCode
}

// getJSONL downloads /results.jsonl and returns the raw lines.
func getJSONL(t *testing.T, base, id string) ([][]byte, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, resp.StatusCode
}

// getResults downloads /results.jsonl and decodes every line.
func getResults(t *testing.T, base, id string) []sweep.PointResult {
	t.Helper()
	lines, code := getJSONL(t, base, id)
	if code != http.StatusOK {
		t.Fatalf("results.jsonl of %s: status %d", id, code)
	}
	out := make([]sweep.PointResult, len(lines))
	for i, line := range lines {
		if err := out[i].UnmarshalJSON(line); err != nil {
			t.Fatalf("results.jsonl of %s, line %d: %v", id, i, err)
		}
	}
	return out
}

// TestResultsPaginationAndJSONL: the paginated endpoint and the JSONL stream
// both serve the loss-free codec bytes off the spill file — walking the pages
// reassembles exactly the JSONL download, and every line is the codec
// encoding of the point it decodes to, point for point.
func TestResultsPaginationAndJSONL(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 7
	specs := make([]PointSpec, n)
	for i := range specs {
		specs[i] = hopfSpec(fmt.Sprintf("pg%d", i), 1e3+float64(i))
	}
	_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: specs})
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateDone {
		t.Fatalf("job: %+v", done)
	}

	lines, code := getJSONL(t, ts.URL, st.ID)
	if code != http.StatusOK || len(lines) != n {
		t.Fatalf("jsonl: status %d, %d lines, want 200 with %d", code, len(lines), n)
	}

	// Walk the pages with a width that forces pagination and splice them.
	var paged []json.RawMessage
	offset := 0
	for {
		pg, code := getResultsPage(t, ts.URL, st.ID, offset, 3)
		if code != http.StatusOK {
			t.Fatalf("page at %d: status %d", offset, code)
		}
		if pg.Total != n || pg.Spilled != n || pg.Degraded {
			t.Fatalf("page header: %+v", pg)
		}
		paged = append(paged, pg.Results...)
		if pg.NextOffset == nil {
			break
		}
		if *pg.NextOffset <= offset {
			t.Fatalf("next_offset %d did not advance past %d", *pg.NextOffset, offset)
		}
		offset = *pg.NextOffset
	}
	if len(paged) != n {
		t.Fatalf("paged walk yielded %d results, want %d", len(paged), n)
	}
	for i := range paged {
		if !bytes.Equal(paged[i], lines[i]) {
			t.Fatalf("point %d: paged bytes differ from the JSONL line", i)
		}
	}

	// Each line decodes to its own point, and re-encoding the decoded
	// result gives the line back: same codec, same values, including the
	// PSS aliasing the loss-free codec restores.
	for i, raw := range lines {
		var res sweep.PointResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if res.Index != i || res.Name != specs[i].Name || !res.OK() || res.PSS != res.Result.PSS {
			t.Fatalf("line %d decodes to index %d name %q ok=%v, want point %d %q ok", i, res.Index, res.Name, res.OK(), i, specs[i].Name)
		}
		want, err := json.Marshal(&res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("point %d: spilled bytes are not the codec encoding of the result they decode to", i)
		}
	}
}

// TestResultsAfterJournalRecovery: a terminal job recovered from the journal
// serves its loss-free results again — pages and the JSONL stream both come
// back from the spill file that survived next to the WAL. Before the result
// store this was the documented gap: replayed jobs were summary-only
// forever.
func TestResultsAfterJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	const n = 5
	specs := make([]PointSpec, n)
	for i := range specs {
		specs[i] = hopfSpec(fmt.Sprintf("rec%d", i), 2e3+float64(i))
	}

	s1 := New(Config{Workers: 2, JournalDir: dir})
	ts1 := httptest.NewServer(s1)
	waitReady(t, ts1.URL)
	_, st := postJSON(t, ts1.URL+"/v1/sweep", SweepRequest{Points: specs})
	if waitState(t, ts1.URL, st.ID, terminal).State != StateDone {
		t.Fatal("first incarnation failed")
	}
	wantLines, code := getJSONL(t, ts1.URL, st.ID)
	if code != http.StatusOK || len(wantLines) != n {
		t.Fatalf("pre-restart jsonl: status %d, %d lines", code, len(wantLines))
	}
	ts1.Close()
	s1.Shutdown(context.Background())

	s2 := New(Config{Workers: 2, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)

	if rec := getStatus(t, ts2.URL, st.ID, false); rec.State != StateDone {
		t.Fatalf("recovered job state %q", rec.State)
	}
	gotLines, code := getJSONL(t, ts2.URL, st.ID)
	if code != http.StatusOK || len(gotLines) != n {
		t.Fatalf("post-restart jsonl: status %d, %d lines, want %d — the replay gap is back", code, len(gotLines), n)
	}
	for i := range wantLines {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Fatalf("point %d: recovered bytes differ from the original spill", i)
		}
	}
	pg, code := getResultsPage(t, ts2.URL, st.ID, 0, n)
	if code != http.StatusOK || len(pg.Results) != n || pg.Degraded {
		t.Fatalf("recovered page: status %d, %+v", code, pg)
	}
}

// TestChaosResultsWriteFault: with every spill append failing (disk full, in
// effect), jobs still run to done with full summaries — the loss-free payload
// degrades away and the degradation is visible in the results endpoints and
// counted in metrics. Results are an availability surface, not a correctness
// dependency.
func TestChaosResultsWriteFault(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	defer faultinject.Enable(faultinject.Plan{
		faultinject.ServeResultsWrite: {Mode: faultinject.ModeError},
	})()

	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	specs := []PointSpec{hopfSpec("w0", 3e3), hopfSpec("w1", 3e3+1)}
	_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: specs})
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateDone {
		t.Fatalf("job under spill faults: %+v", done)
	}
	if len(done.Results) != 2 {
		t.Fatalf("summaries under spill faults: %d, want 2", len(done.Results))
	}
	pg, code := getResultsPage(t, ts.URL, st.ID, 0, 10)
	if code != http.StatusOK {
		t.Fatalf("page on degraded job: status %d", code)
	}
	if !pg.Degraded || pg.Spilled != 0 || len(pg.Results) != 0 {
		t.Fatalf("degraded page: %+v", pg)
	}
	if lines, code := getJSONL(t, ts.URL, st.ID); code != http.StatusOK || len(lines) != 0 {
		t.Fatalf("degraded jsonl served %d results (status %d), want none", len(lines), code)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("pn_serve_results_errors_total", ""); got < 1 {
		t.Fatalf("result errors = %d, want >= 1", got)
	}
	if got := snap.Counter("pn_serve_results_degraded_total", ""); got < 1 {
		t.Fatalf("result degradations = %d, want >= 1", got)
	}
}

// TestChaosResultsReadFault: a failing read path answers pages with an
// explicit 500 and truncates the JSONL stream, and recovers the moment the
// fault clears — the spill file itself is untouched.
func TestChaosResultsReadFault(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: []PointSpec{hopfSpec("r0", 4e3)}})
	if waitState(t, ts.URL, st.ID, terminal).State != StateDone {
		t.Fatal("job failed")
	}

	disable := faultinject.Enable(faultinject.Plan{
		faultinject.ServeResultsRead: {Mode: faultinject.ModeError},
	})
	if _, code := getResultsPage(t, ts.URL, st.ID, 0, 10); code != http.StatusInternalServerError {
		t.Fatalf("page under read fault: status %d, want 500", code)
	}
	if lines, _ := getJSONL(t, ts.URL, st.ID); len(lines) != 0 {
		t.Fatalf("jsonl under read fault returned %d results", len(lines))
	}
	disable()

	pg, code := getResultsPage(t, ts.URL, st.ID, 0, 10)
	if code != http.StatusOK || len(pg.Results) != 1 {
		t.Fatalf("page after fault cleared: status %d, %d results", code, len(pg.Results))
	}
	if res := getResults(t, ts.URL, st.ID); len(res) != 1 || res[0].Index != 0 || !res[0].OK() {
		t.Fatalf("jsonl after fault cleared: %d results", len(res))
	}
}

// TestResultsPageIsMarshalledPage: a page is written around its frames, not
// marshalled with them, and the body is still exactly json.Marshal of the
// page, for a real hopf job's full page, a sparse page (a slot never
// spilled) and a page with next_offset.
func TestResultsPageIsMarshalledPage(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	specs := []PointSpec{hopfSpec("mp0", 5e3), hopfSpec("mp1", 5e3+1), hopfSpec("mp2", 5e3+2)}
	_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: specs})
	if waitState(t, ts.URL, st.ID, terminal).State != StateDone {
		t.Fatal("job failed")
	}
	check := func(what string, offset, limit, frames int) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results?offset=%d&limit=%d", ts.URL, st.ID, offset, limit))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, %q, %v", what, resp.StatusCode, resp.Header.Get("Content-Type"), err)
		}
		var pg ResultsPage
		if err := json.Unmarshal(body, &pg); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(pg.Results) != frames {
			t.Fatalf("%s: %d results, want %d", what, len(pg.Results), frames)
		}
		want, err := json.Marshal(pg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("%s: body of %d bytes differs from json.Marshal of its page (%d bytes)", what, len(body), len(want)+1)
		}
	}
	check("full page", 0, 3, 3)
	check("page with next_offset", 1, 1, 1)

	s.mu.Lock()
	rf := s.jobs[st.ID].rf
	s.mu.Unlock()
	rf.mu.Lock()
	rf.offsets[1] = -1 // as if point 1 had never been spilled
	rf.mu.Unlock()
	check("sparse page", 0, 3, 2)
	check("empty page", 1, 1, 0)
}

// TestChaosQuotaCheckFault: the quota-check fault point rejects submissions
// as if the tenant were over its rate — 429, Retry-After, both rejection
// counters — and clears with the plan.
func TestChaosQuotaCheckFault(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	disable := faultinject.Enable(faultinject.Plan{
		faultinject.ServeQuotaCheck: {Mode: faultinject.ModeError},
	})
	body, _ := json.Marshal(CharacteriseRequest{PointSpec: hopfSpec("q0", 5e3)})
	resp, err := http.Post(ts.URL+"/v1/characterise", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit under quota fault: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	disable()

	snap := reg.Snapshot()
	if got := snap.Counter("pn_serve_rejected_total", "tenant_rate"); got < 1 {
		t.Fatalf("rejected{tenant_rate} = %d, want >= 1", got)
	}
	if got := snap.Counter("pn_serve_tenant_rejected_total", DefaultTenant); got < 1 {
		t.Fatalf("tenant_rejected{default} = %d, want >= 1", got)
	}

	resp2, st := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("q0", 5e3)})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after fault cleared: %d", resp2.StatusCode)
	}
	waitState(t, ts.URL, st.ID, terminal)
}

// TestServeResultMemoryBounded is the heap guard for the spill store: a big
// sweep must not leave an O(points) result slice behind on the server. The
// job runs against a shared cache (so points dedup onto one computation)
// and, once terminal, retained heap over the pre-submit baseline must be far
// below what holding the loss-free results in memory would cost — yet every
// loss-free payload is still downloadable from the spill file.
func TestServeResultMemoryBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates heap accounting and point cost; the bound is only meaningful in a plain build")
	}
	store, err := cache.New(cache.Options{MaxBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Cache: store, MaxPoints: 4096})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A hopf point's loss-free payload is ~1.25 MB; 256 of them held in
	// memory — the old contract — would pin ~320 MB.
	const n = 256
	specs := make([]PointSpec, n)
	for i := range specs {
		// Same params => same content-addressed key: one characterisation,
		// n-1 cache hits, every one of which used to be retained in full.
		specs[i] = hopfSpec(fmt.Sprintf("mem%d", i), 6e3)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: specs})
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateDone || done.DonePoints != n {
		t.Fatalf("job: %+v", done)
	}

	runtime.GC()
	runtime.ReadMemStats(&m1)
	var retained int64
	if m1.HeapAlloc > m0.HeapAlloc {
		retained = int64(m1.HeapAlloc - m0.HeapAlloc)
	}
	// Summaries + SSE history cost a few KiB per point; the loss-free
	// results cost ~1.25 MB each. A 64 KiB/point bound leaves 20x slack
	// for GC noise and the one cached entry while still failing decisively
	// if a result slice sneaks back in (which would sit 20x above it).
	if limit := int64(n * 64 << 10); retained > limit {
		t.Fatalf("server retains %d bytes after a %d-point sweep (limit %d): per-job results are back in memory", retained, n, limit)
	}

	lines, code := getJSONL(t, ts.URL, st.ID)
	if code != http.StatusOK || len(lines) != n {
		t.Fatalf("jsonl after big sweep: status %d, %d lines, want %d", code, len(lines), n)
	}
}

// TestResultSpillScanTolerance: a torn tail (partial frame) on reopen is
// truncated, everything before it stays readable — the same stance journal
// replay takes.
func TestResultSpillScanTolerance(t *testing.T) {
	jl := &journal{dir: t.TempDir()}
	rf := openResults(t, jl, "jt", 3)
	for i := 0; i < 2; i++ {
		if err := rf.append(i, []byte(fmt.Sprintf(`{"index":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	rf.seal()
	rf.log.close()

	// Tear the tail: append half a frame header.
	f, err := os.OpenFile(rf.log.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rf2 := reopenResults(t, jl, "jt")
	defer rf2.log.close()
	n, total, degraded := rf2.snapshot()
	if n != 2 || total != 3 || degraded {
		t.Fatalf("after torn tail: n=%d total=%d degraded=%v", n, total, degraded)
	}
	// The truncated file accepts the missing frame again.
	if err := rf2.append(2, []byte(`{"index":2}`)); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := rf2.snapshot(); n != 3 {
		t.Fatalf("appends after truncation: n=%d", n)
	}
	for i := 0; i < 3; i++ {
		raw, err := rf2.frame(i)
		if err != nil || raw == nil {
			t.Fatalf("frame %d unreadable after recovery: %v", i, err)
		}
	}
}

// TestResultSpillSealedReopens: result records, appended and sealed with no
// sync of their own, read back with every record byte for byte, for a
// resumed job (no terminal event) and a finished one (after the terminal
// event) alike.
func TestResultSpillSealedReopens(t *testing.T) {
	jl := &journal{dir: t.TempDir()}
	const n = 4
	record := func(i int) []byte { return []byte(fmt.Sprintf(`{"index":%d,"c":1.5e-%d}`, i, 10+i)) }
	rf := openResults(t, jl, "js", n)
	for i := 0; i < n; i++ {
		if err := rf.append(i, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	rf.seal()
	rf.log.close()
	for _, name := range []string{"resumed", "finished"} {
		rj, ok := jl.recover("js")
		if !ok || rj.rf == nil || rj.terminal != (name == "finished") {
			t.Fatalf("%s: replay ok %v, results %v, terminal %v", name, ok, rj.rf != nil, rj.terminal)
		}
		rf := rj.rf
		if got, total, degraded := rf.snapshot(); got != n || total != n || degraded {
			t.Fatalf("%s: n=%d total=%d degraded=%v, want all %d records", name, got, total, degraded, n)
		}
		for i := 0; i < n; i++ {
			if raw, err := rf.frame(i); err != nil || !bytes.Equal(raw, record(i)) {
				t.Fatalf("%s: frame %d = %q, %v; want %q", name, i, raw, err, record(i))
			}
		}
		rf.seal()
		rf.log.event(Event{Seq: 1, Type: "state", State: StateDone}, true)
		rf.log.close()
	}
}

// TestJSONLReadsIntoOneBuffer: the bulk download reads every inline record
// into one buffer, so its allocations do not grow with the number of points
// (a buffer per record was about 0.5 MB of garbage per served point). The
// records are equal in size, so the first read sizes the buffer for all.
func TestJSONLReadsIntoOneBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves each frame's header read to the heap")
	}
	body := append(append([]byte(`{"index":0,"pad":"`), bytes.Repeat([]byte{'x'}, 64<<10)...), `"}`...)
	allocs := func(n int) float64 {
		rf := openResults(t, journalAt(t.TempDir()), "j1", n)
		defer rf.log.close()
		for i := range n {
			if err := rf.append(i, body); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if err := rf.writeJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(4), allocs(64)
	if many > few {
		t.Fatalf("writeJSONL: %.0f allocs for 64 points, %.0f for 4: a read allocates per record", many, few)
	}
	t.Logf("%.0f allocs per download at 4 and at 64 points", many)
}
