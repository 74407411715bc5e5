package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// jobView is the slice of serve.JobStatus this test reads; decoding into a
// local struct keeps the test on the public wire format, exactly as an
// external client would be.
type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Points int    `json:"points"`
	Done   int    `json:"done_points"`
	Cached int    `json:"cached_points"`
	Failed int    `json:"failed_points"`
}

// TestCrashRecoveryE2E is the headline durability test, end to end over real
// processes: build pnserve, start it with a journal and a disk cache, submit
// a sweep, SIGKILL the server mid-job, restart it on the same directories,
// and watch the job finish — with the pre-kill points served from the cache
// (zero recomputation, asserted through /metrics) and the client's resubmit
// deduplicated onto the recovered job by its Idempotency-Key.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes; skipped in -short")
	}

	work := t.TempDir()
	bin := filepath.Join(work, "pnserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pnserve: %v\n%s", err, out)
	}
	journalDir := filepath.Join(work, "journal")
	cacheDir := filepath.Join(work, "cache")

	listenRE := regexp.MustCompile(`listening on (\S+)`)
	start := func() (*exec.Cmd, string) {
		cmd := exec.Command(bin,
			"-addr", "127.0.0.1:0", "-workers", "1",
			"-journal-dir", journalDir, "-cache-dir", cacheDir)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
			_ = cmd.Wait()
		})
		// The server prints its resolved address (the kernel picked the port)
		// on the first stderr line; keep draining the pipe afterwards so the
		// child never blocks on a full pipe buffer.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				go func() {
					for sc.Scan() {
					}
				}()
				return cmd, "http://" + m[1]
			}
		}
		t.Fatalf("pnserve never reported its listen address (stderr closed: %v)", sc.Err())
		return nil, ""
	}

	waitCode := func(base, path string, code int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(base + path)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == code {
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("%s never answered %d", path, code)
	}
	getJob := func(base, id string) jobView {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v jobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	// The sweep: slow ring points (~100ms each) on one worker, so the kill
	// lands mid-job with a wide margin.
	const n = 8
	var sb strings.Builder
	sb.WriteString(`{"points":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"name":"ring%d","model":"ring","params":{"iee":%g}}`, i, 331e-6*(1+0.001*float64(i)))
	}
	sb.WriteString(`]}`)
	body := sb.String()
	submit := func(base string) (*http.Response, jobView) {
		t.Helper()
		req, err := http.NewRequest("POST", base+"/v1/sweep", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "e2e-crash-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v jobView
		_ = json.NewDecoder(resp.Body).Decode(&v)
		return resp, v
	}

	// Phase 1: start, submit, let some points finish, SIGKILL.
	cmd1, base1 := start()
	waitCode(base1, "/readyz", http.StatusOK)
	resp, job := submit(base1)
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, job)
	}
	var preKill jobView
	deadline := time.Now().Add(60 * time.Second)
	for {
		preKill = getJob(base1, job.ID)
		if preKill.Done >= 2 {
			break
		}
		if preKill.State != "queued" && preKill.State != "running" {
			t.Fatalf("job finished before the kill: %+v (sweep too fast for this test)", preKill)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", preKill)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd1.Wait()

	// Phase 2: restart on the same directories. The client resubmits (its
	// 202 could have been lost in the crash); the Idempotency-Key maps it
	// onto the recovered job instead of queueing a duplicate.
	_, base2 := start()
	waitCode(base2, "/readyz", http.StatusOK)
	resp2, job2 := submit(base2)
	if resp2.StatusCode != http.StatusOK || job2.ID != job.ID {
		t.Fatalf("post-crash resubmit: %d id=%q (want 200 replay of %s)", resp2.StatusCode, job2.ID, job.ID)
	}
	if resp2.Header.Get("Idempotent-Replay") != "true" {
		t.Fatal("post-crash resubmit missing Idempotent-Replay header")
	}

	var final jobView
	deadline = time.Now().Add(120 * time.Second)
	for {
		final = getJob(base2, job.ID)
		if final.State == "done" || final.State == "failed" || final.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job never finished: %+v", final)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != "done" || final.Done != n || final.Failed != 0 {
		t.Fatalf("recovered job: %+v", final)
	}
	// Every point computed before the kill must come back as a cache hit.
	if final.Cached < preKill.Done {
		t.Fatalf("recovered job cached %d points, want >= the %d done before the kill", final.Cached, preKill.Done)
	}

	// Zero recomputation, from the restarted process's own metrics: it ran
	// the pipeline exactly once per non-cached point.
	mresp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	okRE := regexp.MustCompile(`pn_core_characterisations_total\{outcome="ok"\} (\d+)`)
	m := okRE.FindSubmatch(mbody)
	if m == nil {
		t.Fatalf("pn_core_characterisations_total{outcome=\"ok\"} missing from /metrics:\n%s", mbody)
	}
	ran, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	if want := n - final.Cached; ran != want {
		t.Fatalf("restarted server ran the pipeline %d times, want %d (= %d points - %d cached)", ran, want, n, final.Cached)
	}
	if !bytes.Contains(mbody, []byte(`pn_serve_jobs_recovered_total{outcome="resumed"} 1`)) {
		t.Fatalf("recovered{resumed} metric missing:\n%s", mbody)
	}

	// The loss-free payload crossed the crash too: the spill file next to the
	// WAL kept every pre-kill point, the resumed run appended the rest, and
	// the streaming download serves all of them from the restarted process.
	jresp, err := http.Get(base2 + "/v1/jobs/" + job.ID + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("results.jsonl after crash recovery: %d", jresp.StatusCode)
	}
	seen := make(map[int]bool)
	jsc := bufio.NewScanner(jresp.Body)
	jsc.Buffer(make([]byte, 0, 64*1024), 1<<26)
	for jsc.Scan() {
		if len(jsc.Bytes()) == 0 {
			continue
		}
		var res struct {
			Index int             `json:"index"`
			Name  string          `json:"name"`
			Res   json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(jsc.Bytes(), &res); err != nil {
			t.Fatalf("undecodable jsonl line: %v", err)
		}
		if res.Res == nil {
			t.Fatalf("point %d (%s) streamed without its loss-free result", res.Index, res.Name)
		}
		seen[res.Index] = true
	}
	if err := jsc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("results.jsonl after crash: %d distinct points, want %d", len(seen), n)
	}

	// And the paginated window works across the restart as well.
	presp, err := http.Get(base2 + "/v1/jobs/" + job.ID + "/results?offset=0&limit=3")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Total      int               `json:"total"`
		Spilled    int               `json:"spilled"`
		NextOffset *int              `json:"next_offset"`
		Results    []json.RawMessage `json:"results"`
	}
	err = json.NewDecoder(presp.Body).Decode(&page)
	presp.Body.Close()
	if err != nil || presp.StatusCode != http.StatusOK {
		t.Fatalf("paginated results after crash: %d, %v", presp.StatusCode, err)
	}
	if page.Total != n || page.Spilled != n || len(page.Results) != 3 || page.NextOffset == nil || *page.NextOffset != 3 {
		t.Fatalf("paginated window after crash: total=%d spilled=%d len=%d next=%v", page.Total, page.Spilled, len(page.Results), page.NextOffset)
	}
}
