package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// The cluster e2e suite runs the sweep fabric over real processes: plain
// pnserve workers, a pnserve coordinator in front of them, and real SIGKILLs.
// It asserts the two headline robustness stories end to end:
//
//   - worker death mid-lease: the lease is reassigned and the sweep completes
//     with no cached point recomputed (TestClusterWorkerSIGKILLE2E);
//   - coordinator death mid-sweep: the restarted coordinator replays its
//     journalled lease state and resumes without any client intervention,
//     with every point characterised exactly once fleet-wide
//     (TestClusterCoordinatorRestartE2E).

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// buildServer compiles pnserve into dir and returns the binary path.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "pnserve")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race") // the whole fleet runs under the detector
	}
	if out, err := exec.Command("go", append(args, ".")...).CombinedOutput(); err != nil {
		t.Fatalf("building pnserve: %v\n%s", err, out)
	}
	return bin
}

// startServer launches one pnserve with the given extra flags and returns the
// process and its base URL (parsed from the stderr banner; the kernel picks
// the port). The stderr pipe keeps draining in the background so the child
// never blocks on it. The child's TMPDIR is a test directory: a server
// without -journal-dir spills results into a temp directory of its own,
// which the SIGKILL at cleanup would otherwise leave behind.
func startServer(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "TMPDIR="+t.TempDir())
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
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
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

// clusterJobView is the slice of the job status these tests read off the wire.
type clusterJobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Done   int    `json:"done_points"`
	Cached int    `json:"cached_points"`
	Failed int    `json:"failed_points"`
}

func clusterGetJob(t *testing.T, base, id string) clusterJobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v clusterJobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func clusterWaitReady(t *testing.T, base string) {
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
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", base)
}

// clusterSweepBody builds an n-point ring sweep (~100ms+ per point, so kills
// land mid-job) with per-point parameter salt so every point is distinct.
func clusterSweepBody(n int, salt float64) string {
	var sb strings.Builder
	sb.WriteString(`{"points":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"name":"ring%d","model":"ring","params":{"iee":%g}}`, i, clusterSweepIEE(i, salt))
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// clusterSweepIEE is point i's tail current in clusterSweepBody(n, salt).
func clusterSweepIEE(i int, salt float64) float64 { return 331e-6 * (1 + 0.001*(salt+float64(i))) }

// clusterSplitSalt returns the first salt from start up whose n-point sweep
// has points homed on every worker of the coordinator's hash ring (the
// default ring, over the same URLs the -coordinator flag lists). Leases are
// cut per home worker, so such a sweep puts a lease on each worker whatever
// ports the workers drew; a fixed salt leaves one worker idle in about one
// run in fifteen.
func clusterSplitSalt(t *testing.T, n int, start float64, workers ...string) float64 {
	t.Helper()
	ring := cluster.NewRing(workers, 0)
	for salt := start; salt < start+100; salt++ {
		homes := map[string]bool{}
		for i := 0; i < n; i++ {
			sp := serve.PointSpec{Model: "ring", Params: map[string]float64{"iee": clusterSweepIEE(i, salt)}}
			homes[ring.Primary(sp.RoutingKey())] = true
		}
		if len(homes) == len(workers) {
			return salt
		}
	}
	t.Fatalf("no salt in [%g, %g) spreads %d points over workers %v", start, start+100, n, workers)
	return 0
}

func clusterSubmit(t *testing.T, base, idemKey, body string) clusterJobView {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", idemKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var v clusterJobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// metricValue scrapes one counter (with an optional label selector, passed
// verbatim) from a live server's /metrics; absent counters read as 0.
func metricValue(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	re := regexp.MustCompile(regexp.QuoteMeta(name) + ` (\d+)`)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

// countCacheEntries counts the committed result files in a shared cache
// volume (entries land by atomic rename, so the count is a consistent
// snapshot).
func countCacheEntries(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// healthRunning reports how many jobs a node says it is running.
func healthRunning(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var h struct {
		Running int `json:"running"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&h)
	return h.Running
}

// TestClusterWorkerSIGKILLE2E: two worker nodes and a coordinator over a
// shared cache volume; the worker holding an active lease is SIGKILLed
// mid-sweep. The lease must be reassigned (to the surviving worker or the
// coordinator's in-process fallback), the sweep must complete cleanly, and no
// point that reached the shared cache before the kill may be recomputed.
func TestClusterWorkerSIGKILLE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes; skipped in -short")
	}
	work := t.TempDir()
	bin := buildServer(t, work)
	cacheDir := filepath.Join(work, "cache")

	w1cmd, w1 := startServer(t, bin, "-workers", "1", "-cache-dir", cacheDir)
	w2cmd, w2 := startServer(t, bin, "-workers", "1", "-cache-dir", cacheDir)
	_, coord := startServer(t, bin,
		"-workers", "2", "-cache-dir", cacheDir,
		"-journal-dir", filepath.Join(work, "coord-journal"),
		"-coordinator", w1+","+w2,
		"-lease-ttl", "2s", "-lease-points", "2")
	for _, b := range []string{w1, w2, coord} {
		clusterWaitReady(t, b)
	}

	const n = 8
	job := clusterSubmit(t, coord, "cluster-e2e-kill", clusterSweepBody(n, 0))
	if job.ID == "" {
		t.Fatal("submit returned no job ID")
	}

	// Pick the victim: a worker that is actually running a leased job right
	// now, so the kill is guaranteed to land mid-lease.
	var victim *exec.Cmd
	deadline := time.Now().Add(60 * time.Second)
	for victim == nil {
		if healthRunning(t, w1) > 0 {
			victim = w1cmd
		} else if healthRunning(t, w2) > 0 {
			victim = w2cmd
		}
		if st := clusterGetJob(t, coord, job.ID); st.State != "queued" && st.State != "running" {
			t.Fatalf("job finished before any lease was observable: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("no worker ever reported a running lease")
		}
	}
	// Snapshot the shared cache just before the kill: everything in it now
	// must never be computed again by the survivors.
	cachedAtKill := countCacheEntries(t, cacheDir)
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()
	survivor := w2
	if victim == w2cmd {
		survivor = w1
	}

	var final clusterJobView
	deadline = time.Now().Add(180 * time.Second)
	for {
		final = clusterGetJob(t, coord, job.ID)
		if final.State == "done" || final.State == "failed" || final.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished after the worker kill: %+v", final)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if final.State != "done" || final.Done != n || final.Failed != 0 {
		t.Fatalf("sweep after worker kill: %+v, want done %d/0", final, n)
	}

	// The killed worker held a lease, so at least one lease was reassigned.
	if requeued := metricValue(t, coord, `pn_cluster_leases_total{outcome="requeued"}`); requeued < 1 {
		t.Fatalf("requeued leases = %d, want >= 1 (the killed lease)", requeued)
	}
	// Exactly-once effect: the survivors' combined pipeline runs can cover at
	// most the points that were NOT already in the shared cache when the
	// victim died — anything cached must come back as a hit, not a re-run.
	ranSurvivor := metricValue(t, survivor, `pn_core_characterisations_total{outcome="ok"}`)
	ranCoord := metricValue(t, coord, `pn_core_characterisations_total{outcome="ok"}`)
	if ranSurvivor+ranCoord > n-cachedAtKill {
		t.Fatalf("survivors ran the pipeline %d+%d times with %d points pre-cached: some cached point was recomputed",
			ranSurvivor, ranCoord, cachedAtKill)
	}
}

// TestClusterCoordinatorRestartE2E: the coordinator is SIGKILLed mid-sweep
// and restarted on the same journal directories. The restarted process must
// replay the job journal and the lease WAL, reattach (or re-dispatch) its
// leases, and finish the sweep with zero client intervention — the client
// only ever polls the job ID. The workers' own metrics prove fleet-wide
// exactly-once: together they characterise each of the n points exactly
// once, no matter how many lease attempts the restart produced. The job's
// merged trace must survive the kill too: one trace ID spanning the worker
// processes and the coordinator, with the interrupted leases' flight markers
// recording what was in the air when the process died.
func TestClusterCoordinatorRestartE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes; skipped in -short")
	}
	work := t.TempDir()
	bin := buildServer(t, work)
	cacheDir := filepath.Join(work, "cache")
	journalDir := filepath.Join(work, "coord-journal")

	_, worker := startServer(t, bin, "-workers", "1", "-cache-dir", cacheDir)
	_, worker2 := startServer(t, bin, "-workers", "1", "-cache-dir", cacheDir)
	coordArgs := []string{
		"-workers", "1", "-cache-dir", cacheDir,
		"-journal-dir", journalDir,
		"-coordinator", worker + "," + worker2,
		"-lease-ttl", "1s", "-lease-points", "2",
	}
	coord1cmd, coord1 := startServer(t, bin, coordArgs...)
	clusterWaitReady(t, worker)
	clusterWaitReady(t, worker2)
	clusterWaitReady(t, coord1)

	// Both workers must hold a lease for the merged trace to span them.
	const n = 10
	salt := clusterSplitSalt(t, n, 100, worker, worker2)
	job := clusterSubmit(t, coord1, "cluster-e2e-restart", clusterSweepBody(n, salt))
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := clusterGetJob(t, coord1, job.ID)
		if st.Done >= 2 {
			break
		}
		if st.State != "queued" && st.State != "running" {
			t.Fatalf("job finished before the kill: %+v (sweep too fast for this test)", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := coord1cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = coord1cmd.Wait()

	// Restart on the same directories. No resubmission happens: the journal
	// replay must bring the job back by itself.
	_, coord2 := startServer(t, bin, coordArgs...)
	clusterWaitReady(t, coord2)

	var final clusterJobView
	deadline = time.Now().Add(180 * time.Second)
	for {
		final = clusterGetJob(t, coord2, job.ID)
		if final.State == "done" || final.State == "failed" || final.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered sweep never finished: %+v", final)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if final.State != "done" || final.Done != n || final.Failed != 0 {
		t.Fatalf("sweep after coordinator restart: %+v, want done %d/0", final, n)
	}

	// Fleet-wide exactly-once, measured at the compute sites: the workers
	// together ran the pipeline exactly once per point across both
	// coordinator incarnations — re-dispatched leases found their finished
	// points in the cache instead of recomputing them.
	ran1 := metricValue(t, worker, `pn_core_characterisations_total{outcome="ok"}`)
	ran2 := metricValue(t, worker2, `pn_core_characterisations_total{outcome="ok"}`)
	if ran1+ran2 != n {
		t.Fatalf("workers ran the pipeline %d+%d times across the restart, want exactly %d total", ran1, ran2, n)
	}

	// The merged timeline survived the SIGKILL: one trace ID end to end,
	// spans from at least three processes (both workers plus a coordinator
	// incarnation), and flight markers recording the leases that were in the
	// air when coordinator 1 died.
	jt := clusterGetTrace(t, coord2, job.ID)
	if jt.TraceID == "" || len(jt.Spans) == 0 {
		t.Fatalf("restarted coordinator serves no trace: id=%q spans=%d", jt.TraceID, len(jt.Spans))
	}
	procs := map[string]bool{}
	flights := 0
	for _, ev := range jt.Spans {
		if ev.Trace != "" && ev.Trace != jt.TraceID {
			t.Fatalf("event %q carries trace %q, want %q — one trace end to end", ev.Name, ev.Trace, jt.TraceID)
		}
		if ev.Type == "span" {
			procs[ev.Proc] = true
		}
		if ev.Type == "flight" {
			flights++
		}
	}
	if len(procs) < 3 {
		t.Fatalf("timeline spans %d processes (%v), want >= 3 (workers + coordinator)", len(procs), procs)
	}
	if flights < 1 {
		t.Fatal("timeline has no flight markers for the leases interrupted by the kill")
	}
}

// clusterTraceView is the slice of the trace payload the e2e suite reads.
type clusterTraceView struct {
	TraceID string `json:"trace_id"`
	Spans   []struct {
		Type  string `json:"type"`
		Name  string `json:"name"`
		Trace string `json:"trace"`
		Proc  string `json:"proc"`
	} `json:"spans"`
}

func clusterGetTrace(t *testing.T, base, id string) clusterTraceView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: status %d", resp.StatusCode)
	}
	var v clusterTraceView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}
