package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/pll"
	"repro/internal/pnclient"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// fastRetry keeps client-side backoff out of the test clock.
var fastRetry = pnclient.Retry{Attempts: 5, Base: time.Millisecond, Max: 20 * time.Millisecond, Seed: 1}

// startWorker boots one pnserve worker with the given number of execution
// slots over httptest, with its own cache store on the shared disk directory
// — the same sharing model as separate worker processes pointed at one cache
// volume.
func startWorker(t testing.TB, cacheDir string, slots int) (*httptest.Server, *serve.Server) {
	t.Helper()
	store, err := cache.New(cache.Options{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{Workers: slots, Cache: store})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return ts, s
}

// fabric is a two-worker cluster with a coordinator-mode front server.
type fabric struct {
	workers  []string
	coord    *Coordinator
	front    *serve.Server
	frontTS  *httptest.Server
	cacheDir string
}

func startFabric(t testing.TB, nWorkers int, mutate func(*Config)) *fabric {
	t.Helper()
	return startFabricSlots(t, nWorkers, 2, mutate)
}

// startFabricSlots is startFabric with workers of the given slot count.
func startFabricSlots(t testing.TB, nWorkers, slots int, mutate func(*Config)) *fabric {
	t.Helper()
	f := &fabric{cacheDir: t.TempDir()}
	for i := 0; i < nWorkers; i++ {
		ts, _ := startWorker(t, f.cacheDir, slots)
		f.workers = append(f.workers, ts.URL)
	}
	f.startFront(t, mutate)
	return f
}

// startFront starts the coordinator over f.workers and its front server.
func (f *fabric) startFront(t testing.TB, mutate func(*Config)) {
	t.Helper()
	coordStore, err := cache.New(cache.Options{Dir: f.cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers:        f.workers,
		LeasePoints:    3,
		LeaseTTL:       2 * time.Second,
		HeartbeatEvery: 200 * time.Millisecond,
		Retry:          fastRetry,
		Probe:          ProbeConfig{Every: 100 * time.Millisecond},
		WALDir:         t.TempDir(),
		Cache:          coordStore,
		Logf:           t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f.coord = New(cfg)
	t.Cleanup(f.coord.Close)
	f.front = serve.New(serve.Config{Workers: 2, Runner: f.coord})
	f.frontTS = httptest.NewServer(f.front)
	t.Cleanup(func() {
		f.frontTS.Close()
		f.front.Shutdown(context.Background())
	})
}

// hopfPoints are fast, fresh points with distinct fingerprints.
func hopfPoints(n int, salt float64) []serve.PointSpec {
	pts := make([]serve.PointSpec, n)
	for i := range pts {
		pts[i] = serve.PointSpec{
			Name:   fmt.Sprintf("p%d", i),
			Model:  "hopf",
			Params: map[string]float64{"lambda": 1, "omega": 1000 + salt + float64(i), "sigma": 0.02},
		}
	}
	return pts
}

// ringPoints are slow points (no closed-form period, real integration) so a
// job reliably outlives lease TTLs measured in hundreds of milliseconds.
func ringPoints(n int, salt float64) []serve.PointSpec {
	pts := make([]serve.PointSpec, n)
	for i := range pts {
		pts[i] = serve.PointSpec{
			Name:   fmt.Sprintf("ring%d", i),
			Model:  "ring",
			Params: map[string]float64{"iee": 331e-6 * (1 + 0.001*(salt+float64(i)))},
		}
	}
	return pts
}

func submitAndWait(t *testing.T, base string, req serve.SweepRequest) serve.JobStatus {
	t.Helper()
	cl := pnclient.New(base, nil, fastRetry)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cl.Sweep(ctx, req, "")
	if err != nil {
		t.Fatal(err)
	}
	st, err = cl.Wait(ctx, st.ID, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// jobLines downloads a job's results.jsonl lines.
func jobLines(t *testing.T, base, id string) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var lines [][]byte
	err := pnclient.New(base, nil, fastRetry).StreamResults(ctx, id, func(line []byte) error {
		lines = append(lines, bytes.Clone(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// assertAllOK checks a terminal job's status and its results.jsonl: one
// line per point, in index order, each OK and exactly MarshalJSON of the
// result it decodes to.
func assertAllOK(t *testing.T, base string, st serve.JobStatus, n int) {
	t.Helper()
	if st.State != serve.StateDone {
		t.Fatalf("job state %q, want done (error: %v)", st.State, st.Error)
	}
	if st.DonePoints != n || st.FailedPoints != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0 (%+v)", st.DonePoints, st.FailedPoints, n, st.Results)
	}
	lines := jobLines(t, base, st.ID)
	if len(lines) != n {
		t.Fatalf("loss-free results: %d, want %d", len(lines), n)
	}
	for i, line := range lines {
		var r sweep.PointResult
		if err := r.UnmarshalJSON(line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !r.OK() {
			t.Fatalf("point %d (%s) failed: %v", i, r.Name, r.Err)
		}
		if r.Index != i {
			t.Fatalf("point %d carries index %d", i, r.Index)
		}
		if enc, err := r.MarshalJSON(); err != nil || !bytes.Equal(enc, line) {
			t.Fatalf("point %d: the line is not MarshalJSON of the result it decodes to (%v)", i, err)
		}
	}
}

// TestClusterEndToEnd is the happy path: a sweep through the coordinator
// front lands every point exactly once across two workers, and the front's
// own SSE stream carries the merged per-point progress.
func TestClusterEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	f := startFabric(t, 2, nil)
	const n = 10
	st := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: hopfPoints(n, 0)})
	assertAllOK(t, f.frontTS.URL, st, n)
	assertLinesCopied(t, f, st.ID)

	snap := reg.Snapshot()
	// Exactly-once: every point characterised once fleet-wide, none duplicated.
	if got := snap.Counter("pn_core_characterisations_total", "ok"); got != n {
		t.Fatalf("characterisations = %d, want exactly %d", got, n)
	}
	if d := snap.Counter("pn_cluster_leases_total", "dispatched"); d < 2 {
		t.Fatalf("leases dispatched = %d, want >= 2 (LeasePoints=3, %d points)", d, n)
	}
	if fb := snap.Counter("pn_cluster_fallback_leases_total", ""); fb != 0 {
		t.Fatalf("healthy cluster used the in-process fallback %d times", fb)
	}

	// The front's aggregated SSE stream replays one point event per index.
	seen := map[int]int{}
	for _, ev := range frontEvents(t, f.frontTS.URL, st.ID) {
		if ev.Type == "point" && ev.Point != nil {
			seen[ev.Point.Index]++
		}
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("front SSE delivered point %d %d times: %v", i, seen[i], seen)
		}
	}

	// Identical resubmission: all cache hits, zero new characterisations.
	st2 := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: hopfPoints(n, 0)})
	assertAllOK(t, f.frontTS.URL, st2, n)
	if st2.CachedPoints != n {
		t.Fatalf("resubmit cached %d of %d points", st2.CachedPoints, n)
	}
	if got := reg.Snapshot().Counter("pn_core_characterisations_total", "ok"); got != n {
		t.Fatalf("resubmit recomputed: characterisations = %d, want %d", got, n)
	}
}

// assertLinesCopied checks that every line of the coordinator job's
// results.jsonl is a line a worker served for the same point, with the index
// replaced and nothing else changed. Worker jobs are found by their IDs,
// j1, j2, … on each worker; points by their distinct names.
func assertLinesCopied(t *testing.T, f *fabric, id string) {
	t.Helper()
	served := map[string][][]byte{} // point name -> worker lines
	for _, w := range f.workers {
		for k := 1; ; k++ {
			resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/j%d", w, k))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				break
			}
			for _, line := range jobLines(t, w, fmt.Sprintf("j%d", k)) {
				var r sweep.PointResult
				if err := r.UnmarshalJSON(line); err != nil {
					t.Fatalf("%s job j%d: %v", w, k, err)
				}
				served[r.Name] = append(served[r.Name], line)
			}
		}
	}
	for g, line := range jobLines(t, f.frontTS.URL, id) {
		var r sweep.PointResult
		if err := r.UnmarshalJSON(line); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, wl := range served[r.Name] {
			var wr sweep.PointResult
			if err := wr.UnmarshalJSON(wl); err != nil {
				t.Fatal(err)
			}
			head := fmt.Sprintf(`{"index":%d,`, wr.Index)
			want := append([]byte(fmt.Sprintf(`{"index":%d,`, g)), wl[len(head):]...)
			found = found || bytes.HasPrefix(wl, []byte(head)) && bytes.Equal(line, want)
		}
		if !found {
			t.Fatalf("point %d (%s): the coordinator's line is none of the %d worker lines with its index replaced", g, r.Name, len(served[r.Name]))
		}
	}
}

// TestClusterBadWorkerLines: a worker line that is not valid JSON, or does
// not open with its index, fails the results stream, and the lease is
// requeued. The requeued lease lands every point intact: lines stored before
// the bad one are kept, and the second attempt's copies of them are dropped
// as duplicates.
func TestClusterBadWorkerLines(t *testing.T) {
	for name, spoil := range map[string]func([]byte) []byte{
		"not JSON":        func(line []byte) []byte { return line[:len(line)/2] },
		"no index prefix": func(line []byte) []byte { return append([]byte("{ "), line[1:]...) },
	} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			obs.SetGlobal(reg)
			defer obs.SetGlobal(nil)

			// The worker spoils the last line of the first job's stream, on
			// every fetch of it.
			f := &fabric{cacheDir: t.TempDir()}
			_, w := startWorker(t, f.cacheDir, 2)
			var mu sync.Mutex
			var spoilt string
			ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
				id, ok := strings.CutSuffix(strings.TrimPrefix(req.URL.Path, "/v1/jobs/"), "/results.jsonl")
				mu.Lock()
				if ok && spoilt == "" {
					spoilt = id
				}
				ok = ok && id == spoilt
				mu.Unlock()
				if !ok {
					w.ServeHTTP(rw, req)
					return
				}
				rec := httptest.NewRecorder()
				w.ServeHTTP(rec, req)
				lines := bytes.SplitAfter(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
				lines[len(lines)-1] = append(spoil(lines[len(lines)-1]), '\n')
				rw.WriteHeader(rec.Code)
				rw.Write(bytes.Join(lines, nil))
			}))
			defer ts.Close()
			f.workers = []string{ts.URL}
			f.startFront(t, nil)

			const n = 3
			st := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: hopfPoints(n, 900)})
			assertAllOK(t, f.frontTS.URL, st, n)
			if got := reg.Snapshot().Counter("pn_cluster_leases_total", "requeued"); got < 1 {
				t.Fatalf("requeued leases = %d, want >= 1 (the spoilt stream must fail the lease)", got)
			}
		})
	}
}

// TestClusterCompose: a compose job's spec legs run through the coordinator
// like a sweep's points, and their records are the one runner record the
// server decodes, for the per-source c_i a Sources selection needs. The
// composition and its summary equal what a plain server returns for the
// same request.
func TestClusterCompose(t *testing.T) {
	f := startFabric(t, 1, nil)
	plain := serve.New(serve.Config{Workers: 1})
	plainTS := httptest.NewServer(plain)
	defer func() {
		plainTS.Close()
		plain.Shutdown(context.Background())
	}()

	vco := serve.PointSpec{Name: "vco", Model: "hopf", Params: map[string]float64{"lambda": 1, "omega": 2 * math.Pi, "sigma": 0.02}}
	req := serve.ComposeRequest{
		Stages: []serve.ComposeStage{{
			Ref:             &serve.ComposeLeg{Leg: pll.Leg{Name: "xo", F0Hz: 0.1, C: 1e-24}},
			VCO:             serve.ComposeLeg{Spec: &vco, Leg: pll.Leg{Sources: []string{"x-equation"}}},
			LoopBandwidthHz: 0.05,
		}},
		Grid:         pll.Grid{StartHz: 1e-3, StopHz: 100},
		JitterBandHz: [2]float64{0.01, 10},
	}
	compose := func(base string) (summary, result json.RawMessage) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		cl := pnclient.New(base, nil, fastRetry)
		st, err := cl.Compose(ctx, req, "")
		if err != nil {
			t.Fatal(err)
		}
		if st, err = cl.Wait(ctx, st.ID, false, nil); err != nil || st.State != serve.StateDone {
			t.Fatalf("compose on %s: %+v, %v", base, st, err)
		}
		resp, err := http.Get(base + "/v1/jobs/" + st.ID + "?full=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var raw struct {
			Compose       json.RawMessage `json:"compose"`
			ComposeResult json.RawMessage `json:"compose_result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		if len(raw.Compose) == 0 || len(raw.ComposeResult) == 0 {
			t.Fatalf("compose on %s carried no composition", base)
		}
		return raw.Compose, raw.ComposeResult
	}
	wantSum, wantRes := compose(plainTS.URL)
	gotSum, gotRes := compose(f.frontTS.URL)
	if !bytes.Equal(gotSum, wantSum) {
		t.Fatalf("compose through the coordinator:\n%s\nplain server:\n%s", gotSum, wantSum)
	}
	if !bytes.Equal(gotRes, wantRes) {
		t.Fatalf("compose_result through the coordinator differs from the plain server's (%d against %d bytes)", len(gotRes), len(wantRes))
	}
}

// frontEvents drains the coordinator front's SSE stream for a terminal job.
func frontEvents(t *testing.T, base, id string) []serve.Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []serve.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev serve.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			out = append(out, ev)
		}
	}
	return out
}

// TestClusterDegradedNoWorkers: with no workers configured — and separately
// with only unreachable workers — the coordinator degrades to the in-process
// sweep path and the job still completes.
func TestClusterDegradedNoWorkers(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	var logMu sync.Mutex
	var warned bool
	logf := func(format string, args ...any) {
		logMu.Lock()
		if strings.Contains(fmt.Sprintf(format, args...), "in-process") {
			warned = true
		}
		logMu.Unlock()
		t.Logf(format, args...)
	}

	f := startFabric(t, 0, func(c *Config) { c.Logf = logf })
	const n = 4
	st := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: hopfPoints(n, 50)})
	assertAllOK(t, f.frontTS.URL, st, n)
	logMu.Lock()
	gotWarning := warned
	logMu.Unlock()
	if !gotWarning {
		t.Fatal("degraded run logged no in-process warning")
	}
	if got := reg.Snapshot().Counter("pn_cluster_fallback_leases_total", ""); got < 1 {
		t.Fatalf("fallback leases = %d, want >= 1", got)
	}

	// Unreachable workers: dispatch fails, breakers accumulate failures,
	// the job still lands via fallback.
	f2 := startFabric(t, 0, func(c *Config) {
		c.Workers = []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
		c.Retry = pnclient.Retry{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 1}
		c.Logf = logf
	})
	st2 := submitAndWait(t, f2.frontTS.URL, serve.SweepRequest{Points: hopfPoints(n, 80)})
	assertAllOK(t, f2.frontTS.URL, st2, n)
}

// TestClusterResumeAfterCoordinatorRestart drives RunSweep directly: a first
// coordinator dispatches leases and dies mid-job (its budget token trips); a
// second coordinator with the same WAL directory and job ID resumes — same
// lease IDs, same idempotency keys — deduplicates onto the worker jobs the
// first one created, and finishes with every point characterised exactly
// once.
func TestClusterResumeAfterCoordinatorRestart(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	cacheDir := t.TempDir()
	walDir := t.TempDir()
	var workers []string
	for i := 0; i < 2; i++ {
		ts, _ := startWorker(t, cacheDir, 2)
		workers = append(workers, ts.URL)
	}
	cfg := Config{
		Workers:        workers,
		LeasePoints:    3,
		LeaseTTL:       5 * time.Second, // generous: survives the restart gap
		HeartbeatEvery: 200 * time.Millisecond,
		Retry:          fastRetry,
		Probe:          ProbeConfig{Every: 100 * time.Millisecond},
		WALDir:         walDir,
		Logf:           t.Logf,
	}
	const n = 9
	specs := ringPoints(n, 0)

	// Coordinator 1: run until the first point completes, then kill it.
	coord1 := New(cfg)
	tok1, kill := budget.WithCancel(nil)
	firstPoint := make(chan struct{})
	var once sync.Once
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		coord1.RunSweep(serve.RunnerRequest{
			JobID: "restart-job", Kind: "sweep", Specs: specs, Tok: tok1,
			OnSummary: func(s serve.PointSummary) {
				if s.OK {
					once.Do(func() { close(firstPoint) })
				}
			},
		})
	}()
	select {
	case <-firstPoint:
	case <-time.After(90 * time.Second):
		t.Fatal("no point completed under coordinator 1")
	}
	kill()
	<-done1
	coord1.Close()

	// Coordinator 2: same WAL dir, same job ID, fresh token.
	coord2 := New(cfg)
	defer coord2.Close()
	tok2, release := budget.WithCancel(nil)
	defer release()
	var mu sync.Mutex
	counts := map[int]int{}
	results := make([]sweep.PointResult, n)
	stored := make([]bool, n)
	err := coord2.RunSweep(serve.RunnerRequest{
		JobID: "restart-job", Kind: "sweep", Specs: specs, Tok: tok2,
		OnResult: func(idx int, parts ...[]byte) {
			var r sweep.PointResult
			if err := r.UnmarshalJSON(bytes.Join(parts, nil)); err != nil || r.Index != idx {
				t.Errorf("record %d: index %d, %v", idx, r.Index, err)
			}
			mu.Lock()
			if idx >= 0 && idx < n {
				results[idx] = r
				stored[idx] = true
			}
			mu.Unlock()
		},
		OnSummary: func(s serve.PointSummary) {
			mu.Lock()
			counts[s.Index]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	for i, r := range results {
		if !stored[i] {
			t.Fatalf("resumed run never streamed point %d", i)
		}
		if !r.OK() {
			t.Fatalf("resumed point %d (%s) failed: %v", i, r.Name, r.Err)
		}
		if r.Index != i {
			t.Fatalf("resumed point %d carries index %d", i, r.Index)
		}
	}
	mu.Lock()
	for i := 0; i < n; i++ {
		if counts[i] != 1 {
			t.Fatalf("resumed run reported point %d %d times", i, counts[i])
		}
	}
	mu.Unlock()
	// Exactly-once fleet-wide, across both coordinator incarnations.
	if got := reg.Snapshot().Counter("pn_core_characterisations_total", "ok"); got != n {
		t.Fatalf("characterisations = %d, want exactly %d", got, n)
	}
}

// TestClusterRoutingAffinity: identical points in two separate jobs route to
// the same worker, so the second job's points are cache hits even without a
// shared disk tier — the ring, not luck, creates the affinity.
func TestClusterRoutingAffinity(t *testing.T) {
	coordCfg := Config{Workers: ringWorkers(5), LeasePoints: 4}
	c := New(coordCfg)
	defer c.Close()
	run := &jobRun{coord: c, req: serve.RunnerRequest{Specs: hopfPoints(20, 0)}}
	leases1 := run.buildLeases()
	run2 := &jobRun{coord: c, req: serve.RunnerRequest{Specs: hopfPoints(20, 0)}}
	leases2 := run2.buildLeases()
	if len(leases1) != len(leases2) {
		t.Fatalf("lease layout not deterministic: %d vs %d", len(leases1), len(leases2))
	}
	covered := map[int]bool{}
	for i := range leases1 {
		if leases1[i].key != leases2[i].key || len(leases1[i].indices) != len(leases2[i].indices) {
			t.Fatalf("lease %d differs across identical jobs", i)
		}
		if len(leases1[i].indices) > coordCfg.LeasePoints {
			t.Fatalf("lease %d holds %d points, cap %d", i, len(leases1[i].indices), coordCfg.LeasePoints)
		}
		for _, g := range leases1[i].indices {
			if covered[g] {
				t.Fatalf("point %d appears in two leases", g)
			}
			covered[g] = true
		}
	}
	if len(covered) != 20 {
		t.Fatalf("leases cover %d of 20 points", len(covered))
	}
	// Routed homes must follow the ring primaries.
	for _, l := range leases1 {
		if home := c.ring.Primary(l.key); home == "" {
			t.Fatal("lease with no ring home despite populated worker list")
		}
	}
}
