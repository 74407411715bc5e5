package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pnclient"
	"repro/internal/serve"
)

// TestChaosClusterLeaseDispatch injects failures into the coordinator's
// dispatch path (cluster.lease.dispatch): the first three dispatch attempts
// die before reaching any worker. The leases must requeue and the sweep must
// still land every point exactly once.
func TestChaosClusterLeaseDispatch(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	defer faultinject.Enable(faultinject.Plan{
		faultinject.ClusterLeaseDispatch: {Mode: faultinject.ModeError, Count: 3},
	})()

	f := startFabric(t, 2, nil)
	const n = 8
	st := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: hopfPoints(n, 100)})
	assertAllOK(t, f.frontTS.URL, st, n)

	snap := reg.Snapshot()
	if got := snap.Counter("pn_cluster_leases_total", "requeued"); got < 3 {
		t.Fatalf("requeued leases = %d, want >= 3 (injected dispatch failures)", got)
	}
	if got := snap.Counter("pn_core_characterisations_total", "ok"); got != n {
		t.Fatalf("characterisations = %d, want exactly %d", got, n)
	}
	if stats := faultinject.Stats()[faultinject.ClusterLeaseDispatch]; stats.Fired != 3 {
		t.Fatalf("dispatch fault fired %d times, want 3", stats.Fired)
	}
}

// TestChaosClusterWorkerKill severs the coordinator's event-stream watch
// (cluster.worker.kill) — the coordinator's view of a worker dying or
// partitioning mid-lease. The lease must drain the abandoned attempt,
// requeue, and the job must finish with every point landing exactly once:
// points the first attempt completed come back as cache hits, not
// recomputations.
func TestChaosClusterWorkerKill(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	defer faultinject.Enable(faultinject.Plan{
		faultinject.ClusterWorkerKill: {Mode: faultinject.ModeError, Count: 1},
	})()

	// One worker and a lease cap above n: exactly one lease, so the single
	// injected kill deterministically hits it.
	f := startFabric(t, 1, func(c *Config) {
		c.LeasePoints = 16
		c.LeaseTTL = 2 * time.Second
		c.HeartbeatEvery = 100 * time.Millisecond
	})
	const n = 4
	st := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: ringPoints(n, 200)})
	assertAllOK(t, f.frontTS.URL, st, n)

	snap := reg.Snapshot()
	if got := snap.Counter("pn_cluster_leases_total", "requeued"); got < 1 {
		t.Fatalf("requeued leases = %d, want >= 1 (killed watch)", got)
	}
	if got := snap.Counter("pn_core_characterisations_total", "ok"); got != n {
		t.Fatalf("characterisations = %d, want exactly %d (no duplicate side effects)", got, n)
	}
}

// TestChaosClusterHeartbeatDrop silently drops the coordinator's first four
// lease renewals (cluster.heartbeat.drop) — long enough that the worker's
// lease TTL lapses and it self-cancels the orphaned job. The coordinator
// must notice the canceled lease, requeue under a fresh idempotency key, and
// finish; the worker-side expiry must be visible in the serve metrics.
func TestChaosClusterHeartbeatDrop(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	defer faultinject.Enable(faultinject.Plan{
		faultinject.ClusterHeartbeatDrop: {Mode: faultinject.ModeError, Count: 4},
	})()

	// One one-slot worker, one lease, sequential points: the four dropped
	// renewals span the whole 400ms TTL while the lease is still mid-sweep.
	// A ring point takes about 50ms on a 2-core VM, so eight of them could
	// finish inside the TTL and leave nothing to expire; 32 take well over a
	// second. Under -race two ring points already outlast the 400ms TTL many
	// times over (the whole test takes about 5s on a 2-core VM); more would
	// only slow the race run down.
	f := startFabricSlots(t, 1, 1, func(c *Config) {
		c.LeasePoints = 64
		c.LeaseTTL = 400 * time.Millisecond
		c.HeartbeatEvery = 100 * time.Millisecond
	})
	n := 32
	if raceEnabled {
		n = 2
	}
	st := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: ringPoints(n, 300)})
	assertAllOK(t, f.frontTS.URL, st, n)

	snap := reg.Snapshot()
	if got := snap.Counter("pn_cluster_heartbeats_total", "dropped"); got < 1 {
		t.Fatalf("dropped heartbeats = %d, want >= 1", got)
	}
	if got := snap.Counter("pn_serve_lease_expirations_total", ""); got < 1 {
		t.Fatalf("worker lease expirations = %d, want >= 1 (TTL must have lapsed)", got)
	}
	if got := snap.Counter("pn_cluster_leases_total", "requeued"); got < 1 {
		t.Fatalf("requeued leases = %d, want >= 1 (expired lease reassigned)", got)
	}
	if got := snap.Counter("pn_core_characterisations_total", "ok"); got != int64(n) {
		t.Fatalf("characterisations = %d, want exactly %d", got, n)
	}
}

// TestChaosTraceIngest kills every worker trace pull at the coordinator
// (cluster.trace.ingest). Trace shipping is pure observability: the job must
// finish exactly as without the fault, the failed pulls must be counted, and
// the coordinator's own timeline must still exist — only the worker-side
// spans go missing.
func TestChaosTraceIngest(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	defer faultinject.Enable(faultinject.Plan{
		faultinject.ClusterTraceIngest: {Mode: faultinject.ModeError},
	})()

	f := startFabric(t, 2, nil)
	const n = 6
	st := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: hopfPoints(n, 500)})
	assertAllOK(t, f.frontTS.URL, st, n)

	snap := reg.Snapshot()
	if got := snap.Counter("pn_cluster_trace_pulls_total", "failed"); got < 1 {
		t.Fatalf("failed trace pulls = %d, want >= 1 (every pull faulted)", got)
	}
	if got := snap.Counter("pn_cluster_trace_pulls_total", "ok"); got != 0 {
		t.Fatalf("ok trace pulls = %d, want 0 under a permanent ingest fault", got)
	}
	if stats := faultinject.Stats()[faultinject.ClusterTraceIngest]; stats.Fired < 1 {
		t.Fatal("trace ingest fault never fired; the test exercised nothing")
	}
	// The coordinator's local spans are recorded regardless of pull failures.
	jt := fetchTrace(t, f.frontTS.URL, st.ID)
	if len(jt.Spans) == 0 {
		t.Fatal("coordinator timeline empty despite local spans")
	}
	if !timelineHas(jt, "cluster.lease") {
		t.Fatalf("timeline lacks coordinator lease spans: %+v", jt.Stages)
	}
}

// TestClusterTraceTimeline is the tracing happy path: after a clean sweep
// through the fabric, the coordinator job's trace holds one trace ID shared
// by coordinator-local spans and the span batches pulled from both workers,
// and the fleet status surface reports the settled cluster.
func TestClusterTraceTimeline(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	f := startFabric(t, 2, nil)
	const n = 8
	st := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: hopfPoints(n, 600)})
	assertAllOK(t, f.frontTS.URL, st, n)

	jt := fetchTrace(t, f.frontTS.URL, st.ID)
	if jt.TraceID == "" {
		t.Fatal("job has no trace ID")
	}
	for _, name := range []string{"serve.job", "cluster.lease", "cluster.attempt", "sweep.Run", "sweep.attempt"} {
		if !timelineHas(jt, name) {
			t.Fatalf("timeline lacks %q spans; stages: %+v", name, jt.Stages)
		}
	}
	// Worker jobs re-emit their own serve.job root: the merged timeline holds
	// the coordinator's plus at least one per dispatched lease.
	roots := 0
	for _, ev := range jt.Spans {
		if ev.Trace != jt.TraceID {
			t.Fatalf("span %q carries trace %q, want %q — one trace end to end", ev.Name, ev.Trace, jt.TraceID)
		}
		if ev.Type == "span" && ev.Name == "serve.job" {
			roots++
		}
	}
	if roots < 2 {
		t.Fatalf("serve.job spans = %d, want >= 2 (coordinator + worker jobs)", roots)
	}
	if got := reg.Snapshot().Counter("pn_cluster_trace_pulls_total", "ok"); got < 1 {
		t.Fatalf("ok trace pulls = %d, want >= 1", got)
	}

	// The settled fleet: both workers healthy, breakers closed, no live leases.
	workers, leases := f.coord.Status()
	if len(workers) != 2 {
		t.Fatalf("status reports %d workers, want 2", len(workers))
	}
	for _, w := range workers {
		if !w.Healthy || w.Quarantined || w.Breaker != BreakerClosed || w.ActiveLeases != 0 {
			t.Fatalf("settled worker in bad state: %+v", w)
		}
	}
	if len(leases) != 0 {
		t.Fatalf("settled cluster reports %d live leases: %+v", len(leases), leases)
	}
}

// fetchTrace pulls a job's merged timeline from a front server.
func fetchTrace(t *testing.T, base, id string) serve.JobTrace {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	jt, err := pnclient.New(base, nil, fastRetry).Trace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return jt
}

// timelineHas reports whether any span event in jt carries the given name.
func timelineHas(jt serve.JobTrace, name string) bool {
	for _, ev := range jt.Spans {
		if ev.Type == "span" && ev.Name == name {
			return true
		}
	}
	return false
}

// TestChaosClusterFlakyTransport makes every coordinator->worker HTTP
// request fail with 20% probability (pnclient.http): submissions, renewals,
// status fetches. The client's retry/backoff plus the lease machinery must
// absorb all of it.
func TestChaosClusterFlakyTransport(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	defer faultinject.Enable(faultinject.Plan{
		faultinject.PnclientHTTP: {Mode: faultinject.ModeError, Prob: 0.2, Seed: 7},
	})()

	f := startFabric(t, 2, nil)
	const n = 8
	st := submitAndWait(t, f.frontTS.URL, serve.SweepRequest{Points: hopfPoints(n, 400)})
	assertAllOK(t, f.frontTS.URL, st, n)

	if stats := faultinject.Stats()[faultinject.PnclientHTTP]; stats.Fired == 0 {
		t.Fatal("transport fault never fired; the test exercised nothing")
	}
	if got := reg.Snapshot().Counter("pn_core_characterisations_total", "ok"); got != n {
		t.Fatalf("characterisations = %d, want exactly %d", got, n)
	}
}
