package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// postJSONAs is postJSON with a tenant header.
func postJSONAs(t *testing.T, url, tenant string, v any) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, st
}

// fakeClock injects a deterministic clock into the admission table.
type fakeClock struct {
	mu  sync.Mutex
	cur time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.cur = c.cur.Add(d)
	c.mu.Unlock()
}

// TestTenantRateQuota drives the token bucket over its boundaries with an
// injected clock: the burst is honoured exactly, the 429 carries the
// bucket-deficit Retry-After, sleeping that long re-admits, and another
// tenant's bucket is untouched throughout.
func TestTenantRateQuota(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	s := New(Config{
		Workers:        2,
		TenantDefaults: TenantConfig{SubmitRate: 1, SubmitBurst: 2},
	})
	defer s.Shutdown(context.Background())
	clk := &fakeClock{cur: time.Unix(1_700_000_000, 0)}
	s.tenants.now = clk.now
	ts := httptest.NewServer(s)
	defer ts.Close()

	submit := func(tenant, name string) (*http.Response, JobStatus) {
		return postJSONAs(t, ts.URL+"/v1/characterise", tenant, CharacteriseRequest{PointSpec: hopfSpec(name, 7e3)})
	}

	// Burst of 2 lands back-to-back; the third is over rate.
	var ids []string
	for i := 0; i < 2; i++ {
		resp, st := submit("alpha", fmt.Sprintf("rate%d", i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: %d, want 202", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	resp, _ := submit("alpha", "rate2")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (whole empty bucket at 1/s)", ra)
	}

	// Another tenant is not collateral damage.
	if resp, st := submit("beta", "rate0"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant during alpha's 429s: %d, want 202", resp.StatusCode)
	} else {
		ids = append(ids, st.ID)
	}

	// Sleeping the advertised Retry-After is sufficient.
	clk.advance(time.Second)
	resp, st := submit("alpha", "rate3")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after Retry-After elapsed: %d, want 202", resp.StatusCode)
	}
	ids = append(ids, st.ID)

	// Refill never overshoots the burst: a long idle stretch buys exactly
	// SubmitBurst submissions, not one per idle second.
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		resp, st := submit("alpha", fmt.Sprintf("rate%d", 4+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("post-idle submit %d: %d, want 202", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	if resp, _ := submit("alpha", "rate6"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst overshoot after idle: %d, want 429 (bucket must cap at burst)", resp.StatusCode)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("pn_serve_rejected_total", "tenant_rate"); got != 2 {
		t.Fatalf("rejected{tenant_rate} = %d, want 2", got)
	}
	if got := snap.Counter("pn_serve_tenant_rejected_total", "alpha"); got != 2 {
		t.Fatalf("tenant_rejected{alpha} = %d, want 2", got)
	}
	if got := snap.Counter("pn_serve_tenant_rejected_total", "beta"); got != 0 {
		t.Fatalf("tenant_rejected{beta} = %d, want 0", got)
	}
	for _, id := range ids {
		waitState(t, ts.URL, id, terminal)
	}
}

// TestTenantInFlightCap: a tenant at its in-flight ceiling gets 429s until one
// of its jobs settles, and an invalid tenant name never reaches admission.
func TestTenantInFlightCap(t *testing.T) {
	s := New(Config{
		Workers: 1,
		Tenants: map[string]TenantConfig{"capped": {MaxInFlight: 1}},
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, st := postJSONAs(t, ts.URL+"/v1/sweep", "capped", slowSweep(4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ = postJSONAs(t, ts.URL+"/v1/sweep", "capped", slowSweep(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over in-flight cap: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("in-flight 429 without Retry-After")
	}

	// The cap is per tenant, not global.
	if resp, st2 := postJSONAs(t, ts.URL+"/v1/characterise", "roomy", CharacteriseRequest{PointSpec: hopfSpec("cap0", 8e3)}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("uncapped tenant: %d, want 202", resp.StatusCode)
	} else {
		defer waitState(t, ts.URL, st2.ID, terminal)
	}

	if waitState(t, ts.URL, st.ID, terminal).State != StateDone {
		t.Fatal("capped tenant's job failed")
	}
	resp, st3 := postJSONAs(t, ts.URL+"/v1/sweep", "capped", slowSweep(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after slot freed: %d, want 202", resp.StatusCode)
	}
	waitState(t, ts.URL, st3.ID, terminal)

	// A hostile tenant name is a 400, before any quota state is minted.
	resp, _ = postJSONAs(t, ts.URL+"/v1/characterise", "../escape", CharacteriseRequest{PointSpec: hopfSpec("cap1", 8e3)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile tenant name: %d, want 400", resp.StatusCode)
	}
}

// TestTenantFairness is the starvation test the scheduler exists for: with a
// single slot already deep in tenant A's batch sweep, tenant B's interactive
// characterise must be granted as soon as the point in flight returns and
// finish while A's sweep is still running — bounded wait, not
// FIFO-behind-the-backlog. Every point of the sweep is its own grant.
func TestTenantFairness(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Tenant A occupies the single slot with a slow batch sweep.
	const n = 5
	respA, batch := postJSONAs(t, ts.URL+"/v1/sweep", "batch-tenant", slowSweep(n))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d", respA.StatusCode)
	}
	waitState(t, ts.URL, batch.ID, func(s JobStatus) bool { return s.State == StateRunning })

	// Tenant B asks one interactive question.
	respB, live := postJSONAs(t, ts.URL+"/v1/characterise", "live-tenant", CharacteriseRequest{PointSpec: hopfSpec("urgent", 9e3)})
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit: %d", respB.StatusCode)
	}
	liveDone := waitState(t, ts.URL, live.ID, terminal)
	if liveDone.State != StateDone {
		t.Fatalf("interactive job: %+v", liveDone)
	}

	// The moment B's answer arrived, A's sweep must still be in flight: B did
	// not wait out the batch backlog.
	batchNow := getStatus(t, ts.URL, batch.ID, false)
	if terminal(batchNow) {
		t.Fatalf("batch sweep already %q when the interactive job finished — no preemption happened", batchNow.State)
	}
	if batchNow.DonePoints >= n {
		t.Fatalf("batch at %d/%d points — interactive job waited out the whole sweep", batchNow.DonePoints, n)
	}

	// And the preempted sweep still finishes intact.
	batchDone := waitState(t, ts.URL, batch.ID, terminal)
	if batchDone.State != StateDone || batchDone.DonePoints != n {
		t.Fatalf("batch sweep after preemption: %+v", batchDone)
	}

	// Both tenants took grants: one per point granted.
	snap := reg.Snapshot()
	if got := snap.Counter("pn_serve_tenant_grants_total", "live-tenant"); got != 1 {
		t.Fatalf("grants{live-tenant} = %d, want 1", got)
	}
	if got := snap.Counter("pn_serve_tenant_grants_total", "batch-tenant"); got != n {
		t.Fatalf("grants{batch-tenant} = %d, want %d (one per point)", got, n)
	}
}

// TestSchedLanesAndWeights unit-tests the scheduler's grant order: strict
// interactive-lane priority, a multi-unit job holding the head of its FIFO,
// weighted interleave within a lane with the deterministic name tie-break,
// withdrawal, the intake bound, and closure.
func TestSchedLanesAndWeights(t *testing.T) {
	mk := func(kind, tenant string, units int) *job {
		return &job{id: kind + "-" + tenant, kind: kind, tenant: tenant, units: units}
	}
	grant := func(s *sched) (*job, int) {
		t.Helper()
		j, unit := s.next()
		if j == nil {
			t.Fatal("next returned no job")
		}
		return j, unit
	}

	// Lane priority: a batch backlog never delays an interactive grant.
	s := newSched(0)
	a1, a2 := mk("sweep", "a", 2), mk("sweep", "a", 1)
	b1 := mk("characterise", "b", 1)
	for _, j := range []*job{a1, a2} {
		if err := s.submit(j, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.submit(b1, 1); err != nil {
		t.Fatal(err)
	}
	if got, _ := grant(s); got != b1 {
		t.Fatalf("first grant %v, want the interactive job", got.id)
	}
	if got, unit := grant(s); got != a1 || unit != 0 {
		t.Fatalf("second grant %v unit %d, want a1 unit 0", got.id, unit)
	}
	// A started job does not count against intake.
	if s.depth() != 1 {
		t.Fatalf("depth = %d, want 1 (only the ungranted job)", s.depth())
	}
	// A multi-unit job stays at the head of its tenant's FIFO until its last
	// unit is granted.
	if got, unit := grant(s); got != a1 || unit != 1 {
		t.Fatalf("third grant %v unit %d, want a1 unit 1 (head of FIFO)", got.id, unit)
	}
	if s.depth() != 1 {
		t.Fatalf("depth after a1's last unit = %d, want 1", s.depth())
	}
	if got, unit := grant(s); got != a2 || unit != 0 {
		t.Fatalf("fourth grant %v unit %d, want a2 unit 0", got.id, unit)
	}
	if s.depth() != 0 {
		t.Fatalf("depth after a2 = %d, want 0", s.depth())
	}

	// Weighted interleave, charged per unit: weight 2 takes two units per
	// weight-1 unit, with equal virtual times broken by tenant name.
	s = newSched(0)
	w, v := mk("sweep", "w", 4), mk("sweep", "v", 4)
	if err := s.submit(w, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.submit(v, 1); err != nil {
		t.Fatal(err)
	}
	want := []*job{v, w, w, v, w, w, v, v}
	for i, wj := range want {
		if got, _ := grant(s); got != wj {
			t.Fatalf("grant %d went to %s, want %s", i, got.tenant, wj.tenant)
		}
	}

	// Withdrawal: a started job's ungranted units leave the lane, and a
	// second withdrawal finds nothing left.
	s = newSched(0)
	x, y := mk("sweep", "x", 4), mk("sweep", "x", 1)
	for _, j := range []*job{x, y} {
		if err := s.submit(j, 1); err != nil {
			t.Fatal(err)
		}
	}
	grant(s)
	if from := s.withdraw(x); from != 1 {
		t.Fatalf("withdraw = %d, want 1 (units 1..3 ungranted)", from)
	}
	if from := s.withdraw(x); from != 4 {
		t.Fatalf("second withdraw = %d, want 4 (nothing left)", from)
	}
	if got, _ := grant(s); got != y {
		t.Fatalf("grant after withdrawal went to %s, want the next job", got.id)
	}

	// Intake bound and closure.
	s = newSched(2)
	if err := s.submit(mk("sweep", "x", 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.submit(mk("sweep", "x", 2), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.submit(mk("sweep", "x", 1), 1); err != errSchedFull {
		t.Fatalf("submit over bound: %v, want errSchedFull", err)
	}
	// Recovered jobs bypass the bound but not closure.
	if err := s.resume(mk("sweep", "y", 1), 1); err != nil {
		t.Fatalf("resume over bound: %v, want nil", err)
	}
	s.close()
	if err := s.submit(mk("sweep", "x", 1), 1); err != errSchedClosed {
		t.Fatalf("submit after close: %v, want errSchedClosed", err)
	}
	if err := s.resume(mk("sweep", "y", 1), 1); err != errSchedClosed {
		t.Fatalf("resume after close: %v, want errSchedClosed", err)
	}
	for i := 0; i < 4; i++ {
		grant(s) // closed: every queued unit still drains
	}
	if got, _ := s.next(); got != nil {
		t.Fatalf("next on closed+empty = %v, want nil", got.id)
	}
}

// TestSchedWakesSlotPerUnit: two slots block in next, then one 2-unit job is
// submitted. Both slots must wake, one with each unit — the grant that
// leaves a unit behind has to wake another slot, or a job's points would
// only ever run on the slot its submit woke.
func TestSchedWakesSlotPerUnit(t *testing.T) {
	s := newSched(0)
	type grantOf struct {
		j    *job
		unit int
	}
	got := make(chan grantOf, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, unit := s.next()
			got <- grantOf{j, unit}
		}()
	}
	defer func() {
		s.close() // releases a slot a broken scheduler left blocked
		wg.Wait()
	}()
	for deadline := time.Now().Add(5 * time.Second); parkedInNext() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("slots never blocked in next")
		}
	}

	j := &job{id: "two", kind: "sweep", tenant: "t", units: 2}
	if err := s.submit(j, 1); err != nil {
		t.Fatal(err)
	}
	units := map[int]bool{}
	for i := 0; i < 2; i++ {
		select {
		case g := <-got:
			if g.j != j {
				t.Fatalf("slot %d got job %v, want the submitted job", i, g.j)
			}
			units[g.unit] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 2 blocked slots woke for a 2-unit job", i)
		}
	}
	if !units[0] || !units[1] {
		t.Fatalf("units granted %v, want 0 and 1", units)
	}
}

// parkedInNext counts goroutines blocked in sched.next's cond.Wait, read off
// the goroutine dump: the one observable sign that a slot is waiting for a
// signal rather than about to scan the lanes.
func parkedInNext() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[sync.Cond.Wait") && strings.Contains(g, "(*sched).next") {
			n++
		}
	}
	return n
}
