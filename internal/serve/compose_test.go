package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pll"
	"repro/internal/sweep"
)

// composeReq builds a one-stage request locking a characterised hopf "VCO" to
// an inline crystal-like reference: the reference is quiet enough that far
// outside the loop bandwidth the composite is the bare VCO Lorentzian.
func composeReq(spec PointSpec, bwHz float64) ComposeRequest {
	return ComposeRequest{
		Stages: []ComposeStage{{
			Ref:             &ComposeLeg{Leg: pll.Leg{Name: "xo", F0Hz: 0.1, C: 1e-24}},
			VCO:             ComposeLeg{Spec: &spec},
			LoopBandwidthHz: bwHz,
		}},
		Grid:         pll.Grid{StartHz: 1e-3, StopHz: 100},
		JitterBandHz: [2]float64{0.01, 10},
	}
}

// lorentzDBc is the paper's stationary spectrum (Eq. 27) in dBc/Hz.
func lorentzDBc(f0, c, f float64) float64 {
	f02c := f0 * f0 * c
	return 10 * math.Log10(f02c/(math.Pi*math.Pi*f02c*f02c+f*f))
}

// TestComposeFanInE2E is the acceptance path for the composition layer: 100
// compose jobs sharing 3 distinct oscillator legs cost exactly 3
// characterisations (cache + singleflight fan-in), and each composite matches
// the standalone VCO Lorentzian within 0.1 dB far outside the loop bandwidth.
func TestComposeFanInE2E(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 4, Queue: 256, Cache: store})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	legs := []PointSpec{hopfSpec("leg0", 3), hopfSpec("leg1", 4), hopfSpec("leg2", 5)}
	const jobs = 100
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		// Distinct loop bandwidths make every request body distinct while the
		// oscillator legs rotate over the same three specs.
		req := composeReq(legs[i%3], 0.02+float64(i)*1e-5)
		resp, st := postJSON(t, ts.URL+"/v1/compose", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("compose %d: status %d", i, resp.StatusCode)
		}
		if st.Kind != "compose" || st.Points != 1 {
			t.Fatalf("compose %d status: %+v", i, st)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		st := waitState(t, ts.URL, id, terminal)
		if st.State != StateDone || st.FailedPoints != 0 {
			t.Fatalf("job %s: %+v", id, st)
		}
		if st.Compose == nil || st.Compose.JitterSec <= 0 {
			t.Fatalf("job %s carried no compose summary: %+v", id, st.Compose)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counter("pn_core_characterisations_total", "ok"); got != 3 {
		t.Fatalf("%d characterisations for %d compose jobs over 3 legs, want exactly 3", got, jobs)
	}
	if got := snap.Counter("pn_serve_submitted_total", "compose"); got != jobs {
		t.Fatalf("pn_serve_submitted_total{compose} = %d, want %d", got, jobs)
	}
	if got := snap.Counter("pn_pll_compositions_total", "ok"); got != jobs {
		t.Fatalf("pn_pll_compositions_total{ok} = %d, want %d", got, jobs)
	}

	// The composite of job 0 (bw 0.02 Hz) converges to the bare VCO Lorentzian
	// built from the job's own characterised leg at offsets ≫ loop bandwidth.
	full := getStatus(t, ts.URL, ids[0], true)
	legRes := getResults(t, ts.URL, ids[0])
	if full.ComposeResult == nil || len(legRes) != 1 || legRes[0].Index != 0 || !legRes[0].OK() {
		t.Fatalf("full compose payload: result=%v legs=%d", full.ComposeResult != nil, len(legRes))
	}
	f0, c := legRes[0].Result.F0(), legRes[0].Result.C
	res := full.ComposeResult
	checked := 0
	for i, fm := range res.FHz {
		if fm < 2 { // 100× the loop bandwidth
			continue
		}
		want := lorentzDBc(f0, c, fm)
		if d := math.Abs(res.LdBc[i] - want); d > 0.1 {
			t.Fatalf("composite at %g Hz: %g dBc/Hz, standalone VCO %g (Δ %.3g dB > 0.1)", fm, res.LdBc[i], want, d)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no grid points far outside the loop bandwidth")
	}

	// The event stream carries exactly one compose event, before the terminal
	// state, matching the status summary.
	evs := readSSE(t, ts.URL, ids[0])
	composeEvents := 0
	for _, ev := range evs {
		if ev.Type == "compose" {
			composeEvents++
			if ev.Compose == nil || ev.Compose.JitterSec != full.Compose.JitterSec {
				t.Fatalf("compose event: %+v, status summary %+v", ev.Compose, full.Compose)
			}
		}
	}
	if composeEvents != 1 {
		t.Fatalf("%d compose events, want 1", composeEvents)
	}
	if last := evs[len(evs)-1]; last.Type != "state" || last.State != StateDone {
		t.Fatalf("stream did not end terminal: %+v", last)
	}

	// Idempotent resubmission replays the existing job instead of re-queueing.
	resp, st := postJSONKey(t, ts.URL+"/v1/compose", "compose-idem", composeReq(legs[0], 0.02))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed submit: status %d", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, terminal)
	resp2, st2 := postJSONKey(t, ts.URL+"/v1/compose", "compose-idem", composeReq(legs[0], 0.02))
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("Idempotent-Replay") != "true" || st2.ID != st.ID {
		t.Fatalf("idempotent replay: status %d, id %q (submitted %q)", resp2.StatusCode, st2.ID, st.ID)
	}
	// Same key, different body: rejected, not silently replayed.
	resp3, _ := postJSONKey(t, ts.URL+"/v1/compose", "compose-idem", composeReq(legs[1], 0.02))
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("idempotency mismatch: status %d, want 409", resp3.StatusCode)
	}
}

// TestComposeRejections covers submission-time validation: structural
// problems answer 400 before any characterisation work queues.
func TestComposeRejections(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(req ComposeRequest) *http.Response {
		resp, _ := postJSON(t, ts.URL+"/v1/compose", req)
		return resp
	}
	// A leg with both a spec and inline numbers is ambiguous.
	both := composeReq(hopfSpec("x", 3), 0.02)
	both.Stages[0].VCO.F0Hz = 1e9
	if resp := post(both); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spec+inline leg: status %d, want 400", resp.StatusCode)
	}
	// No stages at all.
	if resp := post(ComposeRequest{Grid: pll.Grid{StartHz: 1, StopHz: 10}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero stages: status %d, want 400", resp.StatusCode)
	}
	// Bad grid.
	bad := composeReq(hopfSpec("x", 3), 0.02)
	bad.Grid = pll.Grid{StartHz: 10, StopHz: 1}
	if resp := post(bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted grid: status %d, want 400", resp.StatusCode)
	}
	// Unknown model in a spec leg fails like any sweep submission.
	unknown := composeReq(PointSpec{Model: "no-such-model"}, 0.02)
	if resp := post(unknown); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model: status %d, want 400", resp.StatusCode)
	}
}

// TestChaosComposeLegPanicClassified fails a compose job's characterised leg
// with an injected model panic and checks the typed error classification
// survives the compose path and the JSON round trip: the job settles failed,
// and the decoded JobStatus error still matches sweep.ErrModelPanic through
// errors.Is (the sweep.RemoteError regression for compose jobs).
func TestChaosComposeLegPanicClassified(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	defer faultinject.Enable(faultinject.Plan{
		faultinject.OscEvalPanic: {Mode: faultinject.ModePanic},
	})()

	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, st := postJSON(t, ts.URL+"/v1/compose", composeReq(hopfSpec("boom", 3), 0.02))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	final := waitState(t, ts.URL, st.ID, terminal)
	if final.State != StateFailed {
		t.Fatalf("job state %q, want failed", final.State)
	}
	if final.Error == nil {
		t.Fatal("failed compose job carried no error")
	}
	if !errors.Is(final.Error, sweep.ErrModelPanic) {
		t.Fatalf("decoded error %+v does not match sweep.ErrModelPanic", final.Error)
	}
	if !strings.Contains(final.Error.Msg, `compose leg "boom"`) {
		t.Fatalf("error %q does not name the failed leg", final.Error.Msg)
	}
	if final.Compose != nil {
		t.Fatalf("failed job carried a compose summary: %+v", final.Compose)
	}
	// The terminal SSE event carries the same classification.
	evs := readSSE(t, ts.URL, st.ID)
	last := evs[len(evs)-1]
	if last.State != StateFailed || last.Error == nil || !errors.Is(last.Error, sweep.ErrModelPanic) {
		t.Fatalf("terminal event: %+v", last)
	}
	if got := reg.Snapshot().Counter("pn_pll_compositions_total", "ok"); got != 0 {
		t.Fatalf("composition ran despite a failed leg: %d", got)
	}
}

// TestModelsNoiseSources checks GET /v1/models reports each model's
// noise-source names — the labels a compose leg's "sources" selector accepts.
func TestModelsNoiseSources(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("no models listed")
	}
	var sawHopf bool
	for _, m := range models {
		if m.NumNoise < 1 || len(m.NoiseSources) != m.NumNoise {
			t.Fatalf("model %s: %d labels for num_noise %d", m.Name, len(m.NoiseSources), m.NumNoise)
		}
		if m.Name == "hopf" {
			sawHopf = true
			if want := []string{"x-equation", "y-equation"}; len(m.NoiseSources) != 2 ||
				m.NoiseSources[0] != want[0] || m.NoiseSources[1] != want[1] {
				t.Fatalf("hopf noise sources %v, want %v", m.NoiseSources, want)
			}
		}
	}
	if !sawHopf {
		t.Fatal("hopf not listed")
	}
}

// TestJournalComposeRecovery covers compose-job durability end to end: a
// finished compose job is queryable (with its summary) after a restart, a
// journal cut off mid-run resumes with its leg served from the cache — the
// pipeline is never re-invoked — and a pure-inline compose job with zero
// characterisation legs survives header replay.
func TestJournalComposeRecovery(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := hopfSpec("leg", 3)
	req := composeReq(spec, 0.02)

	// Phase 1: run one compose job to completion under a journal ("before the
	// crash"), warming the cache with its leg.
	s1 := New(Config{Workers: 1, Cache: store, JournalDir: dir})
	ts1 := httptest.NewServer(s1)
	_, st1 := postJSON(t, ts1.URL+"/v1/compose", req)
	done1 := waitState(t, ts1.URL, st1.ID, terminal)
	if done1.State != StateDone || done1.Compose == nil {
		t.Fatalf("phase-1 job: %+v", done1)
	}
	jitter := done1.Compose.JitterSec
	ts1.Close()
	s1.Shutdown(context.Background())

	// Phase 2: crash artifacts. j5 died mid-run with a spec leg; j6 is a
	// pure-inline chain — zero characterisation legs, numbers only — whose
	// header must survive replay despite carrying no specs.
	writeJournalFile(t, dir, "j5"+walExt, []jrecord{
		{V: 1, T: "accepted", ID: "j5", Kind: "compose", Specs: []PointSpec{spec}, Compose: &req},
		{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
		{V: 1, T: "event", Ev: &Event{Seq: 2, Type: "state", State: StateRunning}},
	})
	inline := ComposeRequest{
		Stages: []ComposeStage{{
			Ref:             &ComposeLeg{Leg: pll.Leg{F0Hz: 1e7, C: 1e-22}},
			VCO:             ComposeLeg{Leg: pll.Leg{F0Hz: 1e9, C: 1e-18}},
			LoopBandwidthHz: 1e5,
		}},
		Grid: pll.Grid{StartHz: 100, StopHz: 1e8},
	}
	writeJournalFile(t, dir, "j6"+walExt, []jrecord{
		{V: 1, T: "accepted", ID: "j6", Kind: "compose", Compose: &inline},
		{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
	})

	// Phase 3: restart over the same journal + cache; count pipeline work
	// from here only.
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	s2 := New(Config{Workers: 1, Cache: store, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)

	// The finished job came back queryable with its compose summary restored
	// from the journaled compose event.
	restored := getStatus(t, ts2.URL, st1.ID, false)
	if restored.State != StateDone || restored.Compose == nil || restored.Compose.JitterSec != jitter {
		t.Fatalf("restored terminal job: %+v (want jitter %g)", restored, jitter)
	}

	// The cut-off job resumed: leg from the cache, composition re-run.
	resumed := waitState(t, ts2.URL, "j5", terminal)
	if resumed.State != StateDone || resumed.CachedPoints != 1 || resumed.Compose == nil {
		t.Fatalf("resumed compose job: %+v", resumed)
	}
	if resumed.Compose.JitterSec != jitter {
		t.Fatalf("resumed jitter %g, phase-1 %g", resumed.Compose.JitterSec, jitter)
	}

	// The zero-spec inline job resumed too — the header replay accepted it.
	inlineDone := waitState(t, ts2.URL, "j6", terminal)
	if inlineDone.State != StateDone || inlineDone.Compose == nil || inlineDone.Compose.CarrierHz != 1e9 {
		t.Fatalf("inline compose job: %+v", inlineDone)
	}

	if got := reg.Snapshot().Counter("pn_core_characterisations_total", "ok"); got != 0 {
		t.Fatalf("recovery re-ran the pipeline %d times, want 0", got)
	}

	// Both resumed journals now end in their terminal events.
	done := map[string]bool{}
	for _, rj := range replayDir(t, dir) {
		done[rj.hdr.ID] = rj.terminal && rj.state == StateDone
	}
	if !done["j5"] || !done["j6"] {
		t.Fatalf("resumed journals do not replay as done: %v", done)
	}
}
