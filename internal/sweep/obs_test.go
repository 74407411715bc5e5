package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/osc"
	"repro/internal/shooting"
)

// noisePanic panics in Noise — which the pipeline only evaluates during the
// c-quadrature, after shooting and Floquet have both succeeded. The panic
// therefore lands as late as possible, with the maximum amount of completed
// work to preserve.
type noisePanic struct{ osc.Hopf }

func (m *noisePanic) Noise(x, dst []float64) {
	panic("noise table evaluated out of range")
}

// A panic in the last pipeline stage must not cost the point the diagnostics
// of the stages that completed: the attempt's Trace carries the full shooting
// and Floquet records, and the converged PSS survives into the PointResult.
func TestPanicAttemptKeepsCompletedStageTraces(t *testing.T) {
	pts := []Point{{
		Name:   "late-panic",
		System: &noisePanic{osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}},
		X0:     []float64{1, 0.1},
		TGuess: 1.05,
	}}
	r := Run(pts, nil)[0]
	if r.OK() {
		t.Fatal("panicking model reported success")
	}
	if !errors.Is(r.Err, ErrModelPanic) {
		t.Fatalf("want ErrModelPanic, got %v", r.Err)
	}
	if len(r.Attempts) != 1 {
		t.Fatalf("panic must not be retried: %d attempts", len(r.Attempts))
	}
	tr := r.Attempts[0].Trace
	if tr.Shooting.Iters == 0 || tr.Shooting.Wall <= 0 {
		t.Fatalf("completed shooting trace lost on panic: %+v", tr.Shooting)
	}
	if tr.Shooting.Residual <= 0 || tr.Shooting.Residual > 1e-9 {
		t.Fatalf("converged residual not recorded: %g", tr.Shooting.Residual)
	}
	if tr.Floquet.Steps <= 0 || tr.Floquet.AdjointWall <= 0 {
		t.Fatalf("completed floquet trace lost on panic: %+v", tr.Floquet)
	}
	if !r.Degraded() {
		t.Fatalf("converged PSS lost on quadrature panic: PSS=%v err=%v", r.PSS, r.Err)
	}
	if math.Abs(r.PSS.T-1) > 1e-6 {
		t.Fatalf("preserved PSS period %g, want ≈1", r.PSS.T)
	}
}

// An attempt timeout that trips mid-shooting must still yield a trace showing
// how far the attempt got: the cooperative model returns with a typed budget
// error and the shooting stage's partial wall time recorded.
func TestAttemptTimeoutKeepsPartialTrace(t *testing.T) {
	pts := []Point{{
		Name:   "slow",
		System: &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02},
		X0:     []float64{1, 0.1},
		TGuess: 1.05,
		// Heavy enough that the attempt far outlasts the timeout: the
		// transient may stop after a few periods once its returns settle,
		// but each Newton iteration integrates 500,000 RK4 steps.
		Opts: &core.Options{Shooting: &shooting.Options{StepsPerPeriod: 500000, Transient: 200}},
	}}
	r := Run(pts, &Config{AttemptTimeout: 25 * time.Millisecond})[0]
	if r.OK() {
		t.Fatal("point beat a 25ms attempt timeout")
	}
	if !errors.Is(r.Err, budget.ErrBudgetExceeded) {
		t.Fatalf("want wrapped ErrBudgetExceeded, got %v", r.Err)
	}
	if len(r.Attempts) != 1 {
		t.Fatalf("budget cut-off must not be retried: %d attempts", len(r.Attempts))
	}
	att := r.Attempts[0]
	if att.Wall <= 0 {
		t.Fatal("attempt wall time not recorded on timeout")
	}
	if att.Trace.Shooting.Wall <= 0 {
		t.Fatalf("partial shooting trace lost on timeout: %+v", att.Trace.Shooting)
	}
}

// The engine's own metrics must reflect a finished batch: per-outcome point
// counts, per-rung attempt counts, a drained queue-depth gauge, and one
// latency observation per point.
func TestSweepMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	pts := hopfGrid(3)
	results := Run(pts, &Config{Workers: 2})
	for i, r := range results {
		if !r.OK() {
			t.Fatalf("point %d failed: %v", i, r.Err)
		}
	}

	s := reg.Snapshot()
	if got := s.Counter("pn_sweep_points_total", "ok"); got != 3 {
		t.Fatalf("ok points = %d, want 3", got)
	}
	if got := s.Counter("pn_sweep_attempts_total", "base"); got != 3 {
		t.Fatalf("base attempts = %d, want 3", got)
	}
	for _, g := range s.Gauges {
		if g.Name == "pn_sweep_queue_depth" && g.Value != 0 {
			t.Fatalf("queue depth after the batch = %g, want 0", g.Value)
		}
	}
	for _, h := range s.Histograms {
		if h.Name == "pn_sweep_point_seconds" && h.Count != 3 {
			t.Fatalf("point latency observations = %d, want 3", h.Count)
		}
	}
}

// decodeSpans parses a JSONL stream back into events.
func decodeSpans(t *testing.T, r io.Reader) []obs.Event {
	t.Helper()
	dec := json.NewDecoder(r)
	var evs []obs.Event
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return evs
		} else if err != nil {
			t.Fatalf("decode span stream: %v", err)
		}
		evs = append(evs, ev)
	}
}

// A real sweep traced through the JSONL emitter must round-trip into a
// well-formed tree: sweep.Run → sweep.point → sweep.attempt →
// core.Characterise → {shooting.Find, floquet.Analyze, quadrature}, with every
// child contained in its parent's time interval.
func TestSweepSpanTreeRoundTripsThroughJSONL(t *testing.T) {
	var buf bytes.Buffer
	obs.SetEmitter(obs.NewJSONLEmitter(&buf))
	defer obs.SetEmitter(nil)

	pts := hopfGrid(2)
	results := Run(pts, &Config{Workers: 2})
	obs.SetEmitter(nil)
	for i, r := range results {
		if !r.OK() {
			t.Fatalf("point %d failed: %v", i, r.Err)
		}
	}

	evs := decodeSpans(t, &buf)
	byID := make(map[uint64]obs.Event, len(evs))
	byName := make(map[string][]obs.Event)
	for _, ev := range evs {
		if ev.Type != "span" {
			t.Fatalf("unexpected event type %q", ev.Type)
		}
		if ev.DurNS < 0 {
			t.Fatalf("negative duration on %q: %d", ev.Name, ev.DurNS)
		}
		byID[ev.Span] = ev
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	if n := len(byName["sweep.Run"]); n != 1 {
		t.Fatalf("%d sweep.Run roots, want 1", n)
	}
	if root := byName["sweep.Run"][0]; root.Parent != 0 {
		t.Fatalf("sweep.Run has parent %d, want root", root.Parent)
	}
	checks := []struct {
		name   string
		parent string
		n      int
	}{
		{"sweep.point", "sweep.Run", 2},
		{"sweep.attempt", "sweep.point", 2},
		{"core.Characterise", "sweep.attempt", 2},
		{"shooting.Find", "core.Characterise", 2},
		{"floquet.Analyze", "core.Characterise", 2},
		{"quadrature", "core.Characterise", 2},
	}
	for _, c := range checks {
		got := byName[c.name]
		if len(got) != c.n {
			t.Fatalf("%d %q spans, want %d", len(got), c.name, c.n)
		}
		for _, ev := range got {
			p, ok := byID[ev.Parent]
			if !ok {
				t.Fatalf("%q span %d: parent %d never emitted", c.name, ev.Span, ev.Parent)
			}
			if p.Name != c.parent {
				t.Fatalf("%q span parented under %q, want %q", c.name, p.Name, c.parent)
			}
			// Containment: the child's interval sits inside the parent's.
			if ev.StartNS < p.StartNS {
				t.Fatalf("%q starts %dns before its parent", c.name, p.StartNS-ev.StartNS)
			}
			if end, pend := ev.StartNS+ev.DurNS, p.StartNS+p.DurNS; end > pend {
				t.Fatalf("%q ends %dns after its parent", c.name, end-pend)
			}
		}
	}
	// Attempt spans carry their rung; quadrature its point count.
	for _, ev := range byName["sweep.attempt"] {
		if ev.Attrs["rung"] != "base" {
			t.Fatalf("attempt span attrs = %v, want rung=base", ev.Attrs)
		}
	}
	for _, ev := range byName["quadrature"] {
		if n, ok := ev.Attrs["points"].(float64); !ok || n <= 0 {
			t.Fatalf("quadrature span attrs = %v, want a positive points count", ev.Attrs)
		}
	}
}
