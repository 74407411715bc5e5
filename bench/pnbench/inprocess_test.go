package main

import (
	"context"
	"math"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pll"
	"repro/internal/serve"
)

// inProcess serves a fresh in-process server behind httptest and returns the
// benchmark's client for it, with a request the server answers in about a
// millisecond — a composition whose legs are inline numbers, so no
// characterisation runs — which keeps machine noise out of the stage timings.
func inProcess(t *testing.T) (*client, request) {
	t.Helper()
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 2, Cache: store})
	ts := httptest.NewServer(srv)
	c := newClient(ts.URL)
	t.Cleanup(func() {
		c.close()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	ref := serve.ComposeLeg{Leg: pll.Leg{Name: "xo", F0Hz: 1e7, C: 1e-24}}
	comp := &serve.ComposeRequest{Stages: []serve.ComposeStage{{
		Ref: &ref, VCO: serve.ComposeLeg{Leg: pll.Leg{Name: "vco", F0Hz: 1e9, C: 1e-20}}, LoopBandwidthHz: 1e5,
	}}}
	comp.Grid.StartHz, comp.Grid.StopHz = 1e2, 1e8
	return c, request{Compose: comp}
}

// In an open loop a stall charges the requests due behind it: with both
// connections held by two stalled submits, a request due 20 ms into the
// window is sent only when one is released, and its latency counts from the
// due time, not from the send.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	c, req := inProcess(t)
	const stall = 300 * time.Millisecond
	defer faultinject.Enable(faultinject.Plan{
		faultinject.ServeHandlerLatency: {Mode: faultinject.ModeDelay, Delay: stall, Count: 2},
	})()
	reqs := make([]request, 3)
	for i := range reqs {
		reqs[i] = req
		reqs[i].Index, reqs[i].Due = i, time.Duration(i)*10*time.Millisecond
	}
	var k collector
	start := time.Now()
	c.openLoop(context.Background(), reqs, start, &k)
	outs := k.all()
	sort.Slice(outs, func(i, j int) bool { return outs[i].req.Index < outs[j].req.Index })
	if len(outs) != 3 {
		t.Fatalf("%d outcomes, want 3", len(outs))
	}
	last := outs[2]
	if !last.ok() {
		t.Fatalf("request 2: %v", last.err)
	}
	if !last.due.Equal(start.Add(20 * time.Millisecond)) {
		t.Errorf("request 2 due at %v after the start, want 20ms", last.due.Sub(start))
	}
	if held := last.sent.Sub(last.due); held < stall-50*time.Millisecond {
		t.Errorf("request 2 was sent %v after it was due, want about %v (the stall)", held, stall)
	}
	if last.latency() < last.sent.Sub(last.due)+last.terminal.Sub(last.sent) {
		t.Errorf("latency %v does not count from the due time", last.latency())
	}
}

// The traced run's attribution: a 100 ms delay injected into the submit
// handler lands in the submit stage and no other, and the stages tile each
// request span. Delayed and undelayed requests alternate, so a machine that
// slows down meanwhile slows both groups alike.
func TestInjectedHandlerDelayLandsInSubmit(t *testing.T) {
	c, req := inProcess(t)
	recs := [2]*recorder{{}, {}} // undelayed, delayed
	for i := 0; i < 24; i++ {
		delayed := i % 2
		if delayed == 1 {
			// Count 1: only the next handler hit, the submit, sleeps; the
			// events stream and the status GET that follow do not.
			faultinject.Enable(faultinject.Plan{
				faultinject.ServeHandlerLatency: {Mode: faultinject.ModeDelay, Delay: 100 * time.Millisecond, Count: 1},
			})
		}
		o := c.do(context.Background(), &req, time.Now())
		faultinject.Disable()
		if !o.ok() {
			t.Fatalf("request %d: %v", i, o.err)
		}
		recs[delayed].requestTree(o)
	}
	var med [2]map[string]float64
	for k, rec := range recs {
		checkTiling(t, rec.spans)
		med[k] = map[string]float64{}
		for name, xs := range stageTimes(rec.spans, func(obs.Event) bool { return true }) {
			med[k][name] = median(xs)
		}
	}
	base, slow := med[0], med[1]
	if d := slow["submit"] - base["submit"]; d < 80 || d > 120 {
		t.Errorf("submit moved by %.1f ms, want 100 ms ± 20%% (base %v, delayed %v)", d, base, slow)
	}
	for _, s := range []string{"wait", "queue", "run", "status"} {
		if d := slow[s] - base[s]; math.Abs(d) > 20 {
			t.Errorf("stage %s moved by %.1f ms; the delay belongs to submit alone", s, d)
		}
	}
}

// checkTiling asserts that each request span's children add up to it within
// 5%.
func checkTiling(t *testing.T, spans []obs.Event) {
	t.Helper()
	sum := map[uint64]int64{}
	for _, s := range spans {
		sum[s.Parent] += s.DurNS
	}
	for _, s := range spans {
		if s.Name != "request" {
			continue
		}
		if got := float64(sum[s.Span]); math.Abs(got-float64(s.DurNS)) > 0.05*float64(s.DurNS) {
			t.Errorf("request %s: stages add to %.2f ms, the span is %.2f ms", s.Trace, got/1e6, float64(s.DurNS)/1e6)
		}
	}
}
