package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sweep"
)

// estimateSpans counts the sweep.estimate spans in a job's trace.
func estimateSpans(t *testing.T, base, id string) int {
	t.Helper()
	n := 0
	for _, ev := range getTrace(t, base, id).Spans {
		if ev.Type == "span" && ev.Name == "sweep.estimate" {
			n++
		}
	}
	return n
}

// TestServeEstimatesOnlyOnMiss: fhn has no closed-form period, so the point
// that computes it first estimates its period from a transient, under one
// sweep.estimate span. A memory-tier hit and a disk-tier hit never estimate,
// and serve the computed point's c and f0 bit for bit.
func TestServeEstimatesOnlyOnMiss(t *testing.T) {
	dir := t.TempDir()
	spec := PointSpec{Model: "fhn", Params: map[string]float64{"eps": 0.09}}
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
	run := func(t *testing.T, base, how string, cached bool, estimates int) PointSummary {
		t.Helper()
		_, st := postJSON(t, base+"/v1/characterise", CharacteriseRequest{PointSpec: spec})
		done := waitState(t, base, st.ID, terminal)
		if done.State != StateDone || len(done.Results) != 1 || !done.Results[0].OK || done.Results[0].Cached != cached {
			t.Fatalf("%s: job %+v, want done with cached=%v", how, done, cached)
		}
		if n := estimateSpans(t, base, st.ID); n != estimates {
			t.Fatalf("%s: %d sweep.estimate spans, want %d", how, n, estimates)
		}
		return done.Results[0]
	}

	first := serveWith(t)
	miss := run(t, first, "computed", false, 1)
	mem := run(t, first, "memory hit", true, 0)
	disk := run(t, serveWith(t), "disk hit", true, 0)
	for how, hit := range map[string]PointSummary{"memory hit": mem, "disk hit": disk} {
		if math.Float64bits(hit.C) != math.Float64bits(miss.C) || math.Float64bits(hit.F0) != math.Float64bits(miss.F0) {
			t.Fatalf("%s: c=%v f0=%v, computed c=%v f0=%v", how, hit.C, hit.F0, miss.C, miss.F0)
		}
	}
}

// TestServeFailedEstimateFailsOnlyItsPoint: an fhn design with |a| > 1 has a
// stable equilibrium and no cycle, so its period estimate fails. That point
// fails with no attempts and an error naming it and the estimation, the
// other point of the sweep completes, and nothing is cached: resubmitting
// the sweep estimates the failing point again.
func TestServeFailedEstimateFailsOnlyItsPoint(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Cache: store})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := SweepRequest{Points: []PointSpec{{Model: "fhn", Params: map[string]float64{"a": 2}}, hopfSpec("ok", 3)}}
	for i, cached := range []int{0, 1} {
		_, st := postJSON(t, ts.URL+"/v1/sweep", req)
		done := waitState(t, ts.URL, st.ID, terminal)
		if done.State != StateDone || done.FailedPoints != 1 || done.CachedPoints != cached || len(done.Results) != 2 {
			t.Fatalf("submission %d: job %+v, want done with 1 failed and %d cached point", i+1, done, cached)
		}
		bad, good := done.Results[0], done.Results[1]
		if bad.OK || bad.Cached || bad.Attempts != 0 || bad.Error == nil ||
			!strings.Contains(bad.Error.Msg, `"fhn"`) || !strings.Contains(bad.Error.Msg, "period estimation") {
			t.Fatalf("submission %d: failing point %+v (error %+v)", i+1, bad, bad.Error)
		}
		if !good.OK {
			t.Fatalf("submission %d: the other point failed: %+v", i+1, good)
		}
		if n := estimateSpans(t, ts.URL, st.ID); n != 1 {
			t.Fatalf("submission %d: %d sweep.estimate spans, want 1", i+1, n)
		}
	}
}

// TestSpillRecordIsIndexAndMarshalJSON: the spill writes a record from its
// parts, and the record is the result kind byte and the 4-byte point index
// followed by exactly MarshalJSON's bytes, for a computed point and for a
// memory-tier hit that is never decoded.
func TestSpillRecordIsIndexAndMarshalJSON(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := hopfSpec("spilled", 4).Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	rf := openResults(t, &journal{dir: t.TempDir()}, "j1", 4)
	defer rf.log.close()
	for i, how := range []string{"computed", "memory hit"} {
		var got sweep.PointResult
		sweep.Run([]sweep.Point{pt}, &sweep.Config{Cache: store, DiscardResults: true, OnPoint: func(r sweep.PointResult) { got = r }})
		if !got.OK() || got.Cached != (i == 1) || (i == 1) != (got.Result == nil) {
			t.Fatalf("%s: ok=%v cached=%v decoded=%v", how, got.OK(), got.Cached, got.Result != nil)
		}
		got.Index = i + 2
		if err := rf.appendResult(&got); err != nil {
			t.Fatal(err)
		}
		rec, err := rf.log.f.ReadAt(rf.offsets[got.Index])
		if err != nil {
			t.Fatal(err)
		}
		raw, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want := binary.BigEndian.AppendUint32([]byte{kindResult}, uint32(got.Index))
		if want = append(want, raw...); !bytes.Equal(rec, want) {
			t.Fatalf("%s: spilled record of %d bytes differs from the index and MarshalJSON (%d bytes)", how, len(rec), len(want))
		}
	}
}
