package sweep

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/osc"
	"repro/internal/shooting"
)

// keyedHopfPoint builds one cacheable Hopf point; identical omega ⇒
// identical key.
func keyedHopfPoint(name string, omega float64) Point {
	h := &osc.Hopf{Lambda: 1, Omega: omega, Sigma: 0.02}
	x0 := []float64{1, 0.1}
	tg := h.Period() * 1.05
	var opts *core.Options
	return Point{
		Name:   name,
		System: h,
		X0:     x0,
		TGuess: tg,
		Opts:   opts,
		Key: cache.CharacterisationKey("hopf",
			map[string]float64{"lambda": 1, "omega": omega, "sigma": 0.02},
			x0, tg, opts.FingerprintFields()),
	}
}

func TestCacheSecondBatchIsACacheSweep(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{keyedHopfPoint("a", 2), keyedHopfPoint("b", 3), keyedHopfPoint("c", 4)}
	cfg := &Config{Workers: 2, Cache: store}

	first := Run(pts, cfg)
	for i, r := range first {
		if !r.OK() || r.Cached {
			t.Fatalf("first run point %d: ok=%v cached=%v err=%v", i, r.OK(), r.Cached, r.Err)
		}
	}
	chars := reg.Snapshot().Counter("pn_core_characterisations_total", "ok")
	if chars != 3 {
		t.Fatalf("first run characterisations = %d, want 3", chars)
	}

	second := Run(pts, cfg)
	for i, r := range second {
		if !r.OK() || !r.Cached {
			t.Fatalf("second run point %d: ok=%v cached=%v err=%v", i, r.OK(), r.Cached, r.Err)
		}
		if len(r.Attempts) != 0 {
			t.Fatalf("cached point %d ran %d attempts", i, len(r.Attempts))
		}
		if math.Abs(r.Result.C-first[i].Result.C) != 0 {
			t.Fatalf("cached c=%g differs from computed c=%g", r.Result.C, first[i].Result.C)
		}
		if r.PSS == nil || r.PSS != r.Result.PSS {
			t.Fatal("cached PointResult.PSS must alias Result.PSS")
		}
	}
	s := reg.Snapshot()
	if got := s.Counter("pn_core_characterisations_total", "ok"); got != chars {
		t.Fatalf("second run invoked the pipeline: %d characterisations, want %d", got, chars)
	}
	if got := s.Counter("pn_sweep_points_total", "cached"); got != 3 {
		t.Fatalf("cached outcome counter = %d, want 3", got)
	}
	if d := s.Gauge("pn_sweep_queue_depth"); d != 0 {
		t.Fatalf("queue depth after cached batch = %g, want 0 (cached short-circuit skipped a decrement?)", d)
	}
}

func TestCacheIdenticalPointsCollapseToOneRun(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = keyedHopfPoint("dup", 2) // all identical ⇒ one key
	}
	results := Run(pts, &Config{Workers: n, Cache: store})
	computed := 0
	for i, r := range results {
		if !r.OK() {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if !r.Cached {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d points computed, want exactly 1 (singleflight)", computed)
	}
	if got := reg.Snapshot().Counter("pn_core_characterisations_total", "ok"); got != 1 {
		t.Fatalf("characterisations = %d, want 1", got)
	}
}

func TestCacheOnPointIndicesExactUnderInterleaving(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-warm half the grid so cached (instant) and computed (slow) points
	// interleave maximally.
	warm := []Point{keyedHopfPoint("w0", 2), keyedHopfPoint("w1", 3)}
	Run(warm, &Config{Cache: store})

	pts := []Point{
		keyedHopfPoint("p0", 2), // cached
		keyedHopfPoint("p1", 5), // computed
		keyedHopfPoint("p2", 3), // cached
		keyedHopfPoint("p3", 6), // computed
	}
	var mu sync.Mutex
	seen := make(map[int]string)
	results := Run(pts, &Config{Workers: 4, Cache: store, OnPoint: func(r PointResult) {
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := seen[r.Index]; dup {
			t.Errorf("index %d reported twice (%q then %q)", r.Index, prev, r.Name)
		}
		seen[r.Index] = r.Name
	}})
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(pts) {
		t.Fatalf("OnPoint fired %d times, want %d", len(seen), len(pts))
	}
	for i, p := range pts {
		if seen[i] != p.Name {
			t.Fatalf("index %d carried name %q, want %q", i, seen[i], p.Name)
		}
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result slot %d has Index %d", i, r.Index)
		}
	}
	if !results[0].Cached || results[1].Cached || !results[2].Cached || results[3].Cached {
		t.Fatalf("cached pattern wrong: %v %v %v %v",
			results[0].Cached, results[1].Cached, results[2].Cached, results[3].Cached)
	}
}

func TestCacheDiskRoundTripServesNewProcess(t *testing.T) {
	dir := t.TempDir()
	s1, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{keyedHopfPoint("p", 2)}
	first := Run(pts, &Config{Cache: s1})
	if !first[0].OK() {
		t.Fatal(first[0].Err)
	}
	// A fresh store over the same directory models a new process.
	s2, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	second := Run(pts, &Config{Cache: s2})
	if !second[0].OK() || !second[0].Cached {
		t.Fatalf("disk-backed rerun: ok=%v cached=%v err=%v", second[0].OK(), second[0].Cached, second[0].Err)
	}
	if second[0].Result.C != first[0].Result.C {
		t.Fatalf("disk round trip changed c: %g vs %g", second[0].Result.C, first[0].Result.C)
	}
	if got, want := second[0].Result.T(), first[0].Result.T(); got != want {
		t.Fatalf("disk round trip changed T: %g vs %g", got, want)
	}
}

// TestCacheStaleEntryIsHealed: a disk-tier entry (shared with other writers)
// whose payload does not decode, or decodes to an incomplete result, is
// stale. The point is computed, not served — an incomplete result has no
// period to summarise — and the fresh result replaces the entry, so a new
// process over the same directory hits.
func TestCacheStaleEntryIsHealed(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	for _, payload := range []string{`{"pss":5}`, `{"c":1e-9}`, `{"pss":{"T":0},"floquet":{"t":0}}`, `{"pss":{"T":2}}`} {
		pts := []Point{keyedHopfPoint("a", 2)}
		dir := t.TempDir()
		writer, err := cache.New(cache.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if err := writer.Put(p.Key, []byte(payload)); err != nil {
				t.Fatal(err)
			}
		}
		run := func() []PointResult {
			store, err := cache.New(cache.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			return Run(pts, &Config{Workers: 1, Cache: store})
		}
		before := reg.Snapshot().Counter("pn_core_characterisations_total", "ok")
		for i, r := range run() {
			if !r.OK() || r.Cached || r.Result.T() <= 0 {
				t.Fatalf("%s point %d over a stale entry: ok=%v cached=%v err=%v", payload, i, r.OK(), r.Cached, r.Err)
			}
		}
		computed := reg.Snapshot().Counter("pn_core_characterisations_total", "ok")
		if computed-before != int64(len(pts)) {
			t.Fatalf("%s: %d characterisations, want %d", payload, computed-before, len(pts))
		}
		for i, r := range run() {
			if !r.OK() || !r.Cached {
				t.Fatalf("%s point %d: entry not healed: ok=%v cached=%v err=%v", payload, i, r.OK(), r.Cached, r.Err)
			}
		}
		if got := reg.Snapshot().Counter("pn_core_characterisations_total", "ok"); got != computed {
			t.Fatalf("%s: healed entry recomputed (%d characterisations, want %d)", payload, got, computed)
		}
	}
}

// TestCacheHitUndecodedUnderDiscardResults pins what a cache hit carries.
// Under DiscardResults a memory-tier hit reaches OnPoint undecoded — Result
// nil, still OK — with the computed point's scalars and a MarshalJSON that
// splices the cache payload, byte for byte the record of the decoded hit.
// Without DiscardResults the returned slice holds decoded results.
func TestCacheHitUndecodedUnderDiscardResults(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{keyedHopfPoint("a", 2), keyedHopfPoint("b", 3)}
	computed := Run(pts, &Config{Workers: 1, Cache: store})

	var hits []PointResult
	Run(pts, &Config{Workers: 1, Cache: store, DiscardResults: true, OnPoint: func(r PointResult) { hits = append(hits, r) }})
	decoded := Run(pts, &Config{Workers: 1, Cache: store})
	if len(hits) != len(pts) {
		t.Fatalf("%d hits delivered, want %d", len(hits), len(pts))
	}
	for _, h := range hits {
		want := computed[h.Index]
		if !h.OK() || !h.Cached || h.Result != nil || h.PSS != nil {
			t.Fatalf("point %d: ok=%v cached=%v result=%v pss=%v, want an undecoded hit", h.Index, h.OK(), h.Cached, h.Result != nil, h.PSS != nil)
		}
		sc, ok := h.Scalars()
		if wsc := want.Result.Scalars(); !ok || sc.T != wsc.T || sc.C != wsc.C || len(sc.PerSource) != len(wsc.PerSource) {
			t.Fatalf("point %d: scalars %+v, want %+v", h.Index, sc, wsc)
		}
		d := decoded[h.Index]
		if !d.OK() || !d.Cached || d.Result == nil || d.PSS != d.Result.PSS {
			t.Fatalf("point %d: returned hit is not decoded: %+v", h.Index, d)
		}
		d.Wall = h.Wall
		got, err1 := h.MarshalJSON()
		again, err2 := d.MarshalJSON()
		if err1 != nil || err2 != nil || !bytes.Equal(got, again) {
			t.Fatalf("point %d: undecoded hit encodes differently from the decoded one (%v, %v)", h.Index, err1, err2)
		}
		var back PointResult
		if err := back.UnmarshalJSON(got); err != nil || back.Result == nil || back.PSS != back.Result.PSS || back.Result.C != want.Result.C {
			t.Fatalf("point %d: spliced record does not decode to the result: %v", h.Index, err)
		}
	}
}

// TestConcurrentMissesEstimateOnce: identical points whose period has no
// closed form, run at once, collapse to one computation, and that one
// estimates the period: one sweep.estimate span, one characterisation.
func TestConcurrentMissesEstimateOnce(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	ring := obs.NewRingEmitter(1 << 12)
	root := obs.StartSpanOn(ring, nil, "test")

	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &osc.FitzHughNagumo{Eps: 0.08, SigmaV: 1e-3, SigmaW: 1e-3}
	opts := &core.Options{Shooting: &shooting.Options{StepsPerPeriod: 8000}}
	pt := Point{
		Name:         "fhn",
		System:       f,
		X0:           []float64{1, 0},
		EstimateTMax: 60,
		Opts:         opts,
		Key:          cache.CharacterisationKey("fhn", map[string]float64{"eps": 0.08}, []float64{1, 0}, 0, opts.FingerprintFields()),
	}
	pts := []Point{pt, pt, pt, pt}
	res := Run(pts, &Config{Workers: len(pts), Cache: store, Span: root})
	root.End()
	for i, r := range res {
		if !r.OK() {
			t.Fatalf("point %d: %v", i, r.Err)
		}
	}
	estimates := 0
	for _, ev := range ring.Events() {
		if ev.Name == "sweep.estimate" {
			estimates++
		}
	}
	s := reg.Snapshot()
	if chars := s.Counter("pn_core_characterisations_total", "ok"); estimates != 1 || chars != 1 {
		t.Fatalf("%d estimates and %d characterisations for %d identical points, want 1 and 1", estimates, chars, len(pts))
	}
	t.Logf("%d of %d points joined the computation in flight", s.Counter("pn_cache_shared_total", ""), len(pts)-1)
}
