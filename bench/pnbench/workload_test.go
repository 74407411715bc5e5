package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// generated is everything a seed determines, as bytes: each workload's
// warm-up, its requests (the first 40 of a closed loop) and its direct-call
// specs.
func generated(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	enc := func(name string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	pl := pool(seed)
	var hot, sweeps []request
	for i := 0; i < 40; i++ {
		hot = append(hot, hotRequest(seed, pl, i))
		sweeps = append(sweeps, sweepRequest(seed, i))
	}
	enc("cold-open", coldRequests(seed, 20))
	enc("mixed", interactiveRequests(seed, 20))
	enc("pool", pl)
	enc("hot", hot)
	enc("sweeps", sweeps)
	for _, w := range workloads {
		enc("direct/"+w, directSet(w, seed, 20))
	}
	return out
}

func TestSeedDeterminesRequests(t *testing.T) {
	a, again, other := generated(t, 1), generated(t, 1), generated(t, 2)
	for name, data := range a {
		if !bytes.Equal(data, again[name]) {
			t.Errorf("%s: seed 1 generated different bytes on a second call", name)
		}
		if bytes.Equal(data, other[name]) {
			t.Errorf("%s: seeds 1 and 2 generated identical requests", name)
		}
	}
}

// Cold requests never repeat a key (so cold-open's hit ratio is exactly 0),
// nor a warm-up spec; the open loop sends rate·seconds requests in due order
// inside the window, in the mix's proportions.
func TestColdOpenShape(t *testing.T) {
	reqs := openLoop(coldMix, 5, 20, 7)
	if len(reqs) != 100 {
		t.Fatalf("%d requests, want 100", len(reqs))
	}
	seen := map[string]bool{}
	for _, sp := range fixedWarmup {
		seen[sp.RoutingKey()] = true
	}
	models := map[string]int{}
	for i, r := range reqs {
		if i > 0 && r.Due < reqs[i-1].Due || r.Due < 0 || r.Due.Seconds() >= 20 {
			t.Fatalf("request %d due at %v: out of order or outside the window", i, r.Due)
		}
		k := r.Char.PointSpec.RoutingKey()
		if seen[k] {
			t.Fatalf("request %d repeats key %s", i, k)
		}
		seen[k] = true
		models[r.Char.Model]++
	}
	want := map[string]int{"hopf": 25, "vanderpol": 25, "negres": 20, "ring": 15, "fhn": 15}
	for m, n := range want {
		if models[m] != n {
			t.Errorf("%d %s requests, want %d", models[m], m, n)
		}
	}
}

func TestPoolAndHotRequests(t *testing.T) {
	pl := pool(3)
	want := map[string]int{"hopf": 6, "vanderpol": 6, "negres": 6, "fhn": 2, "ring": 2, "bandpass": 1, "colpitts": 1}
	got := map[string]int{}
	inPool := map[string]bool{}
	for _, sp := range pl {
		got[sp.Model]++
		inPool[sp.RoutingKey()] = true
	}
	for m, n := range want {
		if got[m] != n {
			t.Errorf("pool has %d %s specs, want %d", got[m], m, n)
		}
	}
	composes := 0
	for i := 0; i < 400; i++ {
		r := hotRequest(3, pl, i)
		if r.Compose != nil {
			composes++
		}
		for _, sp := range r.specs() {
			if !inPool[sp.RoutingKey()] {
				t.Fatalf("request %d characterises %v, outside the pool", i, sp)
			}
		}
	}
	if composes < 70 || composes > 130 {
		t.Errorf("%d of 400 requests compose, want about 100", composes)
	}
}
