package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// The p90 needs at least ten samples beyond it: 100 samples are the fewest
// that give it, which is why the open loops send at least 100 requests.
func TestTenSamplesBeyondThePercentile(t *testing.T) {
	for _, tc := range []struct {
		p       float64
		n, want int
	}{
		{90, 0, 0}, {90, 99, 9}, {90, 100, 10}, {90, 150, 15}, {90, 704, 70},
		{50, 20, 10}, {99, 1000, 10}, {99.9, 10000, 10},
	} {
		if got := beyond(tc.p, tc.n); got != tc.want {
			t.Errorf("beyond(%v, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
	bf, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, reqs := range map[string][]request{
		coldOpen:     coldRequests(1, bf.RunSeconds),
		mixedTenants: interactiveRequests(1, bf.RunSeconds),
	} {
		if beyond(90, len(reqs)) < 10 {
			t.Errorf("%s sends %d requests in %d s: fewer than ten beyond the p90", name, len(reqs), bf.RunSeconds)
		}
	}
}

// An untraced run reports its timings at the reference machine's speed: a
// pass whose probe read twice the reference reports half the set-up time,
// latencies and CPU time it measured, and its memory and disk as measured.
func TestTimingsScaleToTheReferenceSpeed(t *testing.T) {
	due := time.Now()
	p := &pass{workload: coldOpen, setups: []float64{4}, probe: &probe{ms: 2 * refProbeMS},
		rssMB: 300, cpuSeconds: 100, diskBytes: 2e6, diskPoints: 1}
	for i := 1; i <= 100; i++ {
		p.window = append(p.window, &outcome{
			req: &request{Char: &serve.CharacteriseRequest{}}, state: serve.StateDone,
			due: due, terminal: due.Add(time.Duration(i) * time.Millisecond),
			points: []serve.PointSummary{{OK: true}},
		})
	}
	got := endToEndValues(p)
	for name, want := range map[string]float64{
		"setup_s": 2, "latency_p50_ms": 25, "latency_p90_ms": 45, "cpu_ms_per_point": 500,
		"peak_rss_mb": 300, "disk_mb_per_point": 2,
	} {
		if math.Abs(got[name]-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
}

// Python: statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
// == [3.5, 24.0, 160.0]; statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, [3]float64{3.5, 24, 160}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// Every metric the benchmark prints is declared in BENCHMARK.json, in the
// section its mode reports, with the same unit, under a valid name — and
// every declared metric is printed.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	bf, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, mode := range []struct {
		traced   bool
		declared []declared
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		units := map[string]string{}
		for _, d := range mode.declared {
			units[d.Name] = d.Unit
		}
		res := (&pass{traced: mode.traced}).result(map[string]float64{})
		var out bytes.Buffer
		printResult(&out, res, mode.traced)
		printed := map[string]bool{}
		sc := bufio.NewScanner(&out)
		var last string
		for sc.Scan() {
			last = sc.Text()
			f := strings.Fields(last)
			if strings.HasPrefix(last, "{") {
				continue
			}
			if len(f) != 3 {
				t.Errorf("line %q is not \"name value unit\"", last)
				continue
			}
			if _, err := strconv.ParseFloat(f[1], 64); err != nil {
				t.Errorf("line %q: value: %v", last, err)
			}
			if !valid.MatchString(f[0]) {
				t.Errorf("metric name %q does not match %s", f[0], valid)
			}
			if u, ok := units[f[0]]; !ok || u != f[2] {
				t.Errorf("printed %s [%s], BENCHMARK.json declares [%s] (declared: %v)", f[0], f[2], u, ok)
			}
			printed[f[0]] = true
		}
		var js result
		if err := json.Unmarshal([]byte(last), &js); err != nil {
			t.Fatalf("last line %q is not the result JSON: %v", last, err)
		}
		for name := range units {
			if !printed[name] || js.Metrics[name].Unit != units[name] {
				t.Errorf("declared metric %s missing from the traced=%v output", name, mode.traced)
			}
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, pnbench runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, pnbench %q", i, w.Name, workloads[i])
		}
	}
}

func TestAgreeAppliesBoundsAndExactCounts(t *testing.T) {
	bound := 0.1
	bf := &benchmarkFile{
		EndToEnd: []declared{{Name: "latency_p50_ms", Better: "lower", Bound: &bound}},
		PerLayer: []declared{{Name: "cache.hit_ratio", Better: "higher"}},
	}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
	}{coldOpen})
	set := func(lat []float64, hit float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{coldOpen: {"latency_p50_ms": lat, "cache.hit_ratio": {hit, hit}}}
	}
	base := set([]float64{100, 101, 102, 99, 100}, 0)
	for _, tc := range []struct {
		name string
		b    map[string]map[string][]float64
		want int
	}{
		{"same", set([]float64{100, 102, 101, 99, 100}, 0), 0},
		{"slower beyond the bound", set([]float64{120, 121, 119, 122, 120}, 0), 1},
		{"exact count differs", set([]float64{100, 101, 102, 99, 100}, 1), 1},
	} {
		if got := compareSets(bf, base, tc.b, io.Discard); got != tc.want {
			t.Errorf("%s: compareSets = %d, want %d", tc.name, got, tc.want)
		}
	}
}
